//! The paper's evaluation, declared once: a table of [`Experiment`]s,
//! each with the flags it reads, how it is measured, the series it
//! prints and the [`Claim`]s it quotes from the paper beside what this
//! code measures. The `paper` binary is a front end to [`CATALOG`].
//!
//! Throughput is packets/second over the transfer, the unit of Figs
//! 4-2…4-7. Deadline-limited runs report what was delivered by the
//! deadline (challenged Srcr pairs — the dead spots — would otherwise run
//! forever).

use crate::stats::{cdf_lines, mean, median, quantile, std_dev};
use mesh_metrics::etx::LinkCost;
use mesh_metrics::gap::{pair_gap, testbed_gap_stats, GapStats};
use mesh_metrics::EtxTable;
use mesh_sim::Bitrate;
use mesh_topology::{generate, NodeId, Topology};
use more_core::{ForwarderMetric, MoreConfig};
use more_scenario::{
    MoreFactory, RunRecord, Scenario, ScenarioBuilder, Sweep, TopologySpec, TrafficSpec,
};
use std::str::FromStr;
use std::sync::Arc;

/// The flags in effect for one experiment — its defaults, overridden by
/// the command line — each checked against its flag's domain.
#[derive(Debug)]
pub struct Args(Vec<(&'static str, String)>);

impl Args {
    /// Parses `argv` (`--flag value` pairs) over `exp`'s defaults.
    /// Anything else — an unknown flag, a flag `exp` does not read, a
    /// missing, unparsable or out-of-range value — is an error naming the
    /// flags `exp` accepts.
    pub fn parse(exp: &Experiment, argv: &[String]) -> Result<Args, String> {
        let mut args = Args::defaults(exp);
        let overridden = args.override_with(argv);
        overridden.map_err(|e| format!("{e}; {} reads: {}", exp.name, exp.command()))?;
        Ok(args)
    }

    fn defaults(exp: &Experiment) -> Args {
        let defaults = exp.flags.iter().map(|(f, v)| (*f, v.to_string()));
        Args(defaults.collect())
    }

    fn override_with(&mut self, argv: &[String]) -> Result<(), String> {
        let mut words = argv.iter();
        while let Some(word) = words.next() {
            let flag = word.strip_prefix("--");
            let slot = flag.and_then(|flag| self.0.iter_mut().find(|(f, _)| *f == flag));
            let (flag, slot) = slot.ok_or(format!("{word:?} is not one of its flags"))?;
            let value = words.next().ok_or(format!("{word} needs a value"))?;
            if !in_domain(flag, value) {
                return Err(format!("{value:?} is not a valid --{flag}"));
            }
            *slot = value.clone();
        }
        Ok(())
    }

    /// The value of a flag the experiment declares.
    fn get<T: FromStr>(&self, flag: &str) -> T {
        let value = self.0.iter().find(|(f, _)| *f == flag);
        let parsed = value.and_then(|(_, v)| v.parse().ok());
        parsed.unwrap_or_else(|| panic!("the experiment declares --{flag} and parse checked it"))
    }

    /// ` --flag value` for each flag.
    fn shown(&self) -> String {
        self.0.iter().map(|(f, v)| format!(" --{f} {v}")).collect()
    }
}

/// Whether `value` parses as `flag`'s type — and, for the flags handed
/// straight to a topology generator or an agent that asserts its domain,
/// lies in it. These eight are every flag of every experiment.
fn in_domain(flag: &str, value: &str) -> bool {
    match flag {
        "p" => value.parse().is_ok_and(|p: f64| p > 0.0 && p <= 1.0),
        "k" | "packets" => value.parse().is_ok_and(|n: usize| n >= 1),
        "pairs" => value.parse::<usize>().is_ok(),
        "seed" | "topo-seed" | "runs" | "topos" => value.parse::<u64>().is_ok(),
        _ => false,
    }
}

/// What an experiment measured: scenario records, directly examined
/// topologies, or both empty when the flags describe an empty grid.
#[derive(Default)]
pub struct Data {
    /// Records of every scenario the experiment ran, in run order — and
    /// each scenario's in grid order: protocol, sweep value, seed, traffic
    /// index.
    pub records: Vec<RunRecord>,
    /// Topologies whose statistics the experiment reports.
    pub topos: Vec<Topology>,
}

/// One number the paper states, and how to read the same number off
/// this code's [`Data`]. Its source is its experiment's.
pub struct Claim {
    /// What is compared.
    pub name: &'static str,
    /// The paper's value, as the paper words it.
    pub paper: &'static str,
    /// Decimals `here` is printed with.
    pub digits: usize,
    /// The value measured here.
    pub here: fn(&Data) -> f64,
}

/// A row of an experiment's claims.
const fn claim(
    name: &'static str,
    paper: &'static str,
    digits: usize,
    here: fn(&Data) -> f64,
) -> Claim {
    Claim {
        name,
        paper,
        digits,
        here,
    }
}

/// One experiment of the paper's evaluation.
pub struct Experiment {
    /// Sub-command of the `paper` binary.
    pub name: &'static str,
    /// Figure or section of the paper.
    pub source: &'static str,
    /// One-line description.
    pub what: &'static str,
    /// `(flag, default)` for every flag the experiment reads.
    pub flags: &'static [(&'static str, &'static str)],
    /// Runs the experiment.
    pub measure: fn(&Args) -> Result<Data, String>,
    /// Prints the series the paper plots.
    pub series: fn(&Data),
    /// The paper's numbers to set beside the measurement.
    pub claims: &'static [Claim],
}

impl Experiment {
    /// The command line that runs it, every flag at its default.
    pub fn command(&self) -> String {
        format!("paper {}{}", self.name, Args::defaults(self).shown())
    }
}

/// Every experiment, in the paper's order.
pub static CATALOG: [Experiment; 10] = [
    FIG4_1, FIG4_2, FIG4_3, FIG4_4, FIG4_5, FIG4_6, FIG4_7, FIG5_1, SEC5_7, ABLATION,
];

/// The paper's three-way comparison, in plotting order.
const ALL3: [&str; 3] = ["Srcr", "ExOR", "MORE"];

/// The generated 20-node, 3-floor testbed as a floor plan plus its §4.1
/// statistics; the full topology JSON is written beside it.
const FIG4_1: Experiment = Experiment {
    name: "fig4_1",
    source: "Fig 4-1",
    what: "testbed node map and link statistics",
    flags: &[("topo-seed", "1")],
    measure: |a| Ok(topos(vec![generate::testbed(a.get("topo-seed"))])),
    series: fig4_1_series,
    claims: &[
        claim("best-path link loss, mean", "0.27", 2, |d| {
            mean(&best_path_losses(&d.topos[0]))
        }),
        claim("best-path link loss, max", "0.60", 2, |d| {
            quantile(&best_path_losses(&d.topos[0]), 1.0)
        }),
        claim("longest best path, hops", "5", 0, |d| {
            d.topos[0].max_hops() as f64
        }),
    ],
};

const THREE_WAY_FLAGS: &[(&str, &str)] = &[
    ("pairs", "60"),
    ("packets", "192"),
    ("seed", "1"),
    ("topo-seed", "1"),
];

/// CDF of unicast throughput over random pairs. The 10th percentiles are
/// the dead spots; the best pair is the paper's 10–12× tail.
const FIG4_2: Experiment = Experiment {
    name: "fig4_2",
    source: "Fig 4-2",
    what: "CDF of unicast throughput (MORE vs ExOR vs Srcr), K=32, 5.5 Mb/s",
    flags: THREE_WAY_FLAGS,
    measure: three_way,
    series: |d| {
        for proto in ALL3 {
            println!("--- {proto} CDF (throughput pkt/s, cumulative fraction) ---");
            println!("{}", cdf_lines(&tputs(d, proto, None), 12).join("\n"));
        }
        quantile_rows(d, &ALL3);
    },
    claims: &[
        claim("MORE/ExOR median", "≈ 1.22", 2, |d| {
            med(d, "MORE") / med(d, "ExOR")
        }),
        claim("MORE/Srcr median", "≈ 1.95", 2, |d| {
            med(d, "MORE") / med(d, "Srcr")
        }),
        claim("best per-pair MORE/Srcr gain, ×", "10–12", 1, |d| {
            quantile(&gains(d, "MORE", None), 1.0)
        }),
        claim("MORE 10th percentile, pkt/s", "> 50", 0, |d| {
            quantile(&tputs(d, "MORE", None), 0.1)
        }),
        claim("Srcr 10th percentile, pkt/s", "≈ 10", 0, |d| {
            quantile(&tputs(d, "Srcr", None), 0.1)
        }),
    ],
};

/// Per-pair scatter against Srcr, over the runs of Fig 4-2. Points above
/// the 45° line gain from opportunism; challenged flows (Srcr below its
/// median) gain most while already-good flows stay on the diagonal.
const FIG4_3: Experiment = Experiment {
    name: "fig4_3",
    source: "Fig 4-3",
    what: "per-pair scatter: MORE vs Srcr and ExOR vs Srcr",
    flags: THREE_WAY_FLAGS,
    measure: three_way,
    series: |d| {
        println!("{:>10} {:>10} {:>10}   pair", "Srcr", "MORE", "ExOR");
        for ((s, m), e) in of(d, "Srcr").zip(of(d, "MORE")).zip(of(d, "ExOR")) {
            let tputs = [s, m, e].map(|r| format!("{:10.1}", r.mean_throughput()));
            println!("{}   {}", tputs.join(" "), pair_label(s));
        }
    },
    claims: &[
        claim(
            "MORE/Srcr gain, challenged flows",
            "≫ good flows",
            2,
            |d| median_gain(d, "MORE", true),
        ),
        claim("MORE/Srcr gain, good flows", "≈ 1 (diagonal)", 2, |d| {
            median_gain(d, "MORE", false)
        }),
        claim(
            "ExOR/Srcr gain, challenged flows",
            "≫ good flows",
            2,
            |d| median_gain(d, "ExOR", true),
        ),
        claim("ExOR/Srcr gain, good flows", "≈ 1 (diagonal)", 2, |d| {
            median_gain(d, "ExOR", false)
        }),
    ],
};

/// Spatial reuse: on a 4-hop line with 30 m spacing, hops 1 and 4 are
/// outside each other's carrier-sense range and can transmit together.
/// ExOR's scheduler serializes the whole path; MORE does not — the
/// MAC-independence payoff.
const FIG4_4: Experiment = Experiment {
    name: "fig4_4",
    source: "Fig 4-4",
    what: "4-hop flows with spatial reuse (hop 1 ∥ hop 4), skip links decay 0.12",
    flags: &[("runs", "20"), ("packets", "192"), ("p", "0.85")],
    measure: |a| {
        let line = TopologySpec::Line {
            hops: 4,
            p_adj: a.get("p"),
            skip_decay: 0.12,
            spacing: 30.0,
        };
        let flow = Scenario::named("fig4_4")
            .topology(line)
            .pair(NodeId(0), NodeId(4));
        grid(
            flow.protocols(ALL3)
                .packets(a.get("packets"))
                .seeds(1..=a.get("runs")),
        )
    },
    series: |d| quantile_rows(d, &ALL3),
    claims: &[
        claim("MORE/ExOR median, 4-hop flows", "≈ 1.50", 2, |d| {
            med(d, "MORE") / med(d, "ExOR")
        }),
        claim("MORE/Srcr median, 4-hop flows", "> 1", 2, |d| {
            med(d, "MORE") / med(d, "Srcr")
        }),
    ],
};

const FIG4_5_FLOWS: [usize; 4] = [1, 2, 3, 4];

/// Concurrent flows: each run seed draws a fresh random flow set (distinct
/// sources: a node sources at most one flow), every protocol runs the
/// same sets, and the sweep varies how many run at once. Opportunism
/// keeps its edge but congestion hides ExOR's serialization, so the
/// MORE–ExOR gap closes.
const FIG4_5: Experiment = Experiment {
    name: "fig4_5",
    source: "Fig 4-5",
    what: "average per-flow throughput (± std-dev over runs) vs number of flows",
    flags: &[("runs", "40"), ("packets", "128"), ("topo-seed", "1")],
    measure: |a| {
        let sets = TrafficSpec::RandomConcurrent {
            n_flows: 1,
            seed_offset: 1000,
            distinct_sources: true,
        };
        let testbed = Scenario::named("fig4_5")
            .testbed(a.get("topo-seed"))
            .traffic(sets);
        let sweep = testbed
            .protocols(ALL3)
            .sweep(Sweep::Flows(FIG4_5_FLOWS.to_vec()));
        grid(sweep.packets(a.get("packets")).seeds(1..=a.get("runs")))
    },
    series: |d| {
        sweep_table(d, "#flows", &FIG4_5_FLOWS, &ALL3, |t| {
            format!("{:7.1} ±{:6.1}", mean(t), std_dev(t))
        })
    },
    claims: &[
        claim("MORE/ExOR mean, 1 flow", "> 1", 2, |d| {
            mean(&tputs(d, "MORE", Some(1))) / mean(&tputs(d, "ExOR", Some(1)))
        }),
        claim("MORE/ExOR mean, 4 flows", "≥ 1 (gap closes)", 2, |d| {
            mean(&tputs(d, "MORE", Some(4))) / mean(&tputs(d, "ExOR", Some(4)))
        }),
    ],
};

const FIG4_6_PROTOCOLS: [&str; 4] = ["Srcr", "Srcr-autorate", "ExOR", "MORE"];

/// MORE and ExOR at a fixed 11 Mb/s against Srcr with Onoe autorate:
/// autorate parks challenged links at low bit-rates, whose long airtimes
/// hog the medium (§4.4), so it does not close the gap.
const FIG4_6: Experiment = Experiment {
    name: "fig4_6",
    source: "Fig 4-6",
    what: "MORE/ExOR at fixed 11 Mb/s vs Srcr fixed and Srcr autorate",
    flags: &[
        ("pairs", "40"),
        ("packets", "192"),
        ("seed", "1"),
        ("topo-seed", "1"),
    ],
    measure: |a| {
        let at_11 = testbed_pairs("fig4_6", a).bitrate(Bitrate::B11);
        grid(at_11.protocols(FIG4_6_PROTOCOLS).packets(a.get("packets")))
    },
    series: |d| quantile_rows(d, &FIG4_6_PROTOCOLS),
    claims: &[
        claim("MORE/Srcr-autorate median", "> 1 (gain kept)", 2, |d| {
            med(d, "MORE") / med(d, "Srcr-autorate")
        }),
        claim("ExOR/Srcr-autorate median", "> 1 (gain kept)", 2, |d| {
            med(d, "ExOR") / med(d, "Srcr-autorate")
        }),
        claim("Srcr-autorate/Srcr median", "≈ 1 (no help)", 2, |d| {
            med(d, "Srcr-autorate") / med(d, "Srcr")
        }),
    ],
};

const FIG4_7_KS: [usize; 5] = [8, 16, 32, 64, 128];

/// Batch size: ExOR degrades markedly at K=8 (per-batch control traffic
/// amortizes over fewer packets) while MORE is nearly insensitive (its
/// only small-batch cost is a few spurious transmissions around the
/// batch ACK).
const FIG4_7: Experiment = Experiment {
    name: "fig4_7",
    source: "Fig 4-7",
    what: "median throughput vs batch size K (MORE and ExOR), 256-packet transfers",
    flags: &[("pairs", "40"), ("seed", "1"), ("topo-seed", "1")],
    measure: |a| {
        let sweep = testbed_pairs("fig4_7", a).sweep(Sweep::K(FIG4_7_KS.to_vec()));
        grid(sweep.protocols(["MORE", "ExOR"]).packets(256))
    },
    series: |d| {
        sweep_table(d, "K", &FIG4_7_KS, &["MORE", "ExOR"], |t| {
            format!("{:.1}", median(t))
        })
    },
    claims: &[
        claim("MORE min/max median over K", "≈ 1 (flat)", 2, |d| {
            let medians = FIG4_7_KS.map(|k| median(&tputs(d, "MORE", Some(k))));
            quantile(&medians, 0.0) / quantile(&medians, 1.0)
        }),
        claim("ExOR median, K=8 / K=32", "≪ 1", 2, |d| {
            median(&tputs(d, "ExOR", Some(8))) / median(&tputs(d, "ExOR", Some(32)))
        }),
    ],
};

const FIG5_1_PS: [f64; 8] = [0.5, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005];
const FIG5_1_KS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// The unbounded ETX-vs-EOTX cost gap on the diamond: the ETX order
/// discards B, EOTX exploits the k forwarders, and
/// G(p, k) = cost(ETX order)/cost(EOTX order) tends to k as p → 0
/// (Proposition 6).
const FIG5_1: Experiment = Experiment {
    name: "fig5_1",
    source: "Fig 5-1",
    what: "unbounded ETX-order vs EOTX-order cost gap on the diamond",
    flags: &[("k", "8")],
    measure: |a| {
        let over_p = FIG5_1_PS.iter().map(|&p| generate::diamond(a.get("k"), p));
        let over_k = FIG5_1_KS.iter().map(|&k| generate::diamond(k, 0.01));
        Ok(topos(over_p.chain(over_k).collect()))
    },
    series: |d| {
        let (over_p, over_k) = d.topos.split_at(FIG5_1_PS.len());
        println!("{:>8} | {:>10} | {:>10}", "p", "gap", "limit k");
        for (p, (k, gap)) in FIG5_1_PS.iter().zip(over_p.iter().map(diamond_gap)) {
            println!("{p:>8} | {gap:>10.3} | {k:>10}");
        }
        println!("\ngap vs k at p = 0.01:");
        for (k, gap) in over_k.iter().map(diamond_gap) {
            println!("  k = {k:>3}: gap = {gap:.2}");
        }
    },
    claims: &[claim(
        "diamond gap / k at p = 0.005",
        "→ 1 as p → 0",
        2,
        |d| {
            let (k, gap) = diamond_gap(&d.topos[FIG5_1_PS.len() - 1]);
            gap / k as f64
        },
    )],
};

/// Algorithm 1's total cost under both orderings for every
/// source–destination pair of each generated testbed.
const SEC5_7: Experiment = Experiment {
    name: "sec5_7",
    source: "§5.7",
    what: "ETX-order vs EOTX-order gap across all testbed pairs",
    flags: &[("topos", "4")],
    measure: |a| Ok(topos((0..a.get("topos")).map(generate::testbed).collect())),
    series: |d| {
        for (seed, stats) in d.topos.iter().map(gap_stats).enumerate() {
            println!(
                "testbed seed {seed}: {} pairs | unaffected {:5.1}% | median affected gap {:6.3}% | max gap {:.3}",
                stats.pairs,
                100.0 * stats.unaffected_fraction,
                100.0 * stats.median_affected_excess,
                stats.max_gap
            );
        }
    },
    claims: &[
        claim("unaffected flows, %, testbed mean", "> 40", 1, |d| {
            100.0 * mean_gap_stat(d, |s| s.unaffected_fraction)
        }),
        claim("median affected gap, %, testbed mean", "0.2", 2, |d| {
            100.0 * mean_gap_stat(d, |s| s.median_affected_excess)
        }),
    ],
};

const ABLATION_PAIRS: usize = 10;
const ABLATION_K: usize = 8;
const ABLATION_PS: [f64; 3] = [0.3, 0.15, 0.08];

/// MORE with ETX-ordered vs EOTX-ordered forwarders (§5.7: "future
/// incarnations of both protocols should use the theoretically exact
/// EOTX"), registered as two protocols and compared by the ordinary
/// scenario machinery on transmissions per delivered packet — the
/// quantity the metric optimizes — over testbed pairs, where §5.7 predicts
/// a negligible difference, and on Fig 5-1 diamonds, where the ETX order
/// discards the good forwarder B. The analytic gap (Prop 6) grows toward
/// k as p → 0; the measured ratio trails it because the LP ignores MAC
/// contention: with 8 extra active forwarders the EOTX order pays real
/// airtime for its theoretical savings, and only wins once links get
/// lossy enough.
const ABLATION: Experiment = Experiment {
    name: "ablation_eotx",
    source: "Ablation",
    what: "MORE's tx per delivered packet, forwarders in ETX (shipped) vs EOTX (optimal) order",
    flags: &[],
    measure: |_| {
        let pairs = TrafficSpec::RandomPairs {
            count: ABLATION_PAIRS,
            seed: 3,
        };
        let testbed = Scenario::named("ablation_eotx").testbed(1).traffic(pairs);
        let mut data = both_orders(testbed)?;
        let (src, .., dst) = generate::diamond_roles(ABLATION_K);
        for p in ABLATION_PS {
            let mut diamond = generate::diamond_symmetricized(ABLATION_K, p);
            diamond.name = format!("diamond k={ABLATION_K} p={p}");
            let on_diamond = TopologySpec::Fixed(Arc::new(diamond));
            let flow = Scenario::named("ablation_eotx")
                .topology(on_diamond)
                .pair(src, dst);
            data.records.extend(both_orders(flow.seeds([2]))?.records);
        }
        Ok(data)
    },
    series: |d| {
        for (r, costs) in ordering_costs(d) {
            let run = format!("{:>19} {:<9}", r.topology, pair_label(r));
            let Some((etx, eotx)) = costs else {
                println!("{run} (incomplete within the deadline)");
                continue;
            };
            let ratio = etx / eotx;
            println!("{run} ETX {etx:6.2}  EOTX {eotx:6.2}  ratio {ratio:.3}");
        }
    },
    claims: &[
        claim(
            "tx/packet ETX/EOTX order, testbed",
            "≈ 1 (§5.7)",
            3,
            |d| {
                let costs = ordering_costs(d);
                let complete = costs[..ABLATION_PAIRS].iter().filter_map(|(_, c)| *c);
                let (etx, eotx) = complete.fold((0.0, 0.0), |t, c| (t.0 + c.0, t.1 + c.1));
                etx / eotx
            },
        ),
        claim(
            "tx/packet ETX/EOTX, diamond p=0.08",
            "→ k as p → 0",
            2,
            |d| {
                let lossiest = ordering_costs(d).pop().and_then(|(_, costs)| costs);
                lossiest.map_or(f64::NAN, |(etx, eotx)| etx / eotx)
            },
        ),
    ],
};

/// Runs `exp`: banner, series and claims to stdout. Returns the measured
/// value of each claim — none when the flags describe an empty grid.
pub fn run(exp: &Experiment, args: &Args) -> Result<Vec<f64>, String> {
    let rule = "=".repeat(66);
    println!("{rule}\n{}: {}", exp.source, exp.what);
    println!("paper {}{}\n{rule}", exp.name, args.shown());
    let data = (exp.measure)(args)?;
    if data.records.is_empty() && data.topos.is_empty() {
        println!("(no runs — the grid is empty; check{})", args.shown());
        return Ok(Vec::new());
    }
    (exp.series)(&data);
    let here: Vec<f64> = exp.claims.iter().map(|c| (c.here)(&data)).collect();
    print!("\n{}", claims_table(&[(exp, here.clone())]));
    Ok(here)
}

/// The paper-vs-here table: one row per claim of each `(experiment,
/// values measured by [`run`])`.
pub fn claims_table(measured: &[(&Experiment, Vec<f64>)]) -> String {
    let row = |claim: &str, source: &str, paper: &str, here: &str, command: &str| {
        format!("{claim:<36} {source:<8} {paper:<16} {here:>6}  {command}\n")
    };
    let mut table = row("claim", "source", "paper", "here", "command");
    for (exp, values) in measured {
        let command = format!("paper {}", exp.name);
        for (c, v) in exp.claims.iter().zip(values) {
            let here = format!("{v:.*}", c.digits);
            table += &row(c.name, exp.source, c.paper, &here, &command);
        }
    }
    table
}

fn topos(topos: Vec<Topology>) -> Data {
    Data {
        topos,
        ..Data::default()
    }
}

/// Runs a scenario grid; a configuration the builder rejects is the
/// experiment's error.
fn grid(scenario: ScenarioBuilder) -> Result<Data, String> {
    let records = scenario.try_run().map_err(|e| e.to_string())?;
    Ok(Data {
        records,
        ..Data::default()
    })
}

/// The evaluation's base set-up: `--pairs` random pairs on the testbed,
/// one transfer each, the same pair list for every protocol.
fn testbed_pairs(name: &str, a: &Args) -> ScenarioBuilder {
    let (count, seed) = (a.get("pairs"), a.get("seed"));
    let pairs = TrafficSpec::RandomPairs { count, seed };
    let testbed = Scenario::named(name).testbed(a.get("topo-seed"));
    testbed.traffic(pairs).seeds([seed])
}

/// The runs Figs 4-2 and 4-3 both read.
fn three_way(a: &Args) -> Result<Data, String> {
    let pairs = testbed_pairs("fig4_2", a).protocols(ALL3);
    grid(pairs.packets(a.get("packets")))
}

/// Records of one protocol, in run order. Every protocol ran the same
/// ordered pair list, so two of these zip pair by pair.
fn of<'a>(d: &'a Data, proto: &'a str) -> impl Iterator<Item = &'a RunRecord> {
    d.records.iter().filter(move |r| r.protocol == proto)
}

/// Per-run throughput of one protocol, at one sweep value if given.
fn tputs(d: &Data, proto: &str, at: Option<usize>) -> Vec<f64> {
    let runs = of(d, proto).filter(|r| at.is_none_or(|v| r.value == Some(v as f64)));
    runs.map(|r| r.mean_throughput()).collect()
}

fn med(d: &Data, proto: &str) -> f64 {
    median(&tputs(d, proto, None))
}

/// Per-pair `proto`/Srcr throughput ratios: of every pair, or of only
/// the challenged (Srcr below its median) or only the good pairs.
fn gains(d: &Data, proto: &str, challenged: Option<bool>) -> Vec<f64> {
    let srcr = tputs(d, "Srcr", None);
    let median_srcr = median(&srcr);
    let pairs = tputs(d, proto, None).into_iter().zip(srcr);
    let side = pairs.filter(|&(_, s)| challenged.is_none_or(|c| (s < median_srcr) == c));
    side.map(|(t, s)| t / s.max(0.1)).collect()
}

/// Median of one side of [`gains`]; NaN when so few pairs ran that the
/// side is empty.
fn median_gain(d: &Data, proto: &str, challenged: bool) -> f64 {
    let side = gains(d, proto, Some(challenged));
    if side.is_empty() {
        return f64::NAN;
    }
    median(&side)
}

/// `src->dst` of a run's first flow.
fn pair_label(r: &RunRecord) -> String {
    format!("{}->{}", r.flows[0].src, r.flows[0].dsts[0])
}

/// One row per protocol: throughput quantiles, completed runs, and the
/// median fraction of airtime with concurrent transmissions.
fn quantile_rows(d: &Data, protocols: &[&str]) {
    for proto in protocols {
        let t = tputs(d, proto, None);
        let (p10, p50, p90) = (quantile(&t, 0.1), median(&t), quantile(&t, 0.9));
        let completed = of(d, proto).filter(|r| r.all_completed()).count();
        let overlap: Vec<f64> = of(d, proto).map(|r| r.concurrency).collect();
        print!("{proto:>14}: p10 {p10:7.1}  median {p50:7.1}  p90 {p90:7.1} pkt/s");
        print!("   completed {completed}/{}", t.len());
        println!("   airtime overlap {:5.1}%", 100.0 * median(&overlap));
    }
}

/// One row per sweep value; in it, per protocol, one `cell` of the
/// throughputs there.
fn sweep_table(
    d: &Data,
    param: &str,
    at: &[usize],
    protocols: &[&str],
    cell: fn(&[f64]) -> String,
) {
    let heads: String = protocols.iter().map(|p| format!(" {p:>18}")).collect();
    println!("{param:>7} |{heads}");
    for &v in at {
        let cells = protocols.iter().map(|p| cell(&tputs(d, p, Some(v))));
        let cells: String = cells.map(|c| format!(" {c:>18}")).collect();
        println!("{v:>7} |{cells}");
    }
}

/// Loss of every link on every pair's best (ETX) path. The paper's
/// 0–60 % / 27 % statistic is over these: ETX avoids the worst links, so
/// the on-path average sits well below the all-links average.
fn best_path_losses(topo: &Topology) -> Vec<f64> {
    let mut losses = Vec::new();
    for d in topo.nodes() {
        let etx = EtxTable::compute(topo, d, LinkCost::Forward);
        let sources = topo.nodes().filter(|&s| s != d);
        for path in sources.filter_map(|s| etx.path_from(s)) {
            losses.extend(path.windows(2).map(|w| 1.0 - topo.delivery(w[0], w[1])));
        }
    }
    losses
}

fn fig4_1_series(d: &Data) {
    let topo = &d.topos[0];
    print!("{}", topo.ascii_map(56, 14));
    let min_mean_max = |v: &[f64]| {
        let (lo, hi) = (quantile(v, 0.0), quantile(v, 1.0));
        format!("min {lo:.2}  mean {:.2}  max {hi:.2}", mean(v))
    };
    let all: Vec<f64> = topo.links().map(|l| 1.0 - l.delivery).collect();
    println!("\nnodes: {}   directed links: {}", topo.n(), all.len());
    println!("all links  loss: {}", min_mean_max(&all));
    println!("best-path  loss: {}", min_mean_max(&best_path_losses(topo)));
    println!("paths: 1–{} hops", topo.max_hops());

    let path = "results/fig4_1_testbed.json";
    let written =
        std::fs::create_dir_all("results").and_then(|()| std::fs::write(path, topo.to_json()));
    match written {
        Ok(()) => println!("full topology written to {path}"),
        Err(e) => println!("(could not write {path}: {e})"),
    }
}

/// `(k, ETX-order / EOTX-order cost from source to destination)` of a
/// diamond, which has `k + 4` nodes.
fn diamond_gap(diamond: &Topology) -> (usize, f64) {
    let k = diamond.n() - 4;
    let (src, .., dst) = generate::diamond_roles(k);
    (k, pair_gap(diamond, src, dst))
}

fn gap_stats(topo: &Topology) -> GapStats {
    testbed_gap_stats(topo, 1e-9)
}

fn mean_gap_stat(d: &Data, stat: fn(GapStats) -> f64) -> f64 {
    let per_testbed: Vec<f64> = d.topos.iter().map(|t| stat(gap_stats(t))).collect();
    mean(&per_testbed)
}

/// Runs `scenario` under MORE with each forwarder ordering, registered
/// as the protocols "MORE-etx" and "MORE-eotx".
fn both_orders(scenario: ScenarioBuilder) -> Result<Data, String> {
    let ordered_by = |name, metric| {
        let config = MoreConfig {
            metric,
            ..MoreConfig::default()
        };
        MoreFactory::named(name, config)
    };
    let etx = ordered_by("MORE-etx", ForwarderMetric::Etx);
    let eotx = ordered_by("MORE-eotx", ForwarderMetric::Eotx);
    let both = scenario.register(etx).register(eotx);
    grid(both.packets(96).deadline(600))
}

/// Per ablation run, in run order: the ETX-order record and the
/// transmissions per delivered packet under `(ETX, EOTX)` order — `None`
/// when either run missed the deadline.
fn ordering_costs(d: &Data) -> Vec<(&RunRecord, Option<(f64, f64)>)> {
    fn cost(r: &RunRecord) -> Option<f64> {
        let delivered: usize = r.flows.iter().map(|f| f.delivered).sum();
        (r.all_completed() && delivered > 0).then(|| r.total_tx as f64 / delivered as f64)
    }
    let runs = of(d, "MORE-etx").zip(of(d, "MORE-eotx"));
    runs.map(|(etx, eotx)| (etx, cost(etx).zip(cost(eotx))))
        .collect()
}

#[cfg(test)]
mod test {
    use super::*;

    fn parse(name: &str, argv: &[&str]) -> Result<Args, String> {
        let exp = CATALOG.iter().find(|e| e.name == name).expect("in catalog");
        let argv: Vec<String> = argv.iter().map(|w| w.to_string()).collect();
        Args::parse(exp, &argv)
    }

    #[test]
    fn catalog_names_are_unique_and_every_default_is_in_its_flags_domain() {
        for (i, exp) in CATALOG.iter().enumerate() {
            assert!(
                CATALOG[..i].iter().all(|e| e.name != exp.name),
                "{}",
                exp.name
            );
            for (flag, default) in exp.flags {
                assert!(in_domain(flag, default), "{} --{flag} {default}", exp.name);
            }
        }
    }

    #[test]
    fn flags_override_defaults() {
        let args = parse("fig4_2", &["--pairs", "3", "--seed", "9"]).expect("valid");
        assert_eq!(args.get::<usize>("pairs"), 3);
        assert_eq!(args.get::<u64>("seed"), 9);
        assert_eq!(args.get::<usize>("packets"), 192);
        assert_eq!(
            args.shown(),
            " --pairs 3 --packets 192 --seed 9 --topo-seed 1"
        );
    }

    #[test]
    fn unknown_flag_is_an_error_naming_the_accepted_flags() {
        let err = parse("fig4_2", &["--pair", "3"]).expect_err("typo rejected");
        assert!(err.contains("\"--pair\""), "{err}");
        assert!(
            err.contains("--pairs 60 --packets 192 --seed 1 --topo-seed 1"),
            "{err}"
        );
        assert!(
            parse("fig4_2", &["pairs", "3"]).is_err(),
            "a bare word is not a flag"
        );
    }

    #[test]
    fn flag_the_experiment_does_not_read_is_an_error() {
        assert!(parse("fig5_1", &["--k", "4"]).is_ok());
        let err = parse("fig4_2", &["--k", "4"]).expect_err("fig4_2 has no --k");
        assert!(err.contains("fig4_2 reads"), "{err}");
        assert!(parse("ablation_eotx", &["--seed", "1"]).is_err());
    }

    #[test]
    fn unparsable_or_missing_value_is_an_error() {
        let err = parse("fig4_2", &["--packets", "abc"]).expect_err("rejected");
        assert!(err.contains("\"abc\" is not a valid --packets"), "{err}");
        assert!(parse("fig4_2", &["--pairs", "-1"]).is_err());
        assert!(parse("fig4_2", &["--pairs"]).is_err());
    }

    #[test]
    fn diamond_k_below_one_is_an_error_not_a_generator_panic() {
        assert!(parse("fig5_1", &["--k", "0"]).is_err());
        assert!(
            parse("fig4_2", &["--packets", "0"]).is_err(),
            "Srcr asserts a transfer"
        );
        assert!(parse("fig5_1", &["--k", "1"]).is_ok());
    }

    #[test]
    fn line_p_outside_unit_interval_is_an_error_not_a_builder_panic() {
        for p in ["1.5", "0", "-0.2", "NaN"] {
            assert!(parse("fig4_4", &["--p", p]).is_err(), "--p {p}");
        }
        assert!(parse("fig4_4", &["--p", "1"]).is_ok());
    }

    #[test]
    fn scenario_the_builder_rejects_is_an_error_not_a_panic() {
        // At p = 0.001 every link falls under the generator's 2 % floor.
        let args = parse("fig4_4", &["--p", "0.001", "--runs", "1"]).expect("in domain");
        let err = run(&FIG4_4, &args).expect_err("no route");
        assert!(err.contains("unreachable"), "{err}");
    }

    #[test]
    fn empty_grid_measures_no_claims() {
        let args = parse("fig4_2", &["--pairs", "0"]).expect("valid");
        assert_eq!(run(&FIG4_2, &args), Ok(Vec::new()));
    }

    #[test]
    fn gains_join_protocols_pair_by_pair_and_split_on_the_srcr_median() {
        let args = parse("fig4_2", &["--pairs", "5", "--packets", "32"]).expect("valid");
        let d = three_way(&args).expect("runs");
        assert_eq!(tputs(&d, "MORE", None).len(), 5);
        for (s, m) in of(&d, "Srcr").zip(of(&d, "MORE")) {
            assert_eq!(pair_label(s), pair_label(m));
        }
        let (all, challenged, good) = (
            gains(&d, "MORE", None),
            gains(&d, "MORE", Some(true)),
            gains(&d, "MORE", Some(false)),
        );
        assert_eq!((all.len(), challenged.len(), good.len()), (5, 2, 3));

        let one_pair = parse("fig4_2", &["--pairs", "1", "--packets", "32"]).expect("valid");
        let d = three_way(&one_pair).expect("runs");
        assert!(
            median_gain(&d, "MORE", true).is_nan(),
            "no pair is below the median"
        );
        assert!(median_gain(&d, "MORE", false).is_finite());
    }
}
