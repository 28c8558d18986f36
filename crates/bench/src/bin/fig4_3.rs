//! Figure 4-3: scatter of per-pair throughput, opportunistic routing vs
//! Srcr. Points above the 45° line gain from opportunism; the paper's
//! finding is that *challenged* flows (low Srcr throughput) gain most
//! while already-good flows stay on the diagonal.
//!
//! `cargo run --release -p more-bench --bin fig4_3 -- --pairs 60`

use more_bench::common::{banner, Args};
use more_bench::{stats, RunRecord, ALL3};
use more_scenario::{Scenario, TrafficSpec};

fn main() {
    let args = Args::parse();
    let n_pairs: usize = args.get("pairs", 60);
    let packets: usize = args.get("packets", 192);
    let seed: u64 = args.get("seed", 1);
    let topo_seed: u64 = args.get("topo-seed", 1);

    banner(
        "Figure 4-3",
        "per-pair scatter: MORE vs Srcr and ExOR vs Srcr",
    );
    let records = Scenario::named("fig4_3")
        .testbed(topo_seed)
        .traffic(TrafficSpec::RandomPairs {
            count: n_pairs,
            seed,
        })
        .protocols(ALL3)
        .packets(packets)
        .seeds([seed])
        .run();

    if records.is_empty() {
        println!("(no runs — the scenario grid is empty; check --pairs/--runs)");
        return;
    }

    // Every protocol ran the same ordered pair list; join on traffic_index.
    let by_proto = |proto: &str| -> Vec<&RunRecord> {
        let mut rs: Vec<&RunRecord> = records.iter().filter(|r| r.protocol == proto).collect();
        rs.sort_by_key(|r| r.traffic_index);
        rs
    };
    let (srcr, more, exor) = (by_proto("Srcr"), by_proto("MORE"), by_proto("ExOR"));

    println!(
        "{:>10} {:>10} {:>10} {:>12}",
        "Srcr", "MORE", "ExOR", "pair"
    );
    let mut runs: Vec<(f64, f64, f64)> = Vec::new();
    for ((s, m), e) in srcr.iter().zip(&more).zip(&exor) {
        let flow = &s.flows[0];
        let row = (
            s.mean_throughput(),
            m.mean_throughput(),
            e.mean_throughput(),
        );
        println!(
            "{:10.1} {:10.1} {:10.1}   {}->{}",
            row.0, row.1, row.2, flow.src, flow.dsts[0]
        );
        runs.push(row);
    }

    // The paper's qualitative claim: gains concentrate on challenged flows.
    let med_srcr = stats::median(&runs.iter().map(|r| r.0).collect::<Vec<_>>());
    let gain = |f: &dyn Fn(&(f64, f64, f64)) -> f64, challenged: bool| {
        let sel: Vec<f64> = runs
            .iter()
            .filter(|r| (r.0 < med_srcr) == challenged)
            .map(|r| f(r) / r.0.max(0.1))
            .collect();
        stats::median(&sel)
    };
    println!(
        "\nmedian MORE/Srcr gain: challenged flows {:.2}x, good flows {:.2}x (paper: gains concentrate on challenged flows)",
        gain(&|r| r.1, true),
        gain(&|r| r.1, false)
    );
    println!(
        "median ExOR/Srcr gain: challenged flows {:.2}x, good flows {:.2}x",
        gain(&|r| r.2, true),
        gain(&|r| r.2, false)
    );
}
