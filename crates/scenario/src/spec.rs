//! Declarative scenario ingredients: topology, traffic, parameters, and
//! sweeps.

// xtask: allow(panic_path, file) -- Sweep::value(i) is only called with i < len() by the sweep driver iterating 0..len().

use crate::registry::BuildError;
use crate::traffic::TrafficModelSpec;
use mesh_sim::{Bitrate, ChannelSpec, QueueSpec};
use mesh_topology::{generate, Link, NodeId, Topology};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Shared experiment parameters (§4.1.2 defaults). The same struct the
/// pre-scenario harness used, now owned by the scenario layer.
#[derive(Clone, Copy, Debug)]
pub struct ExpConfig {
    /// Packets per transfer (the paper sends a 5 MB file ≈ 3500 packets;
    /// experiments default to 12 batches ≈ 384 so sweeps stay tractable).
    pub packets: usize,
    /// Batch size K for MORE and ExOR.
    pub k: usize,
    /// Fixed data bit-rate.
    pub bitrate: Bitrate,
    /// Simulated-time budget per run.
    pub deadline_s: u64,
    /// RNG seed (medium + protocol randomness).
    pub seed: u64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            packets: 384,
            k: 32,
            bitrate: Bitrate::B5_5,
            deadline_s: 240,
            seed: 1,
        }
    }
}

/// One transfer — the engine's flow description under the scenario
/// layer's name for it.
pub use mesh_sim::FlowDesc as FlowSpec;

/// How the topology of a run is produced.
#[derive(Clone)]
pub enum TopologySpec {
    /// The 20-node, 3-floor testbed generator (Fig 4-1), by seed.
    Testbed {
        /// Placement seed.
        seed: u64,
    },
    /// Smaller/larger testbed-style mesh.
    TestbedSized {
        /// Node count.
        n: usize,
        /// Placement seed.
        seed: u64,
    },
    /// A line of `hops` hops (`hops + 1` nodes).
    Line {
        /// Hop count.
        hops: usize,
        /// Adjacent-link delivery probability.
        p_adj: f64,
        /// Per-skipped-hop delivery decay.
        skip_decay: f64,
        /// Node spacing, meters.
        spacing: f64,
    },
    /// A `w × h` grid.
    Grid {
        /// Grid width in nodes.
        w: usize,
        /// Grid height in nodes.
        h: usize,
        /// Adjacent-link delivery probability.
        p_adj: f64,
        /// Diagonal-link delivery probability.
        p_diag: f64,
        /// Node spacing, meters.
        spacing: f64,
    },
    /// A random scattered mesh, by seed.
    RandomMesh {
        /// Node count.
        n: usize,
        /// Area width, meters.
        width: f64,
        /// Area depth, meters.
        depth: f64,
        /// Placement seed.
        seed: u64,
    },
    /// The Fig 5-1 diamond with `k` middle forwarders.
    Diamond {
        /// Number of middle forwarders.
        k: usize,
        /// Source→forwarder and forwarder→destination delivery.
        p: f64,
    },
    /// A city-scale sparse mesh (single floor, ~1250 m² per node) with
    /// per-pair link streams — the 10k-node scaling workload. Unlike
    /// [`TopologySpec::RandomMesh`] it never materializes a dense
    /// matrix and never retries for connectivity.
    City {
        /// Node count.
        n: usize,
        /// Placement/link seed.
        seed: u64,
    },
    /// A fixed, caller-supplied topology.
    Fixed(Arc<Topology>),
    /// Arbitrary generator; receives the *run seed* so per-run topologies
    /// are possible.
    Custom(Arc<dyn Fn(u64) -> Topology + Send + Sync>),
}

impl std::fmt::Debug for TopologySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologySpec::Testbed { seed } => write!(f, "Testbed{{seed:{seed}}}"),
            TopologySpec::TestbedSized { n, seed } => {
                write!(f, "TestbedSized{{n:{n},seed:{seed}}}")
            }
            TopologySpec::Line { hops, .. } => write!(f, "Line{{hops:{hops}}}"),
            TopologySpec::Grid { w, h, .. } => write!(f, "Grid{{{w}x{h}}}"),
            TopologySpec::RandomMesh { n, seed, .. } => {
                write!(f, "RandomMesh{{n:{n},seed:{seed}}}")
            }
            TopologySpec::Diamond { k, p } => write!(f, "Diamond{{k:{k},p:{p}}}"),
            TopologySpec::City { n, seed } => write!(f, "City{{n:{n},seed:{seed}}}"),
            TopologySpec::Fixed(t) => write!(f, "Fixed({})", t.name),
            TopologySpec::Custom(_) => write!(f, "Custom(..)"),
        }
    }
}

impl TopologySpec {
    /// Builds the topology for a run. `run_seed` only matters for
    /// [`TopologySpec::Custom`] generators that opt into it.
    pub fn instantiate(&self, run_seed: u64) -> Topology {
        match self {
            TopologySpec::Testbed { seed } => generate::testbed(*seed),
            TopologySpec::TestbedSized { n, seed } => generate::testbed_sized(*n, *seed),
            TopologySpec::Line {
                hops,
                p_adj,
                skip_decay,
                spacing,
            } => generate::line(*hops, *p_adj, *skip_decay, *spacing),
            TopologySpec::Grid {
                w,
                h,
                p_adj,
                p_diag,
                spacing,
            } => generate::grid(*w, *h, *p_adj, *p_diag, *spacing),
            TopologySpec::RandomMesh {
                n,
                width,
                depth,
                seed,
            } => generate::random_mesh(*n, *width, *depth, *seed),
            TopologySpec::Diamond { k, p } => generate::diamond(*k, *p),
            TopologySpec::City { n, seed } => generate::city_mesh(*n, *seed),
            TopologySpec::Fixed(t) => (**t).clone(),
            TopologySpec::Custom(f) => f(run_seed),
        }
    }
}

/// Scales every link's *loss* by `factor` (a loss-scale sweep): delivery
/// `p` becomes `1 − min(1, (1 − p) · factor)`. `factor` 1.0 is identity;
/// 0.0 makes every existing link perfect; larger values degrade.
pub fn scale_loss(topo: &Topology, factor: f64) -> Topology {
    // Link by link, never through an n × n matrix: a 10k-node city mesh
    // has ~10⁵ links and 10⁸ pairs. A link scaled to 0 is no link.
    let links = topo
        .links()
        .map(|l| Link {
            delivery: (1.0 - (1.0 - l.delivery) * factor).clamp(0.0, 1.0),
            ..l
        })
        .filter(|l| l.delivery > 0.0)
        .collect();
    let name = format!("{}*loss{factor}", topo.name);
    let scaled = Topology::from_links(name, topo.n(), links);
    match topo.positions() {
        Some(pos) => scaled.with_positions(pos.to_vec()),
        None => scaled,
    }
}

/// How the flows of each run are produced.
///
/// A traffic spec expands to one or more *flow sets*; each flow set is
/// one simulator run (its flows are concurrent).
#[derive(Clone, Debug)]
pub enum TrafficSpec {
    /// One unicast transfer.
    SinglePair {
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
    },
    /// One independent run per listed pair.
    EachPair(Vec<(NodeId, NodeId)>),
    /// Deterministically samples `count` distinct reachable ordered pairs
    /// (seeded independently of the run seed), one run per pair.
    RandomPairs {
        /// Number of pairs (capped at the reachable-pair count).
        count: usize,
        /// Sampling seed, independent of the run seed.
        seed: u64,
    },
    /// One run with all listed flows concurrent.
    Concurrent(Vec<(NodeId, NodeId)>),
    /// One run of `n_flows` concurrent flows whose endpoints are sampled
    /// per run-seed (so every seed sees a different random flow set, the
    /// Fig 4-5 construction). Sources are distinct when
    /// `distinct_sources`.
    RandomConcurrent {
        /// Concurrent flow count.
        n_flows: usize,
        /// Added to the run seed for endpoint sampling.
        seed_offset: u64,
        /// Require pairwise-distinct sources.
        distinct_sources: bool,
    },
    /// One run with a single multicast flow.
    Multicast {
        /// Source node.
        src: NodeId,
        /// Destination set; an empty or repeating one is a
        /// [`crate::BuildError`] when the scenario runs.
        dsts: Vec<NodeId>,
    },
}

impl TrafficSpec {
    /// Expands to the flow sets of one run seed. Pair sampling is
    /// restricted to reachable ordered pairs.
    pub fn flow_sets(&self, topo: &Topology, run_seed: u64, packets: usize) -> Vec<Vec<FlowSpec>> {
        match self {
            TrafficSpec::SinglePair { src, dst } => {
                vec![vec![FlowSpec::unicast(*src, *dst, packets)]]
            }
            TrafficSpec::EachPair(pairs) => pairs
                .iter()
                .map(|&(s, d)| vec![FlowSpec::unicast(s, d, packets)])
                .collect(),
            TrafficSpec::RandomPairs { count, seed } => random_pairs(topo, *count, *seed)
                .into_iter()
                .map(|(s, d)| vec![FlowSpec::unicast(s, d, packets)])
                .collect(),
            TrafficSpec::Concurrent(pairs) => vec![pairs
                .iter()
                .map(|&(s, d)| FlowSpec::unicast(s, d, packets))
                .collect()],
            TrafficSpec::RandomConcurrent {
                n_flows,
                seed_offset,
                distinct_sources,
            } => {
                let pool = random_pairs(topo, topo.n() * topo.n(), seed_offset + run_seed);
                let mut flows = Vec::new();
                let mut used = BTreeSet::new();
                for (s, d) in pool {
                    if *distinct_sources && !used.insert(s) {
                        continue;
                    }
                    flows.push(FlowSpec::unicast(s, d, packets));
                    if flows.len() == *n_flows {
                        break;
                    }
                }
                assert_eq!(
                    flows.len(),
                    *n_flows,
                    "topology {} cannot host {} distinct-source flows",
                    topo.name,
                    n_flows
                );
                vec![flows]
            }
            TrafficSpec::Multicast { src, dsts } => vec![vec![FlowSpec {
                src: *src,
                dsts: dsts.clone(),
                packets,
            }]],
        }
    }
}

/// All reachable ordered pairs of a topology, in node order — the one
/// definition of "reachable pair" shared by pair sampling and the
/// traffic models. Materializes the full list (O(n²) on connected
/// topologies); consumers that only *sample* pairs should use
/// [`crate::pairs::PairPool`] and stay O(n).
pub(crate) fn reachable_pairs(topo: &Topology) -> Vec<(NodeId, NodeId)> {
    crate::pairs::PairPool::new(topo).materialize()
}

/// Deterministically samples `count` distinct reachable ordered pairs.
pub fn random_pairs(topo: &Topology, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut all = reachable_pairs(topo);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    all.shuffle(&mut rng);
    all.truncate(count);
    all
}

/// A parameter grid swept by a scenario; each sweep point is a full
/// (protocol × seed × flow-set) sub-grid.
#[derive(Clone, Debug)]
pub enum Sweep {
    /// Transfer sizes.
    Packets(Vec<usize>),
    /// Batch sizes (Fig 4-7).
    K(Vec<usize>),
    /// Data bit-rates (Fig 4-6 uses a fixed one; sweeps compare).
    Bitrate(Vec<Bitrate>),
    /// Loss scaling applied to the topology (see [`scale_loss`]).
    LossScale(Vec<f64>),
    /// Concurrent random flow counts (Fig 4-5).
    Flows(Vec<usize>),
    /// Channel models (static vs bursty vs shadowed air; the numeric
    /// sweep value is the point's index, the record's `channel` key
    /// carries the spec label).
    Channel(Vec<ChannelSpec>),
    /// Offered-load sweep: flow arrival rates (flows/s) applied to a
    /// [`crate::TrafficModelSpec::Poisson`] traffic model — the classic
    /// offered-load-vs-throughput construction.
    Load(Vec<f64>),
    /// Queue disciplines (unbounded vs DropTail vs RED vs CHOKe; the
    /// numeric sweep value is the point's index, the record's `queue`
    /// key carries the spec label).
    Queue(Vec<QueueSpec>),
}

impl Sweep {
    /// The record's `param` key for this sweep axis.
    pub fn label(&self) -> &'static str {
        match self {
            Sweep::Packets(_) => "packets",
            Sweep::K(_) => "k",
            Sweep::Bitrate(_) => "bitrate",
            Sweep::LossScale(_) => "loss_scale",
            Sweep::Flows(_) => "flows",
            Sweep::Channel(_) => "channel",
            Sweep::Load(_) => "load",
            Sweep::Queue(_) => "queue",
        }
    }

    /// Number of sweep points.
    pub fn len(&self) -> usize {
        match self {
            Sweep::Packets(v) => v.len(),
            Sweep::K(v) => v.len(),
            Sweep::Bitrate(v) => v.len(),
            Sweep::LossScale(v) => v.len(),
            Sweep::Flows(v) => v.len(),
            Sweep::Channel(v) => v.len(),
            Sweep::Load(v) => v.len(),
            Sweep::Queue(v) => v.len(),
        }
    }

    /// No sweep points at all?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Numeric value of point `i` (bitrates report Mb/s).
    pub fn value(&self, i: usize) -> f64 {
        match self {
            Sweep::Packets(v) => v[i] as f64,
            Sweep::K(v) => v[i] as f64,
            Sweep::Bitrate(v) => v[i].bits_per_us(),
            Sweep::LossScale(v) => v[i],
            Sweep::Flows(v) => v[i] as f64,
            Sweep::Channel(_) => i as f64,
            Sweep::Load(v) => v[i],
            Sweep::Queue(_) => i as f64,
        }
    }
}

/// The traffic model sweep point `i` runs: `base` with the swept
/// parameter substituted ([`Sweep::Flows`] sets the flow count,
/// [`Sweep::Load`] the Poisson arrival rate), `base` itself under every
/// other axis.
pub(crate) fn swept_traffic(
    sweep: &Sweep,
    i: usize,
    base: &TrafficModelSpec,
) -> Result<TrafficModelSpec, BuildError> {
    match (sweep, base) {
        (
            Sweep::Flows(v),
            TrafficModelSpec::Static(TrafficSpec::RandomConcurrent {
                seed_offset,
                distinct_sources,
                ..
            }),
        ) => Ok(TrafficModelSpec::Static(TrafficSpec::RandomConcurrent {
            n_flows: v[i],
            seed_offset: *seed_offset,
            distinct_sources: *distinct_sources,
        })),
        (
            Sweep::Flows(v),
            TrafficModelSpec::Staggered {
                gap_ms, hold_ms, ..
            },
        ) => Ok(TrafficModelSpec::Staggered {
            n_flows: v[i],
            gap_ms: *gap_ms,
            hold_ms: *hold_ms,
        }),
        (Sweep::Flows(_), other) => Err(BuildError::Unsupported(format!(
            "Sweep::Flows requires TrafficSpec::RandomConcurrent or \
             TrafficModelSpec::Staggered traffic, got {other:?}"
        ))),
        (
            Sweep::Load(v),
            TrafficModelSpec::Poisson {
                mean_hold_s,
                max_active,
                ..
            },
        ) => Ok(TrafficModelSpec::Poisson {
            rate_per_s: v[i],
            mean_hold_s: *mean_hold_s,
            max_active: *max_active,
        }),
        (Sweep::Load(_), other) => Err(BuildError::Unsupported(format!(
            "Sweep::Load sweeps the arrival rate of TrafficModelSpec::Poisson \
             traffic, got {other:?}"
        ))),
        _ => Ok(base.clone()),
    }
}

#[cfg(test)]
mod test {
    use super::*;

    #[test]
    fn random_pairs_are_deterministic_and_reachable() {
        let topo = generate::testbed(2);
        let a = random_pairs(&topo, 30, 7);
        let b = random_pairs(&topo, 30, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 30);
        for (s, d) in a {
            assert_ne!(s, d);
            assert!(topo.hop_count(s, d).is_some());
        }
    }

    #[test]
    fn loss_scaling_bounds() {
        let topo = generate::testbed(1);
        let perfect = scale_loss(&topo, 0.0);
        let worse = scale_loss(&topo, 2.0);
        for l in topo.links() {
            assert_eq!(perfect.delivery(l.from, l.to), 1.0);
            let w = worse.delivery(l.from, l.to);
            assert!(w <= l.delivery + 1e-12, "loss must not shrink");
            assert!((0.0..=1.0).contains(&w));
        }
        // Identity preserves the matrix.
        let same = scale_loss(&topo, 1.0);
        for l in topo.links() {
            assert!((same.delivery(l.from, l.to) - l.delivery).abs() < 1e-12);
        }
        // A factor that clamps a link's delivery to 0 removes the link.
        let gone = scale_loss(&topo, 1e9);
        assert_eq!(gone.link_count(), 0);
        assert_eq!(gone.positions(), topo.positions());
    }

    #[test]
    fn loss_scaling_maps_links_without_densifying() {
        // 2 000 nodes would be a 32 MB matrix; the sparse map touches
        // only the ~20 000 links and keeps name suffix and positions.
        let topo = generate::city_mesh(2000, 4);
        let same = scale_loss(&topo, 1.0);
        assert_eq!(same.link_count(), topo.link_count());
        for (a, b) in topo.links().zip(same.links()) {
            assert_eq!((a.from, a.to), (b.from, b.to));
            assert!((a.delivery - b.delivery).abs() < 1e-12, "{a:?} vs {b:?}");
        }
        assert_eq!(same.positions(), topo.positions());
        assert_eq!(same.name, format!("{}*loss1", topo.name));
    }

    /// Two disconnected cliques: pairs across the gap are unreachable.
    fn split_topology() -> Topology {
        let mut m = vec![vec![0.0; 4]; 4];
        m[0][1] = 0.9;
        m[1][0] = 0.9;
        m[2][3] = 0.9;
        m[3][2] = 0.9;
        Topology::from_matrix("split", m)
    }

    #[test]
    fn random_pairs_skips_unreachable_pairs_and_truncates() {
        let topo = split_topology();
        // 4 nodes → 12 ordered pairs, but only 4 are reachable; asking
        // for more must yield every reachable pair, never an unreachable
        // one, and never panic.
        let pairs = random_pairs(&topo, 100, 3);
        assert_eq!(pairs.len(), 4, "only the intra-component pairs exist");
        for (s, d) in &pairs {
            assert!(topo.hop_count(*s, *d).is_some(), "{s}->{d} unreachable");
        }
        let sets = TrafficSpec::RandomPairs {
            count: 100,
            seed: 3,
        }
        .flow_sets(&topo, 1, 16);
        assert_eq!(sets.len(), 4);
    }

    #[test]
    #[should_panic(expected = "cannot host")]
    fn random_concurrent_infeasible_distinct_sources_panics_clearly() {
        // 3 hops of line: 4 nodes, so at most 4 distinct sources exist
        // (fewer with distinct reachable targets); asking for 5 is
        // impossible and must fail loudly, not silently under-provision.
        let topo = generate::line(3, 0.9, 0.3, 25.0);
        let spec = TrafficSpec::RandomConcurrent {
            n_flows: 5,
            seed_offset: 0,
            distinct_sources: true,
        };
        let _ = spec.flow_sets(&topo, 1, 16);
    }

    #[test]
    fn random_concurrent_depends_on_run_seed() {
        let topo = generate::testbed(1);
        let spec = TrafficSpec::RandomConcurrent {
            n_flows: 3,
            seed_offset: 1000,
            distinct_sources: true,
        };
        let a = spec.flow_sets(&topo, 1, 64);
        let b = spec.flow_sets(&topo, 1, 64);
        let c = spec.flow_sets(&topo, 2, 64);
        assert_eq!(a, b, "same run seed, same flows");
        assert_ne!(a, c, "different run seed, different flows");
        assert_eq!(a[0].len(), 3);
        let sources: BTreeSet<NodeId> = a[0].iter().map(|f| f.src).collect();
        assert_eq!(sources.len(), 3, "distinct sources");
    }
}
