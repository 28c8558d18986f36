//! Declarative scenario ingredients: topology, traffic, parameters, and
//! sweeps.

use crate::registry::BuildError;
use crate::traffic::{PoissonModel, TrafficModelSpec};
use mesh_sim::{Bitrate, ChannelSpec, QueueSpec};
use mesh_topology::streams::{self, Stream};
use mesh_topology::{generate, NodeId, Topology};
use rand::seq::SliceRandom;
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

/// How the topology of a run is produced. Other generators in
/// [`mesh_topology::generate`] run through [`TopologySpec::Fixed`].
#[derive(Clone)]
pub enum TopologySpec {
    /// The 20-node, 3-floor testbed generator (Fig 4-1), by seed.
    Testbed {
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
    /// A city-scale sparse mesh (single floor, ~1250 m² per node) with
    /// per-pair link streams — the 10k-node scaling workload. It never
    /// materializes a dense matrix and never retries for connectivity.
    City {
        /// Node count.
        n: usize,
        /// Placement/link seed.
        seed: u64,
    },
    /// A fixed, caller-supplied topology.
    Fixed(Arc<Topology>),
}

impl std::fmt::Debug for TopologySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologySpec::Testbed { seed } => write!(f, "Testbed{{seed:{seed}}}"),
            TopologySpec::Line { hops, .. } => write!(f, "Line{{hops:{hops}}}"),
            TopologySpec::City { n, seed } => write!(f, "City{{n:{n},seed:{seed}}}"),
            TopologySpec::Fixed(t) => write!(f, "Fixed({})", t.name),
        }
    }
}

impl TopologySpec {
    /// Builds the topology. No variant depends on the run seed, so the
    /// scenario builder calls this once per sweep and every cell borrows
    /// the result; `_run_seed` stays in the signature because the
    /// benchmark's staged replica of the cell runner
    /// (`ledger/benches/staged.rs`) calls it once per cell.
    pub fn instantiate(&self, _run_seed: u64) -> Topology {
        match self {
            TopologySpec::Testbed { seed } => generate::testbed(*seed),
            TopologySpec::Line {
                hops,
                p_adj,
                skip_decay,
                spacing,
            } => generate::line(*hops, *p_adj, *skip_decay, *spacing),
            TopologySpec::City { n, seed } => generate::city_mesh(*n, *seed),
            TopologySpec::Fixed(t) => (**t).clone(),
        }
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

/// Deterministically samples `count` distinct reachable ordered pairs.
/// Materializes every reachable pair (O(n²) on connected topologies);
/// the traffic models that only sample pairs index a crate-private
/// `PairPool` and stay O(n).
pub fn random_pairs(topo: &Topology, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut all = crate::pairs::PairPool::new(topo).materialize();
    let mut rng = streams::rng(seed, Stream::Run);
    all.shuffle(&mut rng);
    all.truncate(count);
    all
}

/// A parameter grid swept by a scenario; each sweep point is a full
/// (protocol × seed × flow-set) sub-grid.
#[derive(Clone, Debug)]
pub enum Sweep {
    /// Batch sizes (Fig 4-7).
    K(Vec<usize>),
    /// Concurrent random flow counts (Fig 4-5).
    Flows(Vec<usize>),
    /// Channel models (static vs bursty air; the numeric
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

/// One point of a scenario's grid: the settings its cells run — the
/// builder's, with the swept one substituted — and the record's
/// `param` / `value` coordinate (`None` without a sweep).
#[derive(Clone)]
pub(crate) struct Point {
    pub(crate) k: usize,
    pub(crate) channel: ChannelSpec,
    pub(crate) queue: QueueSpec,
    pub(crate) traffic: TrafficModelSpec,
    pub(crate) param: Option<&'static str>,
    pub(crate) value: Option<f64>,
}

impl Sweep {
    /// Expands the sweep over `base`, one point per swept value: [`Sweep::K`]
    /// sets the batch size, [`Sweep::Flows`] the flow count of
    /// [`TrafficSpec::RandomConcurrent`] traffic, [`Sweep::Load`] the
    /// arrival rate of [`TrafficModelSpec::Poisson`] traffic, and
    /// [`Sweep::Channel`] / [`Sweep::Queue`] the whole spec, whose value is
    /// the point's index. `base`'s own value of the swept setting never
    /// runs. Flows or Load over any other traffic is an error, and so is
    /// a sweep without points.
    pub(crate) fn points(&self, base: &Point) -> Result<Vec<Point>, BuildError> {
        let at = |param, value| Point {
            param: Some(param),
            value: Some(value),
            ..base.clone()
        };
        let points: Vec<Point> = match self {
            Sweep::K(v) => v
                .iter()
                .map(|&k| Point {
                    k,
                    ..at("k", k as f64)
                })
                .collect(),
            Sweep::Flows(v) => {
                let TrafficModelSpec::Static(TrafficSpec::RandomConcurrent {
                    seed_offset,
                    distinct_sources,
                    ..
                }) = base.traffic
                else {
                    return Err(BuildError::Unsupported(format!(
                        "Sweep::Flows requires TrafficSpec::RandomConcurrent traffic, got {:?}",
                        base.traffic
                    )));
                };
                v.iter()
                    .map(|&n_flows| Point {
                        traffic: TrafficModelSpec::Static(TrafficSpec::RandomConcurrent {
                            n_flows,
                            seed_offset,
                            distinct_sources,
                        }),
                        ..at("flows", n_flows as f64)
                    })
                    .collect()
            }
            Sweep::Channel(v) => (v.iter().enumerate())
                .map(|(i, channel)| Point {
                    channel: channel.clone(),
                    ..at("channel", i as f64)
                })
                .collect(),
            Sweep::Load(v) => {
                let TrafficModelSpec::Poisson(m) = base.traffic else {
                    return Err(BuildError::Unsupported(format!(
                        "Sweep::Load sweeps the arrival rate of TrafficModelSpec::Poisson \
                         traffic, got {:?}",
                        base.traffic
                    )));
                };
                v.iter()
                    .map(|&rate_per_s| Point {
                        traffic: TrafficModelSpec::Poisson(PoissonModel { rate_per_s, ..m }),
                        ..at("load", rate_per_s)
                    })
                    .collect()
            }
            Sweep::Queue(v) => (v.iter().enumerate())
                .map(|(i, queue)| Point {
                    queue: queue.clone(),
                    ..at("queue", i as f64)
                })
                .collect(),
        };
        if points.is_empty() {
            return Err(BuildError::Unsupported(
                "a sweep needs at least one point".into(),
            ));
        }
        Ok(points)
    }
}

#[cfg(test)]
mod test {
    use super::*;

    /// An `n`-node topology from `(from, to, p)` triples.
    fn topo(name: &str, n: usize, links: &[(usize, usize, f64)]) -> mesh_topology::Topology {
        let links = links
            .iter()
            .map(|&(from, to, delivery)| mesh_topology::Link {
                from: mesh_topology::NodeId(from),
                to: mesh_topology::NodeId(to),
                delivery,
            });
        mesh_topology::Topology::from_links(name, n, links.collect())
    }

    #[test]
    fn random_pairs_are_deterministic_and_reachable() {
        let topo = generate::testbed(2);
        let a = random_pairs(&topo, 30, 7);
        let b = random_pairs(&topo, 30, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 30);
        for (s, d) in a {
            assert_ne!(s, d);
            assert!(topo.hops_from(s)[d.0].is_some());
        }
    }

    /// Two disconnected cliques: pairs across the gap are unreachable.
    fn split_topology() -> Topology {
        topo(
            "split",
            4,
            &[(0, 1, 0.9), (1, 0, 0.9), (2, 3, 0.9), (3, 2, 0.9)],
        )
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
            assert!(topo.hops_from(*s)[d.0].is_some(), "{s}->{d} unreachable");
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
    fn no_topology_depends_on_the_run_seed() {
        // The builder instantiates once per sweep and every cell borrows
        // that one instance, whatever its seed.
        for spec in [
            TopologySpec::Testbed { seed: 3 },
            TopologySpec::Line {
                hops: 4,
                p_adj: 0.9,
                skip_decay: 0.3,
                spacing: 25.0,
            },
            TopologySpec::City { n: 200, seed: 5 },
            TopologySpec::Fixed(Arc::new(split_topology())),
        ] {
            let (a, b) = (spec.instantiate(1), spec.instantiate(u64::MAX));
            assert!(a.n() > 0, "{spec:?}");
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{spec:?}");
        }
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
