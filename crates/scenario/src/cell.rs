//! Cell execution: one (protocol, sweep point, seed) cell of a scenario
//! grid, run flow set by flow set.
//!
//! `Cells` is what every cell of one sweep shares, the one topology the
//! builder instantiated before the grid among it. A [`Cell`] is one flow
//! set ready to run. [`ProtocolFactory::run`] turns it into a record by
//! handing an agent to the generic [`Cell::run`], so the built-in
//! protocols run as a monomorphic `Simulator<MoreAgent>` (or ExOR's, or
//! Srcr's) with no payload erasure per frame; a factory that implements
//! only [`ProtocolFactory::build`] runs the same path with its boxed,
//! erased agent.

use crate::pairs::PairPool;
use crate::protocols::reject_multicast;
use crate::record::{time_to_s, FlowRecord, RunRecord};
use crate::registry::{BuildError, ProtocolFactory};
use crate::spec::{ExpConfig, Point};
use crate::traffic::{flow_windows, validate_schedule, FlowWindow};
use mesh_sim::{
    AimdConfig, FlowAgent, FlowProgressView, SimConfig, SimStats, Simulator, Time, TrafficAction,
    SEC, TICK,
};
use mesh_topology::estimator::LinkEstimator;
use mesh_topology::Topology;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// What every cell of one sweep shares.
pub(crate) struct Cells<'a> {
    /// The scenario's name, copied into every record.
    pub(crate) scenario: &'a str,
    /// The sweep's one topology: the air every cell's medium follows.
    pub(crate) topo: &'a Topology,
    /// The builder's experiment parameters; a cell substitutes its seed
    /// and its point's batch size.
    pub(crate) base: ExpConfig,
    /// Source pacing, applied at points with a bounded queue.
    pub(crate) congestion: Option<AimdConfig>,
    /// The probe window routing is estimated over, if it is not the truth.
    pub(crate) probe: Option<&'a (LinkEstimator, u64)>,
    /// Probed routing beliefs depend only on (point index, seed), never on
    /// the protocol, so the protocols share one probe window.
    pub(crate) probe_cache: Mutex<BTreeMap<(usize, u64), Topology>>,
}

impl Cells<'_> {
    /// Runs every flow set of one (protocol, sweep point, seed) cell;
    /// `point` is the grid's point number `point_index`.
    pub(crate) fn run_cell(
        &self,
        protocol: &str,
        factory: &dyn ProtocolFactory,
        point_index: usize,
        point: &Point,
        seed: u64,
    ) -> Result<Vec<RunRecord>, BuildError> {
        let cfg = ExpConfig {
            seed,
            k: point.k,
            ..self.base
        };
        let topo = self.topo;
        let believed = self.believed(point_index, point, seed);
        let routing = believed.as_ref().unwrap_or(topo);

        let horizon = cfg.deadline_s * SEC;
        // Who reaches whom in the topology routing sees, labelled once for
        // every flow set of the cell.
        let pool = PairPool::new(routing);
        let model = point.traffic.build();
        let schedules = model.schedules(topo, seed, cfg.packets, horizon);
        let mut records = Vec::with_capacity(schedules.len());
        for (traffic_index, schedule) in schedules.into_iter().enumerate() {
            // A misbehaving Custom model (Stop for an unknown flow, Stop
            // before its Start, events past the horizon) must surface as
            // a BuildError from the grid, not a panic inside a worker
            // thread; the built-ins satisfy this by construction.
            validate_schedule(&schedule, horizon).map_err(|e| {
                BuildError::InvalidSchedule(format!("traffic model {:?}: {e}", point.traffic))
            })?;
            let windows = flow_windows(&schedule);
            // Degenerate endpoints — out-of-range nodes, self-flows,
            // unreachable (src, dst) pairs on single-node or partitioned
            // meshes — must surface as grid errors, not ETX/EOTX panics
            // inside the factory.
            validate_endpoints(&pool, &windows)?;
            if !factory.supports_multicast() {
                reject_multicast(protocol, windows.iter().map(|w| &w.spec))?;
            }
            records.push(factory.run(Cell {
                cells: self,
                protocol,
                routing,
                windows: &windows,
                cfg,
                point,
                traffic_index,
            })?);
        }
        Ok(records)
    }

    /// Routing beliefs other than the truth: a probe-window estimate of
    /// the live channel when `probe_routing` is set (deterministic per
    /// (sweep point, seed), so protocols share one cached window; a losing
    /// racer recomputes the identical topology).
    #[expect(
        clippy::expect_used,
        reason = "the cache lock is poisoned only if another worker panicked holding it, which already fails the sweep"
    )]
    fn believed(&self, point_index: usize, point: &Point, seed: u64) -> Option<Topology> {
        let (est, interval) = self.probe?;
        let key = (point_index, seed);
        if let Some(t) = self.probe_cache.lock().expect("probe cache").get(&key) {
            return Some(t.clone());
        }
        let t = mesh_sim::channel::probe_topology(est, self.topo, &point.channel, seed, *interval);
        let cache = &mut self.probe_cache.lock().expect("probe cache");
        Some(cache.entry(key).or_insert(t).clone())
    }
}

/// One flow set of one grid cell, ready to run: the topologies, the flow
/// windows, the experiment parameters and the point. A
/// [`ProtocolFactory`] builds its agent, with no flows, from
/// [`Cell::topology`] and [`Cell::config`] and hands it to [`Cell::run`],
/// which installs every flow.
#[must_use]
pub struct Cell<'a> {
    cells: &'a Cells<'a>,
    protocol: &'a str,
    /// What routing believes: the grid's topology, or a probe estimate.
    routing: &'a Topology,
    windows: &'a [FlowWindow],
    cfg: ExpConfig,
    point: &'a Point,
    traffic_index: usize,
}

impl Cell<'_> {
    /// The topology routing sees: the truth, or the probe-window estimate
    /// under [`crate::ScenarioBuilder::probe_routing`].
    pub fn topology(&self) -> &Topology {
        self.routing
    }

    /// The run's experiment parameters: its seed and its point's batch
    /// size substituted into the builder's.
    pub fn config(&self) -> &ExpConfig {
        &self.cfg
    }

    /// Runs the flow set on `agent` — built with no flows — to completion
    /// or the deadline, and measures it.
    ///
    /// Every flow arrives as a scheduled [`TrafficAction::Start`] at its
    /// window's start, t = 0 included, and departs as a
    /// [`TrafficAction::Stop`] if its window has one; the flow at window
    /// `i` is the agent's `i`-th [`FlowAgent::add_flow`], so it carries
    /// [`mesh_sim::flow_id`]`(i)`. Per-flow arrival/departure/latency is
    /// recorded for dynamic schedules (`None` for static ones). The
    /// point's channel and queue apply; a bounded queue installs the
    /// queueing layer, and the builder's `congestion` then paces every
    /// flow's source as it arrives.
    pub fn run<A: FlowAgent>(self, agent: A) -> RunRecord {
        let windows = self.windows;
        let deadline = self.cfg.deadline_s * SEC;
        let sim_cfg = SimConfig {
            bitrate: self.cfg.bitrate,
            ..SimConfig::default()
        };
        let (chan, queue) = (&self.point.channel, &self.point.queue);
        let topo = self.cells.topo.clone();
        let mut sim = Simulator::with_queue(topo, sim_cfg, chan, queue, agent, self.cfg.seed);
        if let Some(cc) = self.cells.congestion.filter(|_| !queue.is_unbounded()) {
            sim.pace_all_flows(cc);
        }
        for (i, w) in windows.iter().enumerate() {
            sim.schedule_traffic(w.start, TrafficAction::Start(w.spec.clone()));
            if let Some(stop) = w.stop {
                sim.schedule_traffic(stop, TrafficAction::Stop(i));
            }
        }
        sim.run_until(deadline, |a: &A| a.flows_done());
        let progress = |i| sim.agent.flow_progress(i);
        let dynamic = windows.iter().any(|w| w.start > 0 || w.stop.is_some());
        self.record(&sim.stats, sim.now(), &progress, dynamic)
    }

    /// The run's record, from its statistics, its end instant and each
    /// window's flow progress.
    fn record(
        &self,
        stats: &SimStats,
        now: Time,
        progress: &dyn Fn(usize) -> FlowProgressView,
        dynamic: bool,
    ) -> RunRecord {
        let deadline = self.cfg.deadline_s * SEC;
        let concurrency = {
            let total = stats.total_airtime();
            if total == 0 {
                0.0
            } else {
                stats.concurrent_airtime as f64 / total as f64
            }
        };
        let flow_records = self
            .windows
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let p = progress(i);
                let start = w.start;
                let (throughput_pps, completed) = match p.completed_at {
                    Some(t) if t > start => (p.delivered as f64 / time_to_s(t - start), true),
                    _ => {
                        // Ran until departure or deadline without finishing.
                        // A zero-width active window — a Poisson arrival at
                        // the horizon edge, or a departure at the arrival
                        // instant — must report 0.0 (the flow was never
                        // active): a 0-width division would emit a
                        // non-finite value that poisons NaN-intolerant
                        // downstream stats. The TICK clamp is redundant
                        // while `Time` is integer µs (end > start implies
                        // ≥ 1 tick) — it pins the invariant against a
                        // finer-grained Time ever landing.
                        let end = w.stop.unwrap_or(deadline).min(deadline);
                        let tput = if end <= start {
                            0.0
                        } else {
                            p.delivered as f64 / time_to_s((end - start).max(TICK))
                        };
                        (tput, false)
                    }
                };
                FlowRecord {
                    src: w.spec.src,
                    dsts: w.spec.dsts.clone(),
                    delivered: p.delivered,
                    throughput_pps,
                    queue_drops: stats
                        .queue_drops_by_flow
                        .get(&mesh_sim::flow_id(i))
                        .copied()
                        .unwrap_or(0),
                    completed,
                    completed_at_s: p.completed_at.map(time_to_s),
                    started_at_s: dynamic.then(|| time_to_s(start)),
                    // A departure only counts if the flow had not already
                    // completed its budget when it fired.
                    stopped_at_s: w
                        .stop
                        .filter(|&s| p.completed_at.is_none_or(|t| t > s))
                        .map(time_to_s),
                    latency_s: if dynamic {
                        p.completed_at
                            .filter(|&t| t > start)
                            .map(|t| time_to_s(t - start))
                    } else {
                        None
                    },
                }
            })
            .collect::<Vec<FlowRecord>>();
        let throughputs: Vec<f64> = flow_records.iter().map(|f| f.throughput_pps).collect();
        RunRecord {
            scenario: self.cells.scenario.to_string(),
            protocol: self.protocol.to_string(),
            topology: self.cells.topo.name.clone(),
            channel: self.point.channel.label(),
            queue: self.point.queue.label(),
            param: self.point.param,
            value: self.point.value,
            seed: self.cfg.seed,
            traffic_index: self.traffic_index,
            flows: flow_records,
            total_tx: stats.total_tx(),
            queue_drops: stats.total_queue_drops(),
            fairness: mesh_metrics::fairness::jain(&throughputs),
            concurrency,
            sim_time_s: time_to_s(now),
        }
    }
}

/// Rejects flows no protocol can route: empty or repeating destination
/// lists, endpoints outside the topology, self-flows, and (src, dst)
/// pairs with no `p > 0` path in the routing topology `pool` indexes.
/// ETX/EOTX table and forwarder-plan extraction assume a finite-cost
/// path; without this check a degenerate single-node mesh, a partitioned
/// city layout, or a probe window that lost the last link to a
/// destination panics deep inside a worker thread instead of surfacing a
/// [`BuildError`] from the grid.
#[expect(
    clippy::indexing_slicing,
    reason = "i enumerates f.dsts, so f.dsts[..i] is in bounds"
)]
fn validate_endpoints(pool: &PairPool<'_>, windows: &[FlowWindow]) -> Result<(), BuildError> {
    let topo = pool.topo;
    let n = topo.n();
    for f in windows.iter().map(|w| &w.spec) {
        if f.src.0 >= n {
            return Err(BuildError::Unsupported(format!(
                "flow source {} is outside topology {} ({n} nodes)",
                f.src, topo.name
            )));
        }
        if f.dsts.is_empty() {
            return Err(BuildError::Unsupported(format!(
                "flow from {} has no destination",
                f.src
            )));
        }
        for (i, &d) in f.dsts.iter().enumerate() {
            if f.dsts[..i].contains(&d) {
                return Err(BuildError::Unsupported(format!(
                    "flow {} -> {:?} lists destination {d} twice",
                    f.src, f.dsts
                )));
            }
            if d.0 >= n {
                return Err(BuildError::Unsupported(format!(
                    "flow destination {d} is outside topology {} ({n} nodes)",
                    topo.name
                )));
            }
            if d == f.src {
                return Err(BuildError::Unsupported(format!(
                    "flow {} -> {d} sends to its own source; routing metrics \
                     are undefined for self-flows",
                    f.src
                )));
            }
            if !pool.reaches(f.src, d) {
                return Err(BuildError::Unsupported(format!(
                    "destination {d} is unreachable from source {} in topology \
                     {}; no p > 0 path exists for route extraction",
                    f.src, topo.name
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod test {
    use super::*;
    use crate::spec::FlowSpec;
    use mesh_topology::{Link, NodeId};

    /// An `n`-node topology from `(from, to, p)` triples.
    fn topo(name: &str, n: usize, links: &[(usize, usize, f64)]) -> Topology {
        let links = links.iter().map(|&(from, to, delivery)| Link {
            from: NodeId(from),
            to: NodeId(to),
            delivery,
        });
        Topology::from_links(name, n, links.collect())
    }

    #[test]
    fn endpoint_errors_come_in_window_order_whatever_the_link_symmetry() {
        // The pool answers from component labels under symmetric support
        // and from per-source searches otherwise; the error reported must
        // be the earliest window's, and within it the earliest check's.
        // 0 -> 1 -> 2 -> 3, no way back.
        let one_way = topo("one-way", 4, &[(0, 1, 0.9), (1, 2, 0.9), (2, 3, 0.9)]);
        // Two disconnected 2-cliques.
        let split = topo(
            "split",
            4,
            &[(0, 1, 0.9), (1, 0, 0.9), (2, 3, 0.9), (3, 2, 0.9)],
        );
        let window = |src: usize, dsts: &[usize]| FlowWindow {
            spec: FlowSpec {
                src: NodeId(src),
                dsts: dsts.iter().map(|&d| NodeId(d)).collect(),
                packets: 4,
            },
            start: 0,
            stop: None,
        };
        fn validate(topo: &Topology, windows: &[FlowWindow]) -> Result<(), BuildError> {
            validate_endpoints(&PairPool::new(topo), windows)
        }
        let first_error = |topo: &Topology, windows: &[FlowWindow]| match validate(topo, windows) {
            Err(BuildError::Unsupported(msg)) => msg,
            other => panic!("expected Unsupported, got {other:?}"),
        };
        // Against one BFS per window, the plain reading of the contract.
        let reference = |topo: &Topology, windows: &[FlowWindow]| {
            windows.iter().all(|w| {
                w.spec.src.0 < topo.n()
                    && w.spec.dsts.iter().all(|d| {
                        let hops = topo.hops_from(w.spec.src);
                        *d != w.spec.src && hops.get(d.0).is_some_and(Option::is_some)
                    })
            })
        };
        for topo in [&one_way, &split] {
            for src in 0..4 {
                for dst in 0..4 {
                    let w = [window(2, &[3]), window(src, &[dst]), window(2, &[3])];
                    assert_eq!(
                        validate(topo, &w).is_ok(),
                        reference(topo, &w),
                        "{}: {src} -> {dst}",
                        topo.name
                    );
                }
            }
        }
        // Sources interleaved: 3 sorts last, but its window comes first.
        let w = [
            window(0, &[3]),
            window(3, &[0]),
            window(1, &[0]),
            window(3, &[2]),
        ];
        let msg = first_error(&one_way, &w);
        assert!(
            msg.contains("destination n0 is unreachable from source n3"),
            "{msg}"
        );
        // An unreachable destination listed before an out-of-range one,
        // behind a later window whose source does not exist.
        let w = [window(0, &[1]), window(2, &[0, 9]), window(7, &[0])];
        let msg = first_error(&one_way, &w);
        assert!(
            msg.contains("destination n0 is unreachable from source n2"),
            "{msg}"
        );
        let msg = first_error(&one_way, &w[2..]);
        assert!(msg.contains("flow source n7 is outside"), "{msg}");
        let msg = first_error(&split, &[window(0, &[1, 9]), window(0, &[2])]);
        assert!(msg.contains("flow destination n9 is outside"), "{msg}");
    }
}
