//! A *staged replica* of the scenario engine's `run_cell` / `run_one`,
//! built only from public functions of the layers.
//!
//! The builder runs a cell as one opaque call; this module makes the same
//! calls in the same order with a span around each, so a traced pass can
//! say which layer the time went to, and a set-up-only pass can stop just
//! before `run_with_traffic`. It handles what the four workloads use (no
//! sweep, no probed routing), not the whole builder surface. `ledger trace`
//! refuses to report unless this replica's digest equals the builder
//! path's — otherwise the per-layer numbers would describe a different
//! program.

use crate::digest::DigestSink;
use crate::span::Tracer;
use crate::workloads::Grid;
use mesh_sim::{
    ErasedFlowAgent, FlowDesc, SimConfig, SimStats, Simulator, Time, TrafficAction, SEC, TICK,
};
use mesh_topology::Topology;
use more_scenario::record::time_to_s;
use more_scenario::{
    validate_schedule, BuildError, ExpConfig, FlowEvent, FlowRecord, FlowSpec, ProtocolFactory,
    RunRecord,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// How far each run of a cell is taken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Depth {
    /// Build everything up to — excluding — `run_with_traffic`, then drop it.
    SetupOnly,
    /// Run to completion and emit the record.
    Full,
}

/// What the engine counted during one staged run, with its host cost.
#[derive(Clone, Debug)]
pub struct RunObs {
    /// Index into [`Grid::protocols`].
    pub proto: usize,
    /// Host nanoseconds inside `run_with_traffic` (0 untraced).
    pub run_ns: u64,
    /// The simulator's counters at exit.
    pub stats: SimStats,
}

/// One flow's lifetime within a schedule (the builder's private
/// `FlowWindow`, rebuilt from the public event list).
struct Window {
    spec: FlowSpec,
    start: Time,
    stop: Option<Time>,
}

fn windows_of(schedule: &[FlowEvent]) -> Vec<Window> {
    let mut windows: Vec<Window> = Vec::new();
    for ev in schedule {
        match ev {
            FlowEvent::Start { flow, at } => windows.push(Window {
                spec: flow.clone(),
                start: *at,
                stop: None,
            }),
            FlowEvent::Stop { flow, at } => {
                // validate_schedule ran first: the Start exists.
                windows[*flow].stop = Some(*at);
            }
        }
    }
    windows
}

/// The builder's endpoint check: one BFS per distinct source.
fn validate_endpoints(topo: &Topology, windows: &[Window]) -> Result<(), BuildError> {
    let mut reach: BTreeMap<usize, Vec<Option<usize>>> = BTreeMap::new();
    for w in windows {
        let f = &w.spec;
        let bad = |what: &str| BuildError::Unsupported(format!("flow {f:?}: {what}"));
        if f.src.0 >= topo.n() {
            return Err(bad("source outside the topology"));
        }
        let hops = reach
            .entry(f.src.0)
            .or_insert_with(|| topo.hops_from(f.src));
        for &d in &f.dsts {
            if d.0 >= topo.n() || d == f.src {
                return Err(bad(
                    "destination outside the topology or equal to the source",
                ));
            }
            if hops[d.0].is_none() {
                return Err(bad("destination unreachable"));
            }
        }
    }
    Ok(())
}

/// The grid's factories, resolved once (as the builder does up front).
fn factories(grid: &Grid) -> Result<Vec<Arc<dyn ProtocolFactory>>, BuildError> {
    grid.protocols
        .iter()
        .map(|name| grid.registry.resolve(name))
        .collect()
}

/// What a staged pass produced.
pub struct Staged {
    /// The spans (none when untraced).
    pub tracer: Tracer,
    /// Digest, run and failure counts of the `Full` records.
    pub sink: DigestSink,
    /// Engine counters of every `Full` run, in grid order.
    pub obs: Vec<RunObs>,
}

/// Runs every cell of `grid` in grid order (protocol × seed).
pub fn pass(grid: &Grid, depth: Depth, traced: bool) -> Result<Staged, BuildError> {
    let mut staged = Staged {
        tracer: if traced { Tracer::on() } else { Tracer::off() },
        sink: DigestSink::new(grid.exp.packets, grid.require_complete),
        obs: Vec::new(),
    };
    let mut cell = 0;
    for (proto, factory) in factories(grid)?.iter().enumerate() {
        for &seed in &grid.seeds {
            stage_cell(
                grid,
                proto,
                factory.as_ref(),
                seed,
                cell,
                depth,
                &mut staged,
            )?;
            cell += 1;
        }
    }
    Ok(staged)
}

#[allow(clippy::borrowed_box)] // run_with_traffic's stop callback receives &A = &Box<dyn _>
fn stage_cell(
    grid: &Grid,
    proto: usize,
    factory: &dyn ProtocolFactory,
    seed: u64,
    cell: usize,
    depth: Depth,
    staged: &mut Staged,
) -> Result<(), BuildError> {
    let Staged { tracer, sink, obs } = staged;
    let root = tracer.open("scenario.cell", None, cell);
    let cfg = ExpConfig { seed, ..grid.exp };
    let sim_cfg = SimConfig {
        bitrate: cfg.bitrate,
        ..SimConfig::default()
    };

    let s = tracer.open("mesh_topology.instantiate", Some(root), cell);
    let topo = grid.topology.instantiate(seed);
    tracer.close(s);

    let s = tracer.open("scenario.validate", Some(root), cell);
    grid.channel
        .validate(&topo)
        .map_err(BuildError::Unsupported)?;
    grid.queue.validate().map_err(BuildError::InvalidQueue)?;
    grid.traffic
        .validate_for(&topo)
        .map_err(BuildError::Unsupported)?;
    tracer.close(s);

    let horizon = cfg.deadline_s * SEC;
    let s = tracer.open("scenario.schedule", Some(root), cell);
    let schedules = grid
        .traffic
        .build()
        .schedules(&topo, seed, cfg.packets, horizon);
    tracer.close(s);

    for (traffic_index, schedule) in schedules.into_iter().enumerate() {
        let run = tracer.open("scenario.run_one", Some(root), cell);
        let s = tracer.open("scenario.windows", Some(run), cell);
        validate_schedule(&schedule, horizon).map_err(BuildError::InvalidSchedule)?;
        let windows = windows_of(&schedule);
        validate_endpoints(&topo, &windows)?;
        let initial: Vec<FlowSpec> = windows
            .iter()
            .filter(|w| w.start == 0)
            .map(|w| w.spec.clone())
            .collect();
        tracer.close(s);

        let s = tracer.open("agent.build", Some(run), cell);
        let agent = factory.build(&topo, &initial, &cfg)?;
        tracer.close(s);
        let dynamic = windows.iter().any(|w| w.start > 0 || w.stop.is_some());
        if dynamic && !agent.supports_dynamic_flows() {
            return Err(BuildError::Unsupported(format!(
                "{} has no dynamic flow lifecycle",
                factory.name()
            )));
        }

        let s = tracer.open("mesh_sim.new", Some(run), cell);
        let mut sim = Simulator::with_queue(
            topo.clone(),
            sim_cfg,
            &grid.channel,
            &grid.queue,
            agent,
            cfg.seed,
        );
        tracer.close(s);

        let s = tracer.open("mesh_sim.kick", Some(run), cell);
        arm(&mut sim, grid, &windows);
        tracer.close(s);

        if depth == Depth::Full {
            let deadline = cfg.deadline_s * SEC;
            let s = tracer.open("mesh_sim.run", Some(run), cell);
            sim.run_with_traffic(deadline, |a: &Box<dyn ErasedFlowAgent>| a.flows_done());
            let run_ns = tracer.close(s);

            let s = tracer.open("scenario.record", Some(run), cell);
            let record = record_of(
                grid,
                factory.name(),
                &topo,
                &windows,
                dynamic,
                &cfg,
                &sim,
                traffic_index,
            );
            sink.observe(&record);
            tracer.close(s);
            obs.push(RunObs {
                proto,
                run_ns,
                stats: sim.stats.clone(),
            });
        }
        let s = tracer.open("mesh_sim.drop", Some(run), cell);
        drop(sim);
        tracer.close(s);
        tracer.close(run);
    }
    tracer.close(root);
    Ok(())
}

/// Pacing, kicks and the traffic queue — `run_one` up to the run itself.
fn arm(sim: &mut Simulator<Box<dyn ErasedFlowAgent>>, grid: &Grid, windows: &[Window]) {
    if let Some(cc) = grid.congestion.filter(|_| !grid.queue.is_unbounded()) {
        for (i, w) in windows.iter().enumerate() {
            if w.start == 0 {
                sim.pace_flow(i as u32 + 1, w.spec.src, cc);
            }
        }
        sim.pace_all_flows(cc);
    }
    for (i, w) in windows.iter().enumerate() {
        if w.start == 0 {
            sim.kick(w.spec.src);
        } else {
            sim.schedule_traffic(
                w.start,
                TrafficAction::Start(FlowDesc {
                    src: w.spec.src,
                    dsts: w.spec.dsts.clone(),
                    packets: w.spec.packets,
                }),
            );
        }
        if let Some(stop) = w.stop {
            sim.schedule_traffic(stop, TrafficAction::Stop(i));
        }
    }
}

/// The measurement half of `run_one`.
#[allow(clippy::too_many_arguments)]
fn record_of(
    grid: &Grid,
    protocol: &str,
    topo: &Topology,
    windows: &[Window],
    dynamic: bool,
    cfg: &ExpConfig,
    sim: &Simulator<Box<dyn ErasedFlowAgent>>,
    traffic_index: usize,
) -> RunRecord {
    let deadline = cfg.deadline_s * SEC;
    let flows: Vec<FlowRecord> = windows
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let p = sim.agent.flow_progress(i);
            let start = w.start;
            let (throughput_pps, completed) = match p.completed_at {
                Some(t) if t > start => (p.delivered as f64 / time_to_s(t - start), true),
                _ => {
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
                queue_drops: sim
                    .stats
                    .queue_drops_by_flow
                    .get(&(i as u32 + 1))
                    .copied()
                    .unwrap_or(0),
                completed,
                completed_at_s: p.completed_at.map(time_to_s),
                started_at_s: dynamic.then(|| time_to_s(start)),
                stopped_at_s: w
                    .stop
                    .filter(|&s| p.completed_at.is_none_or(|t| t > s))
                    .map(time_to_s),
                latency_s: p
                    .completed_at
                    .filter(|&t| dynamic && t > start)
                    .map(|t| time_to_s(t - start)),
            }
        })
        .collect();
    let throughputs: Vec<f64> = flows.iter().map(|f| f.throughput_pps).collect();
    let airtime = sim.stats.total_airtime();
    RunRecord {
        scenario: grid.name.to_string(),
        protocol: protocol.to_string(),
        topology: topo.name.clone(),
        channel: grid.channel.label(),
        queue: grid.queue.label(),
        param: None,
        value: None,
        seed: cfg.seed,
        traffic_index,
        flows,
        total_tx: sim.stats.total_tx(),
        queue_drops: sim.stats.total_queue_drops(),
        fairness: mesh_metrics::fairness::jain(&throughputs),
        concurrency: if airtime == 0 {
            0.0
        } else {
            sim.stats.concurrent_airtime as f64 / airtime as f64
        },
        sim_time_s: time_to_s(sim.now()),
    }
}
