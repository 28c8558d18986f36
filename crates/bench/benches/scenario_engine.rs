//! Benchmarks of the scenario engine itself.
//!
//! The registry redesign moved every run behind `Box<dyn
//! ErasedFlowAgent>` (payload type erasure + dynamic dispatch). These
//! benches quantify that cost against the old monomorphic path — the
//! erasure adds one `Rc` per transmitted frame and a payload clone per
//! reception, which must stay noise next to event-queue and medium
//! work — and measure a whole scenario grid end-to-end.

use criterion::{criterion_group, criterion_main, Criterion};
use mesh_sim::{ChannelSpec, Erased, ErasedFlowAgent, QueueSpec, SimConfig, Simulator, SEC};
use mesh_topology::{generate, NodeId};
use more_core::{MoreAgent, MoreConfig};
use more_scenario::{Scenario, TopologySpec, TrafficModelSpec, TrafficSpec};
use std::hint::black_box;
use std::sync::Arc;

const PACKETS: usize = 64;

fn line() -> mesh_topology::Topology {
    generate::line(3, 0.85, 0.2, 25.0)
}

/// The pre-redesign path: a concrete `Simulator<MoreAgent>`.
#[allow(clippy::borrowed_box)] // run_until's stop callback receives &A = &Box<dyn _>
fn bench_direct_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_engine/more_transfer");
    let topo = line();
    group.bench_function("direct_generic", |b| {
        b.iter(|| {
            let mut agent = MoreAgent::new(topo.clone(), MoreConfig::default());
            agent.add_flow(1, NodeId(0), &[NodeId(3)], PACKETS);
            let mut sim = Simulator::new(topo.clone(), SimConfig::default(), agent, 1);
            sim.kick(NodeId(0));
            sim.run_until(600 * SEC, |a: &MoreAgent| a.all_done());
            black_box(sim.stats.total_tx())
        })
    });
    // The registry path: same run through payload erasure + vtables.
    group.bench_function("erased_dyn", |b| {
        b.iter(|| {
            let mut agent = MoreAgent::new(topo.clone(), MoreConfig::default());
            agent.add_flow(1, NodeId(0), &[NodeId(3)], PACKETS);
            let boxed: Box<dyn ErasedFlowAgent> = Box::new(Erased(agent));
            let mut sim = Simulator::new(topo.clone(), SimConfig::default(), boxed, 1);
            sim.kick(NodeId(0));
            sim.run_until(600 * SEC, |a: &Box<dyn ErasedFlowAgent>| a.flows_done());
            black_box(sim.stats.total_tx())
        })
    });
    group.finish();
}

/// Channel-model cost: the same MORE transfer on static air (the
/// trait-dispatched default, which must stay at pre-channel speed) and
/// on bursty Gilbert–Elliott air (adds per-epoch state evolution).
fn bench_channel_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_engine/channel");
    let topo = line();
    let specs = [
        ("static", ChannelSpec::Static),
        (
            "gilbert_elliott",
            ChannelSpec::bursty_matched(0.0, 0.05, 0.2, 10),
        ),
    ];
    for (name, spec) in specs {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut agent = MoreAgent::new(topo.clone(), MoreConfig::default());
                agent.add_flow(1, NodeId(0), &[NodeId(3)], PACKETS);
                let mut sim =
                    Simulator::with_channel(topo.clone(), SimConfig::default(), &spec, agent, 1);
                sim.kick(NodeId(0));
                sim.run_until(600 * SEC, |a: &MoreAgent| a.all_done());
                black_box(sim.stats.total_tx())
            })
        });
    }
    group.finish();
}

/// Queue-subsystem cost: the same MORE transfer through
/// [`Simulator::with_queue`]. Unbounded installs no queue layer at all —
/// the transmit path must stay at pre-queue speed (the ≤ 2% gate the
/// committed `BENCH_engine.json` tracks) — while DropTail and CHOKe pay
/// for the pump loop, classification, and (for CHOKe) the random peek.
fn bench_queue_disciplines(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_engine/queue");
    let topo = line();
    let specs = [
        ("unbounded", QueueSpec::Unbounded),
        ("droptail", QueueSpec::drop_tail(16)),
        ("choke", QueueSpec::choke(16)),
    ];
    for (name, spec) in specs {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut agent = MoreAgent::new(topo.clone(), MoreConfig::default());
                agent.add_flow(1, NodeId(0), &[NodeId(3)], PACKETS);
                let mut sim = Simulator::with_queue(
                    topo.clone(),
                    SimConfig::default(),
                    &ChannelSpec::Static,
                    &spec,
                    agent,
                    1,
                );
                sim.kick(NodeId(0));
                sim.run_until(600 * SEC, |a: &MoreAgent| a.all_done());
                black_box(sim.stats.total_tx())
            })
        });
    }
    group.finish();
}

/// Traffic-model cost: the same MORE transfer expanded by the legacy
/// `TrafficSpec` shorthand and through the trait-dispatched
/// `TrafficModelSpec::Static` (both are the `StaticModel` path, which
/// must stay at pre-traffic-model speed), plus a staggered-arrival run
/// that actually exercises the mid-run traffic queue.
fn bench_traffic_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_engine/traffic");
    let topo = Arc::new(line());
    let run = |traffic: TrafficModelSpec| {
        let records = Scenario::named("bench")
            .topology(TopologySpec::Fixed(topo.clone()))
            .traffic_model(traffic)
            .protocol("MORE")
            .packets(PACKETS)
            .deadline(120)
            .threads(1)
            .run();
        black_box(records.len())
    };
    group.bench_function("static_legacy_shorthand", |b| {
        b.iter(|| {
            run(TrafficModelSpec::Static(TrafficSpec::SinglePair {
                src: NodeId(0),
                dst: NodeId(3),
            }))
        })
    });
    group.bench_function("static_trait_dispatch", |b| {
        b.iter(|| {
            run(TrafficModelSpec::Static(TrafficSpec::EachPair(vec![(
                NodeId(0),
                NodeId(3),
            )])))
        })
    });
    group.bench_function("staggered_dynamic", |b| {
        b.iter(|| {
            run(TrafficModelSpec::Staggered {
                n_flows: 2,
                gap_ms: 200,
                hold_ms: None,
            })
        })
    });
    group.finish();
}

/// A small three-protocol grid through the full builder machinery.
fn bench_scenario_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_engine/grid");
    let topo = Arc::new(line());
    group.bench_function("3protos_x_2seeds", |b| {
        b.iter(|| {
            let records = Scenario::named("bench")
                .topology(TopologySpec::Fixed(topo.clone()))
                .traffic(TrafficSpec::SinglePair {
                    src: NodeId(0),
                    dst: NodeId(3),
                })
                .protocols(["Srcr", "ExOR", "MORE"])
                .packets(32)
                .deadline(120)
                .seeds(1..=2)
                .threads(1)
                .run();
            assert_eq!(records.len(), 6);
            black_box(records.len())
        })
    });
    group.finish();
}

/// Streaming-sink cost over the same grid: the default Collect path
/// (the legacy materialize-everything shape, which must stay at
/// pre-streaming speed) against the bounded-memory Aggregate sink.
fn bench_sink_pipeline(c: &mut Criterion) {
    use more_scenario::sink::{Aggregate, Collect};
    let mut group = c.benchmark_group("scenario_engine/sink");
    let topo = Arc::new(line());
    let builder = |topo: &Arc<mesh_topology::Topology>| {
        Scenario::named("bench")
            .topology(TopologySpec::Fixed(topo.clone()))
            .traffic(TrafficSpec::SinglePair {
                src: NodeId(0),
                dst: NodeId(3),
            })
            .protocols(["Srcr", "MORE"])
            .packets(32)
            .deadline(120)
            .seeds(1..=2)
            .threads(1)
    };
    group.bench_function("collect", |b| {
        b.iter(|| {
            let mut sink = Collect::new();
            let summary = builder(&topo).run_with_sink(&mut sink);
            assert_eq!(summary.records_high_water, 4, "Collect holds the grid");
            black_box(summary.records)
        })
    });
    group.bench_function("aggregate", |b| {
        b.iter(|| {
            let mut sink = Aggregate::new();
            let summary = builder(&topo).run_with_sink(&mut sink);
            assert!(summary.records_high_water <= 1, "bounded memory");
            black_box(summary.records)
        })
    });
    group.finish();
}

criterion_group!(
    scenario_engine,
    bench_direct_dispatch,
    bench_channel_models,
    bench_queue_disciplines,
    bench_traffic_models,
    bench_scenario_grid,
    bench_sink_pipeline
);
criterion_main!(scenario_engine);
