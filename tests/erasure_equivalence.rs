//! Erasing an agent's payload type changes nothing: a transfer run as
//! `Simulator<Agent>` and the same transfer run as
//! `Simulator<Box<dyn ErasedFlowAgent>>` through `Erased` end with the
//! same statistics and the same flow progress, for every protocol. And
//! at scenario level: a grid the built-in factories run typed, through
//! their own `ProtocolFactory::run`, yields the same records, byte for
//! byte, as the same grid run through `build` and the default `run`.

use more_repro::baselines::{ExorAgent, ExorConfig, SrcrAgent, SrcrConfig};
use more_repro::more::{MoreAgent, MoreConfig};
use more_repro::scenario::{
    record, BuildError, ExorFactory, ExpConfig, FlowSpec, MoreFactory, PoissonModel,
    ProtocolFactory, ProtocolRegistry, Scenario, SrcrFactory, TrafficModelSpec, TrafficSpec,
};
use more_repro::sim::{
    Bitrate, Erased, ErasedFlowAgent, FlowAgent, FlowDesc, SimConfig, Simulator, SEC,
};
use more_repro::topology::{generate, NodeId, Topology};
use std::sync::Arc;

const SRC: NodeId = NodeId(0);
const DST: NodeId = NodeId(19);

fn testbed() -> Topology {
    generate::testbed(1)
}

/// Runs one 64-packet transfer `SRC → DST` on `agent`, adding the flow
/// through [`FlowAgent::add_flow`]; returns the `{:?}` of the run's
/// statistics and of the flow's progress.
fn outcome<A: FlowAgent>(mut agent: A) -> (String, String) {
    let index = agent.add_flow(&FlowDesc::unicast(SRC, DST, 64));
    let mut sim = Simulator::new(testbed(), SimConfig::default(), agent, 7);
    sim.kick(SRC);
    sim.run_until(600 * SEC, |a: &A| a.flows_done());
    assert!(sim.agent.flow_progress(index).done, "the transfer finishes");
    (
        format!("{:?}", sim.stats),
        format!("{:?}", sim.agent.flow_progress(index)),
    )
}

fn assert_erasure_changes_nothing<A>(build: impl Fn() -> A)
where
    A: FlowAgent + 'static,
    A::Payload: 'static,
{
    let typed = outcome(build());
    let erased: Box<dyn ErasedFlowAgent> = Box::new(Erased(build()));
    assert_eq!(typed, outcome(erased));
}

#[test]
fn erased_more_with_payloads_runs_like_typed_more() {
    // Payloads on: the erased run unwraps each returned `Rc` and recycles
    // its buffers, as the typed run does without one.
    let cfg = MoreConfig {
        k: 16,
        packet_bytes: 256,
        track_payloads: true,
        ..MoreConfig::default()
    };
    assert_erasure_changes_nothing(|| MoreAgent::new(testbed(), cfg));
}

#[test]
fn erased_exor_runs_like_typed_exor() {
    assert_erasure_changes_nothing(|| ExorAgent::new(testbed(), ExorConfig::default()));
}

#[test]
fn erased_srcr_runs_like_typed_srcr() {
    assert_erasure_changes_nothing(|| {
        SrcrAgent::new(testbed(), SrcrConfig::default(), Bitrate::B5_5)
    });
}

/// A factory that implements only `build`, by delegating: it takes the
/// default `run`, so its cells run the erased agent.
struct BuildOnly(Arc<dyn ProtocolFactory>);

impl ProtocolFactory for BuildOnly {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn supports_multicast(&self) -> bool {
        self.0.supports_multicast()
    }

    fn build(
        &self,
        topo: &Topology,
        flows: &[FlowSpec],
        cfg: &ExpConfig,
    ) -> Result<Box<dyn ErasedFlowAgent>, BuildError> {
        self.0.build(topo, flows, cfg)
    }
}

/// MORE with payloads, ExOR and Srcr, as their built-in factories.
fn built_ins() -> Vec<Arc<dyn ProtocolFactory>> {
    let more = MoreConfig {
        packet_bytes: 256,
        track_payloads: true,
        ..MoreConfig::default()
    };
    vec![
        Arc::new(MoreFactory::named("MORE", more)),
        Arc::new(ExorFactory),
        Arc::new(SrcrFactory::fixed_rate()),
    ]
}

/// The JSON of the grid of every built-in over `traffic` on the testbed,
/// at seeds 1 and 2 on `threads` workers, each factory wrapped by `wrap`.
fn grid_json(
    traffic: &TrafficModelSpec,
    threads: usize,
    wrap: impl Fn(Arc<dyn ProtocolFactory>) -> Arc<dyn ProtocolFactory>,
) -> String {
    let mut registry = ProtocolRegistry::new();
    for factory in built_ins() {
        registry.register_arc(wrap(factory));
    }
    let records = Scenario::named("erasure")
        .testbed(1)
        .traffic_model(traffic.clone())
        .registry(registry)
        .seeds(1..=2)
        .k(8)
        .packets(24)
        .deadline(60)
        .threads(threads)
        .run();
    assert_eq!(records.len(), 3 * 2 * records_per_cell(traffic));
    let flows = || records.iter().flat_map(|r| &r.flows);
    assert!(flows().any(|f| f.delivered > 0), "the grid moves packets");
    let mid_run = flows().any(|f| f.started_at_s.is_some_and(|s| s > 0.0));
    assert_eq!(mid_run, matches!(traffic, TrafficModelSpec::Poisson(_)));
    record::to_json(&records)
}

fn records_per_cell(traffic: &TrafficModelSpec) -> usize {
    match traffic {
        TrafficModelSpec::Static(TrafficSpec::RandomPairs { count, .. }) => *count,
        _ => 1,
    }
}

#[test]
fn typed_cells_record_what_build_only_factories_record() {
    let static_pairs = TrafficModelSpec::Static(TrafficSpec::RandomPairs { count: 3, seed: 7 });
    let poisson = TrafficModelSpec::Poisson(PoissonModel {
        rate_per_s: 0.5,
        mean_hold_s: 20.0,
        max_active: 3,
    });
    for traffic in [static_pairs, poisson] {
        for threads in [1, 2] {
            let typed = grid_json(&traffic, threads, |f| f);
            let erased = grid_json(&traffic, threads, |f| Arc::new(BuildOnly(f)));
            assert!(
                typed == erased,
                "{traffic:?} on {threads} thread(s): typed and erased records differ"
            );
        }
    }
}
