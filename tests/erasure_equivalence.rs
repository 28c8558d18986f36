//! Erasing an agent's payload type changes nothing: a transfer run as
//! `Simulator<Agent>` and the same transfer run as
//! `Simulator<Box<dyn ErasedFlowAgent>>` through `Erased` end with the
//! same statistics and the same flow progress, for every protocol.

use more_repro::baselines::{ExorAgent, ExorConfig, SrcrAgent, SrcrConfig};
use more_repro::more::{MoreAgent, MoreConfig};
use more_repro::sim::{
    Bitrate, Erased, ErasedFlowAgent, FlowAgent, FlowDesc, SimConfig, Simulator, SEC,
};
use more_repro::topology::{generate, NodeId, Topology};

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
