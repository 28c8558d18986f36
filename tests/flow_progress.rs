//! What `FlowAgent::flow_progress` reports, read through the flow contract
//! alone, on the cases the goldens cover thinly:
//!
//! * a MORE multicast flow to three destinations reports the sum of its
//!   destinations' deliveries, and the latest destination's completion
//!   instant once every destination has one — at every step of the run,
//!   not only at its end;
//! * a flow of each protocol withdrawn mid-transfer by a scheduled
//!   `TrafficAction::Stop` (what a traffic schedule's `Stop` becomes) is
//!   not done, and its delivered count is frozen at the stop;
//! * a flow of each protocol that completes before its `Stop` stays done,
//!   with its delivered count and completion instant unchanged.
//!
//! Pinned elsewhere already: the scenario records of a withdrawn Srcr
//! flow (`scheduled_departures_cut_flows_short`) and of a MORE flow that
//! finished before its departure (`pending_departure_does_not_inflate_run_time`),
//! both in `crates/scenario/src/builder.rs`.

use more_repro::baselines::{ExorAgent, ExorConfig, SrcrAgent, SrcrConfig};
use more_repro::more::{Destination, MoreAgent, MoreConfig};
use more_repro::sim::{
    Bitrate, FlowAgent, FlowDesc, FlowProgressView, SimConfig, Simulator, Time, TrafficAction, MS,
    SEC,
};
use more_repro::topology::{generate, NodeId, Topology};

fn topo() -> Topology {
    generate::testbed(1)
}

/// The three protocols, each with no flows yet, under the paper's
/// defaults.
fn more() -> MoreAgent {
    MoreAgent::new(topo(), MoreConfig::default())
}

fn exor() -> ExorAgent {
    ExorAgent::new(topo(), ExorConfig::default())
}

fn srcr() -> SrcrAgent {
    SrcrAgent::new(topo(), SrcrConfig::default(), Bitrate::B5_5)
}

/// A simulator whose one flow `desc` arrives at t = 0.
fn started<A: FlowAgent>(agent: A, desc: FlowDesc, seed: u64) -> Simulator<A> {
    let mut sim = Simulator::new(topo(), SimConfig::default(), agent, seed);
    sim.schedule_traffic(0, TrafficAction::Start(desc));
    sim
}

#[test]
fn more_multicast_progress_is_its_destinations_summed() {
    let dsts = vec![NodeId(19), NodeId(12), NodeId(7)];
    let desc = FlowDesc {
        src: NodeId(0),
        dsts,
        packets: 64,
    };
    let mut sim = started(more(), desc, 3);
    let (mut partial, mut step) = (false, 0);
    loop {
        step += 1;
        assert!(step < 6000, "the multicast flow is stuck");
        sim.run_until(step * 100 * MS, |_| false);
        let p = sim.agent.flow_progress(0);
        let flow = &sim.agent.flows()[0];
        // Batches decode in order: a destination holds the packets of its
        // first `decoded_batches` batches.
        let cfg = MoreConfig::default();
        let decoded = |d: &Destination| (0..d.decoded_batches).map(|b| flow.k_of(&cfg, b));
        let delivered: usize = flow.dsts.iter().flat_map(decoded).sum();
        assert_eq!(p.delivered, delivered, "at step {step}");
        let ends: Option<Vec<Time>> = flow.dsts.iter().map(|d| d.completed_at).collect();
        let last = ends.and_then(|ends| ends.into_iter().max());
        assert_eq!(p.completed_at, last, "at step {step}");
        assert!(!p.done || p.completed_at.is_some(), "at step {step}");
        partial |= flow.dsts.iter().any(|d| d.completed_at.is_some()) && last.is_none();
        if p.done {
            break;
        }
    }
    assert!(sim.agent.flows_done());
    let p = sim.agent.flow_progress(0);
    assert_eq!(p.delivered, 3 * 64);
    assert!(
        partial,
        "no step saw one destination finished and another not"
    );
}

/// Runs `agent`'s one flow of `packets` from 0 to 19, withdrawn at
/// `stop`, and returns its progress just before the stop and long after.
fn withdrawn<A: FlowAgent>(agent: A, packets: usize, stop: Time) -> [FlowProgressView; 2] {
    let mut sim = started(agent, FlowDesc::unicast(NodeId(0), NodeId(19), packets), 5);
    sim.schedule_traffic(stop, TrafficAction::Stop(0));
    // A stop applies before any event at its instant.
    sim.run_until(stop - 1, |_| false);
    let before = sim.agent.flow_progress(0);
    sim.run_until(stop + 60 * SEC, |_| false);
    assert!(
        sim.agent.flows_done(),
        "a withdrawn flow counts as resolved"
    );
    [before, sim.agent.flow_progress(0)]
}

#[test]
fn a_withdrawn_flow_freezes_at_its_stop() {
    let cases = [
        ("MORE", withdrawn(more(), 4096, 2 * SEC)),
        ("ExOR", withdrawn(exor(), 4096, 2 * SEC)),
        ("Srcr", withdrawn(srcr(), 4096, 2 * SEC)),
    ];
    for (name, [before, after]) in cases {
        assert!(
            before.delivered > 0 && before.delivered < 4096,
            "{name}: not mid-transfer at the stop: {before:?}"
        );
        assert!(!before.done && before.completed_at.is_none(), "{name}");
        assert_eq!(after, before, "{name}: progress moved after the stop");
    }
}

/// Runs `agent`'s one flow of 64 packets from 0 to 19 to completion, then
/// past a stop scheduled long after, and returns its progress at both.
fn finished_before_stop<A: FlowAgent>(agent: A) -> [FlowProgressView; 2] {
    let stop = 300 * SEC;
    let mut sim = started(agent, FlowDesc::unicast(NodeId(0), NodeId(19), 64), 6);
    sim.schedule_traffic(stop, TrafficAction::Stop(0));
    sim.run_until(stop - 1, |a: &A| a.flows_done());
    let done = sim.agent.flow_progress(0);
    sim.run_until(stop + SEC, |_| false);
    [done, sim.agent.flow_progress(0)]
}

#[test]
fn a_flow_done_before_its_stop_stays_done() {
    let cases = [
        ("MORE", finished_before_stop(more())),
        ("ExOR", finished_before_stop(exor())),
        ("Srcr", finished_before_stop(srcr())),
    ];
    for (name, [done, after]) in cases {
        assert!(done.done, "{name}: did not finish before the stop");
        let end = done.completed_at.expect("a finished flow has an end");
        assert!(end < 300 * SEC, "{name}");
        assert!(done.delivered > 0 && done.delivered <= 64, "{name}");
        assert_eq!(after, done, "{name}: the stop changed a finished flow");
    }
    // The coded protocols deliver every packet; Srcr may drop some.
    assert_eq!(cases[0].1[0].delivered, 64);
    assert_eq!(cases[1].1[0].delivered, 64);
}
