//! Payload-erased, object-safe protocol agents.
//!
//! [`NodeAgent`] is generic over its payload type, which makes
//! `Simulator<A>` monomorphic and fast — but also makes `dyn NodeAgent`
//! impossible, and a pluggable protocol registry needs trait objects.
//! This module provides the bridge:
//!
//! * [`FlowAgent`] — the flow contract every end-to-end protocol
//!   implements on top of [`NodeAgent`]: "take this flow", "drop flow
//!   *i*", "are all transfers finished?" and "how far along is flow
//!   *i*?" ([`FlowProgressView`]). It is the only flow API of MORE,
//!   ExOR, Srcr, and any future protocol.
//! * [`ErasedFlowAgent`] — a [`FlowAgent`] whose payloads are erased
//!   to [`DynPayload`] (`Rc<dyn Any>`), so every protocol fits behind one
//!   object-safe trait.
//! * [`Erased`] — wraps any concrete [`FlowAgent`] into an
//!   [`ErasedFlowAgent`]. `Box<T>` forwards both traits, so
//!   `Box<dyn ErasedFlowAgent>` drops straight into [`crate::Simulator`].
//!
//! The erasure costs one `Rc` allocation per transmitted frame plus one
//! payload clone per reception. For payloads built on refcounted packet
//! buffers (the zero-copy path) that clone is a reference-count bump, not
//! a copy. [`NodeAgent::on_tx_done`] hands the payload back through the
//! erasure (the `Rc` is unwrapped, so the agent gets its own value, not a
//! copy), so pooled buffers flow back to their pool across the type
//! boundary too.

use crate::{Ctx, Frame, NodeAgent, OutFrame, Time, TxOutcome};
use mesh_topology::NodeId;
use std::any::Any;
use std::rc::Rc;

/// A protocol payload with its concrete type erased.
///
/// `Rc`, not `Arc`: one simulation runs on one thread (parallel sweeps
/// parallelize across simulations, never within one).
pub type DynPayload = Rc<dyn Any>;

/// One transfer: a source, one or more destinations (several =
/// multicast), and a packet count. The scenario layer re-exports it as
/// `FlowSpec`.
#[derive(Clone, Debug, PartialEq, Eq)]
#[must_use]
pub struct FlowDesc {
    /// Source node.
    pub src: NodeId,
    /// One destination (unicast) or several (multicast).
    pub dsts: Vec<NodeId>,
    /// Packet budget of the transfer.
    pub packets: usize,
}

impl FlowDesc {
    /// A single-destination flow.
    pub fn unicast(src: NodeId, dst: NodeId, packets: usize) -> Self {
        FlowDesc {
            src,
            dsts: vec![dst],
            packets,
        }
    }

    /// More than one destination?
    pub fn is_multicast(&self) -> bool {
        self.dsts.len() > 1
    }

    /// The single destination of a unicast flow.
    ///
    /// # Panics
    ///
    /// Panics on an empty destination list.
    #[expect(
        clippy::indexing_slicing,
        reason = "documented \"# Panics\" contract; the scenario layer rejects empty destination lists before any protocol sees the flow"
    )]
    pub fn dst(&self) -> NodeId {
        self.dsts[0]
    }
}

/// The wire id of the flow an agent holds at `index`: index + 1, so 0 is
/// never a flow's.
pub fn flow_id(index: usize) -> u32 {
    index as u32 + 1
}

/// The index of wire id `id` among an agent's `flows` flows, if any.
pub fn flow_index(id: u32, flows: usize) -> Option<usize> {
    (id as usize).checked_sub(1).filter(|&index| index < flows)
}

/// The progress of one flow: what the paper's evaluation reads of a
/// transfer, and the only progress type a protocol reports. Each agent
/// computes it from its own protocol state; a per-flow outcome every
/// protocol reports is a field here.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowProgressView {
    /// Packets delivered end-to-end (for multicast: summed over
    /// destinations).
    pub delivered: usize,
    /// Simulated time the transfer finished, if it did.
    pub completed_at: Option<Time>,
    /// The protocol considers the flow fully resolved.
    pub done: bool,
}

/// A protocol that moves flows and reports progress on each, layered on
/// [`NodeAgent`].
///
/// Flows arrive one at a time through [`FlowAgent::add_flow`], before
/// the run or in the middle of it, and may depart early through
/// [`FlowAgent::end_flow`]. The scenario engine installs every flow,
/// including the ones starting at t = 0, as a scheduled
/// [`crate::TrafficAction::Start`], and halts a departing one with
/// [`crate::TrafficAction::Stop`].
pub trait FlowAgent: NodeAgent {
    /// Every flow resolved (the simulator's stop condition). Flows halted
    /// by [`FlowAgent::end_flow`] count as resolved.
    fn flows_done(&self) -> bool;

    /// Progress of the flow at `index` (the order flows were added). A
    /// flow halted by [`FlowAgent::end_flow`] keeps the progress it had
    /// at the halt, and is not done unless it was before.
    fn flow_progress(&self, index: usize) -> FlowProgressView;

    /// Always `true`: every agent implements [`FlowAgent::add_flow`] and
    /// [`FlowAgent::end_flow`]. The method stays because
    /// `ledger/benches/staged.rs` calls it, and `ledger/` changes only
    /// together with the benchmark's baseline (ROADMAP item 1 drops it).
    fn supports_dynamic_flows(&self) -> bool {
        true
    }

    /// Installs `desc` as a new flow — before the run or in the middle of
    /// it — and returns its index (flows are indexed in the order they
    /// were added). The caller is responsible for kicking the source's
    /// MAC afterwards.
    fn add_flow(&mut self, desc: &FlowDesc) -> usize;

    /// Halts the flow at `index`: the protocol must stop sourcing and
    /// forwarding it and must no longer count it against
    /// [`FlowAgent::flows_done`]. Progress measured so far stays readable.
    fn end_flow(&mut self, index: usize);
}

/// A [`FlowAgent`] with erased payloads. This is the type the protocol
/// registry traffics in: `Box<dyn ErasedFlowAgent>`.
pub trait ErasedFlowAgent: FlowAgent<Payload = DynPayload> {}

impl<A: FlowAgent<Payload = DynPayload>> ErasedFlowAgent for A {}

/// Adapter erasing a concrete [`FlowAgent`]'s payload type.
pub struct Erased<A>(pub A);

impl<A> NodeAgent for Erased<A>
where
    A: NodeAgent,
    A::Payload: 'static,
{
    type Payload = DynPayload;

    fn on_receive(&mut self, node: NodeId, frame: &Frame<DynPayload>, ctx: &mut Ctx<'_>) {
        #[expect(
            clippy::expect_used,
            reason = "the simulator registers one payload type per agent; a type mismatch here is a harness bug, never a runtime input"
        )]
        let payload = frame
            .payload
            .downcast_ref::<A::Payload>()
            .expect("erased frame payload does not match the receiving agent's payload type")
            .clone();
        let typed = Frame {
            from: frame.from,
            dst: frame.dst,
            bytes: frame.bytes,
            bitrate: frame.bitrate,
            payload,
        };
        self.0.on_receive(node, &typed, ctx);
    }

    fn on_tx_done(
        &mut self,
        node: NodeId,
        outcome: TxOutcome,
        payload: DynPayload,
        ctx: &mut Ctx<'_>,
    ) {
        // The engine's `Rc` is the last one — receivers cloned the value
        // inside it — so this normally unwraps without a copy; clone if
        // something still holds it.
        #[expect(
            clippy::expect_used,
            reason = "the payload is the one this agent's poll_tx erased; a type mismatch here is a harness bug, never a runtime input"
        )]
        let rc = payload
            .downcast::<A::Payload>()
            .expect("erased payload does not match the sending agent's payload type");
        let payload = Rc::try_unwrap(rc).unwrap_or_else(|rc| (*rc).clone());
        self.0.on_tx_done(node, outcome, payload, ctx);
    }

    fn poll_tx(&mut self, node: NodeId, ctx: &mut Ctx<'_>) -> Option<OutFrame<DynPayload>> {
        self.0.poll_tx(node, ctx).map(|f| OutFrame {
            dst: f.dst,
            bytes: f.bytes,
            bitrate: f.bitrate,
            flow: f.flow,
            payload: Rc::new(f.payload) as DynPayload,
        })
    }

    fn on_timer(&mut self, node: NodeId, token: u64, ctx: &mut Ctx<'_>) {
        self.0.on_timer(node, token, ctx);
    }
}

impl<A> FlowAgent for Erased<A>
where
    A: FlowAgent,
    A::Payload: 'static,
{
    fn flows_done(&self) -> bool {
        self.0.flows_done()
    }

    fn flow_progress(&self, index: usize) -> FlowProgressView {
        self.0.flow_progress(index)
    }

    fn add_flow(&mut self, desc: &FlowDesc) -> usize {
        self.0.add_flow(desc)
    }

    fn end_flow(&mut self, index: usize) {
        self.0.end_flow(index)
    }
}

impl<T: NodeAgent + ?Sized> NodeAgent for Box<T> {
    type Payload = T::Payload;

    fn on_receive(&mut self, node: NodeId, frame: &Frame<T::Payload>, ctx: &mut Ctx<'_>) {
        (**self).on_receive(node, frame, ctx);
    }

    fn on_tx_done(
        &mut self,
        node: NodeId,
        outcome: TxOutcome,
        payload: T::Payload,
        ctx: &mut Ctx<'_>,
    ) {
        (**self).on_tx_done(node, outcome, payload, ctx);
    }

    fn poll_tx(&mut self, node: NodeId, ctx: &mut Ctx<'_>) -> Option<OutFrame<T::Payload>> {
        (**self).poll_tx(node, ctx)
    }

    fn on_timer(&mut self, node: NodeId, token: u64, ctx: &mut Ctx<'_>) {
        (**self).on_timer(node, token, ctx);
    }
}

impl<T: FlowAgent + ?Sized> FlowAgent for Box<T> {
    fn flows_done(&self) -> bool {
        (**self).flows_done()
    }

    fn flow_progress(&self, index: usize) -> FlowProgressView {
        (**self).flow_progress(index)
    }

    fn add_flow(&mut self, desc: &FlowDesc) -> usize {
        (**self).add_flow(desc)
    }

    fn end_flow(&mut self, index: usize) {
        (**self).end_flow(index)
    }
}

#[cfg(test)]
mod test {
    use super::*;
    use crate::{SimConfig, Simulator, TrafficAction, SEC};
    use mesh_topology::generate;

    /// A tiny broadcast-flood protocol used to exercise the erasure
    /// plumbing end-to-end: node 0 broadcasts its one flow's packets.
    struct Flood {
        remaining: u32,
        delivered: usize,
        done_at: Option<Time>,
    }

    impl NodeAgent for Flood {
        type Payload = u32;

        fn on_receive(&mut self, node: NodeId, frame: &Frame<u32>, _ctx: &mut Ctx<'_>) {
            if node == NodeId(2) {
                self.delivered += 1;
                assert_eq!(frame.payload, 7, "payload survived the round-trip");
            }
        }

        fn on_tx_done(&mut self, _node: NodeId, _o: TxOutcome, _p: u32, ctx: &mut Ctx<'_>) {
            if self.remaining > 0 {
                ctx.mark_backlogged(NodeId(0));
            } else if self.done_at.is_none() {
                self.done_at = Some(ctx.now());
            }
        }

        fn poll_tx(&mut self, node: NodeId, _ctx: &mut Ctx<'_>) -> Option<OutFrame<u32>> {
            if node != NodeId(0) || self.remaining == 0 {
                return None;
            }
            self.remaining -= 1;
            Some(OutFrame {
                dst: None,
                bytes: 200,
                bitrate: None,
                flow: None,
                payload: 7,
            })
        }
    }

    impl FlowAgent for Flood {
        fn flows_done(&self) -> bool {
            self.remaining == 0
        }

        fn flow_progress(&self, _index: usize) -> FlowProgressView {
            FlowProgressView {
                delivered: self.delivered,
                completed_at: self.done_at,
                done: self.flows_done(),
            }
        }

        fn add_flow(&mut self, desc: &FlowDesc) -> usize {
            self.remaining = desc.packets as u32;
            0
        }

        fn end_flow(&mut self, _index: usize) {
            self.remaining = 0;
        }
    }

    #[test]
    #[expect(
        clippy::borrowed_box,
        reason = "run_until's stop callback receives &A = &Box<dyn _>"
    )]
    fn erased_agent_runs_in_the_simulator() {
        let topo = generate::line(2, 0.95, 0.4, 25.0);
        let agent: Box<dyn ErasedFlowAgent> = Box::new(Erased(Flood {
            remaining: 0,
            delivered: 0,
            done_at: None,
        }));
        let mut sim = Simulator::new(topo, SimConfig::default(), agent, 1);
        let flow = FlowDesc::unicast(NodeId(0), NodeId(2), 20);
        sim.schedule_traffic(0, TrafficAction::Start(flow));
        sim.run_until(30 * SEC, |a: &Box<dyn ErasedFlowAgent>| a.flows_done());
        let p = sim.agent.flow_progress(0);
        assert!(p.done);
        assert!(p.delivered > 0, "the far node should hear something");
    }
}
