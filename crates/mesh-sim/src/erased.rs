//! Payload-erased, object-safe protocol agents.
//!
//! [`NodeAgent`] is generic over its payload type, which makes
//! `Simulator<A>` monomorphic and fast — but also makes `dyn NodeAgent`
//! impossible, and a pluggable protocol registry needs trait objects.
//! This module provides the bridge:
//!
//! * [`FlowAgent`] — the measurement contract every end-to-end protocol
//!   implements on top of [`NodeAgent`]: "are all transfers finished?"
//!   and "how far along is flow *i*?". This is the least common
//!   denominator of MORE, ExOR, Srcr, and any future protocol.
//! * [`ErasedFlowAgent`] — the object-safe combination of both, with
//!   payloads type-erased behind [`DynPayload`] (`Rc<dyn Any>`).
//! * [`Erased`] — wraps any concrete [`FlowAgent`] into an
//!   [`ErasedFlowAgent`]; `Box<dyn ErasedFlowAgent>` itself implements
//!   [`NodeAgent`] (and [`FlowAgent`]), so it drops straight into
//!   [`crate::Simulator`].
//!
//! The erasure costs one `Rc` allocation per transmitted frame plus one
//! payload clone per reception. For payloads built on refcounted packet
//! buffers (the zero-copy path) that clone is a reference-count bump, not
//! a copy; [`NodeAgent::recycle`] is forwarded through the erasure (the
//! `Rc` is unwrapped when the engine really held the last reference) so
//! pooled buffers flow back to their pool across the type boundary too.

use crate::queue::DropCause;
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
    pub fn dst(&self) -> NodeId {
        // xtask: allow(panic_path) -- documented "# Panics" contract; the scenario layer rejects empty destination lists before any protocol sees the flow
        self.dsts[0]
    }
}

/// Per-flow progress as read by measurement harnesses, reduced to what
/// every protocol can report.
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

/// Measurement interface layered on [`NodeAgent`]: a protocol that moves
/// a known set of flows and can report progress on each.
///
/// The lifecycle hooks ([`FlowAgent::add_flow`] / [`FlowAgent::end_flow`])
/// let dynamic traffic models inject and withdraw flows **mid-run**; they
/// default to "unsupported" so existing protocols keep compiling, and
/// [`FlowAgent::supports_dynamic_flows`] lets harnesses reject a dynamic
/// workload *before* the run instead of panicking inside it.
pub trait FlowAgent: NodeAgent {
    /// Every flow resolved (the simulator's stop condition). Flows halted
    /// by [`FlowAgent::end_flow`] count as resolved.
    fn flows_done(&self) -> bool;

    /// Progress of the flow at `index` (the order flows were added).
    fn flow_progress(&self, index: usize) -> FlowProgressView;

    /// Whether this protocol implements the mid-run lifecycle hooks.
    /// Harnesses must check this before scheduling dynamic traffic.
    fn supports_dynamic_flows(&self) -> bool {
        false
    }

    /// Installs `desc` as a new flow — before the run or in the middle of
    /// it — and returns its index (flows are indexed in the order they
    /// were added). The caller is responsible for kicking the source's
    /// MAC afterwards.
    ///
    /// # Panics
    ///
    /// The default implementation panics: protocols opt in by overriding
    /// this together with [`FlowAgent::supports_dynamic_flows`].
    fn add_flow(&mut self, desc: &FlowDesc) -> usize {
        let _ = desc;
        // xtask: allow(panic_path) -- documented "# Panics" contract: protocols opt in to dynamic flows via supports_dynamic_flows
        panic!("this protocol does not support dynamic flow arrivals");
    }

    /// Halts the flow at `index`: the protocol must stop sourcing and
    /// forwarding it and must no longer count it against
    /// [`FlowAgent::flows_done`]. Progress measured so far stays readable.
    ///
    /// # Panics
    ///
    /// The default implementation panics: protocols opt in by overriding
    /// this together with [`FlowAgent::supports_dynamic_flows`].
    fn end_flow(&mut self, index: usize) {
        let _ = index;
        // xtask: allow(panic_path) -- documented "# Panics" contract: protocols opt in to dynamic flows via supports_dynamic_flows
        panic!("this protocol does not support dynamic flow departures");
    }
}

/// Object-safe [`FlowAgent`] with erased payloads. This is the type the
/// protocol registry traffics in: `Box<dyn ErasedFlowAgent>`.
pub trait ErasedFlowAgent {
    /// [`NodeAgent::on_receive`] over the erased payload.
    fn on_receive(&mut self, node: NodeId, frame: &Frame<DynPayload>, ctx: &mut Ctx<'_>);
    /// [`NodeAgent::on_tx_done`], unchanged.
    fn on_tx_done(&mut self, node: NodeId, outcome: TxOutcome, ctx: &mut Ctx<'_>);
    /// [`NodeAgent::poll_tx`] over the erased payload.
    fn poll_tx(&mut self, node: NodeId, ctx: &mut Ctx<'_>) -> Option<OutFrame<DynPayload>>;
    /// [`NodeAgent::on_timer`], unchanged.
    fn on_timer(&mut self, node: NodeId, token: u64, ctx: &mut Ctx<'_>);
    /// [`NodeAgent::on_queue_drop`] over the erased payload.
    fn on_queue_drop(
        &mut self,
        node: NodeId,
        payload: DynPayload,
        cause: DropCause,
        ctx: &mut Ctx<'_>,
    );
    /// [`NodeAgent::recycle`] over the erased payload.
    fn recycle(&mut self, payload: DynPayload);
    /// [`FlowAgent::flows_done`], unchanged.
    fn flows_done(&self) -> bool;
    /// [`FlowAgent::flow_progress`], unchanged.
    fn flow_progress(&self, index: usize) -> FlowProgressView;
    /// [`FlowAgent::supports_dynamic_flows`], unchanged.
    fn supports_dynamic_flows(&self) -> bool;
    /// [`FlowAgent::add_flow`], unchanged.
    fn add_flow(&mut self, desc: &FlowDesc) -> usize;
    /// [`FlowAgent::end_flow`], unchanged.
    fn end_flow(&mut self, index: usize);
    /// Downcast access to the concrete agent (protocol-specific stats).
    fn as_any(&self) -> &dyn Any;
    /// Mutable downcast access to the concrete agent.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Adapter erasing a concrete [`FlowAgent`]'s payload type.
pub struct Erased<A>(pub A);

impl<A> ErasedFlowAgent for Erased<A>
where
    A: FlowAgent + 'static,
    A::Payload: 'static,
{
    fn on_receive(&mut self, node: NodeId, frame: &Frame<DynPayload>, ctx: &mut Ctx<'_>) {
        let payload = frame
            .payload
            .downcast_ref::<A::Payload>()
            // xtask: allow(panic_path) -- the simulator registers one payload type per agent; a type mismatch here is a harness bug, never a runtime input
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

    fn on_tx_done(&mut self, node: NodeId, outcome: TxOutcome, ctx: &mut Ctx<'_>) {
        self.0.on_tx_done(node, outcome, ctx);
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

    fn on_queue_drop(
        &mut self,
        node: NodeId,
        payload: DynPayload,
        cause: DropCause,
        ctx: &mut Ctx<'_>,
    ) {
        // A queue-dropped frame never reached the air, so the engine's
        // `Rc` is normally the sole reference; clone defensively if the
        // concrete agent kept one.
        if let Ok(rc) = payload.downcast::<A::Payload>() {
            let p = Rc::try_unwrap(rc).unwrap_or_else(|rc| (*rc).clone());
            self.0.on_queue_drop(node, p, cause, ctx);
        }
    }

    fn recycle(&mut self, payload: DynPayload) {
        // Only unwrap when the engine really held the last reference —
        // a receiver may have kept the payload alive.
        if let Ok(rc) = payload.downcast::<A::Payload>() {
            if let Ok(p) = Rc::try_unwrap(rc) {
                self.0.recycle(p);
            }
        }
    }

    fn flows_done(&self) -> bool {
        self.0.flows_done()
    }

    fn flow_progress(&self, index: usize) -> FlowProgressView {
        self.0.flow_progress(index)
    }

    fn supports_dynamic_flows(&self) -> bool {
        self.0.supports_dynamic_flows()
    }

    fn add_flow(&mut self, desc: &FlowDesc) -> usize {
        self.0.add_flow(desc)
    }

    fn end_flow(&mut self, index: usize) {
        self.0.end_flow(index)
    }

    fn as_any(&self) -> &dyn Any {
        &self.0
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        &mut self.0
    }
}

impl NodeAgent for Box<dyn ErasedFlowAgent> {
    type Payload = DynPayload;

    fn on_receive(&mut self, node: NodeId, frame: &Frame<DynPayload>, ctx: &mut Ctx<'_>) {
        (**self).on_receive(node, frame, ctx);
    }

    fn on_tx_done(&mut self, node: NodeId, outcome: TxOutcome, ctx: &mut Ctx<'_>) {
        (**self).on_tx_done(node, outcome, ctx);
    }

    fn poll_tx(&mut self, node: NodeId, ctx: &mut Ctx<'_>) -> Option<OutFrame<DynPayload>> {
        (**self).poll_tx(node, ctx)
    }

    fn on_timer(&mut self, node: NodeId, token: u64, ctx: &mut Ctx<'_>) {
        (**self).on_timer(node, token, ctx);
    }

    fn on_queue_drop(
        &mut self,
        node: NodeId,
        payload: DynPayload,
        cause: DropCause,
        ctx: &mut Ctx<'_>,
    ) {
        (**self).on_queue_drop(node, payload, cause, ctx);
    }

    fn recycle(&mut self, payload: DynPayload) {
        (**self).recycle(payload);
    }
}

impl FlowAgent for Box<dyn ErasedFlowAgent> {
    fn flows_done(&self) -> bool {
        (**self).flows_done()
    }

    fn flow_progress(&self, index: usize) -> FlowProgressView {
        (**self).flow_progress(index)
    }

    fn supports_dynamic_flows(&self) -> bool {
        (**self).supports_dynamic_flows()
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
    use crate::{SimConfig, Simulator, SEC};
    use mesh_topology::generate;

    /// A tiny broadcast-flood protocol used to exercise the erasure
    /// plumbing end-to-end.
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

        fn on_tx_done(&mut self, _node: NodeId, _outcome: TxOutcome, ctx: &mut Ctx<'_>) {
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
    }

    #[test]
    #[allow(clippy::borrowed_box)] // run_until's stop callback receives &A = &Box<dyn _>
    fn erased_agent_runs_in_the_simulator() {
        let topo = generate::line(2, 0.95, 0.4, 25.0);
        let agent: Box<dyn ErasedFlowAgent> = Box::new(Erased(Flood {
            remaining: 20,
            delivered: 0,
            done_at: None,
        }));
        let mut sim = Simulator::new(topo, SimConfig::default(), agent, 1);
        sim.kick(NodeId(0));
        sim.run_until(30 * SEC, |a: &Box<dyn ErasedFlowAgent>| a.flows_done());
        let p = sim.agent.flow_progress(0);
        assert!(p.done);
        assert!(p.delivered > 0, "the far node should hear something");
        // Downcast recovers the concrete type.
        let concrete = sim
            .agent
            .as_any()
            .downcast_ref::<Flood>()
            .expect("is Flood");
        assert_eq!(concrete.remaining, 0);
    }
}
