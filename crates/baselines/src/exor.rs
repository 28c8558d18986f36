//! ExOR: opportunistic routing with a strict transmission schedule
//! (Biswas & Morris, SIGCOMM 2005; thesis §2.2.1).
//!
//! The file moves in batches. Every batch frame carries a *batch map* — for
//! each packet, the priority (ETX rank, 0 = destination) of the closest
//! node known to hold it. Forwarders transmit strictly one at a time in a
//! round-robin schedule ordered by ETX ("dst > C > B > A > src"): a node
//! takes its turn when it hears its predecessor finish (a frame with
//! `remaining == 0`) or when a silence timeout expires — the "fragile
//! timing estimates" the thesis calls out. During its turn a node sends
//! only packets that, per its local map, no closer node holds; a turn with
//! nothing to send is one map-only frame, a batch frame with no packet.
//! The destination (highest priority) only ever has such turns, which is
//! how batch ACK information propagates back.
//!
//! When a node's map shows the destination holding ≥ 90 % of the batch,
//! the remaining packets travel by traditional unicast routing along the
//! ETX path (the ExOR endgame), and the destination reliably unicasts a
//! `BatchDone` back to the source, which then starts the next batch.
//!
//! Because only the schedule's current speaker may transmit, a single
//! ExOR flow cannot exploit spatial reuse — the structural cost MORE
//! removes (§4.2.3).

#![expect(
    clippy::indexing_slicing,
    reason = "ExOR per-flow state (batch maps, forwarder lists, per-node queues) is sized to the participant set fixed at flow setup; node and sequence indices are checked against that set on receive before any indexed access"
)]

use bytes::Bytes;
use mesh_metrics::etx::LinkCost;
use mesh_metrics::{EtxTable, ForwarderPlan, PlanConfig};
use mesh_sim::{Ctx, Frame, NodeAgent, OutFrame, Time, TxOutcome};
use mesh_topology::{NodeId, Topology};
use std::collections::VecDeque;

/// "No known holder" sentinel in batch maps.
const NO_HOLDER: u8 = u8::MAX;

/// A frame carrying a packet: the native packet plus 24 header bytes,
/// besides a batch frame's K-byte map.
const PACKET_FRAME_BYTES: usize = 1500 + 24;

/// A frame without a packet (a `BatchDone`, a map-only batch frame),
/// besides a batch frame's K-byte map.
const CONTROL_FRAME_BYTES: usize = 30;

/// Silence gap after which the schedule advances locally.
const GAP_TIMEOUT: Time = 15_000;

/// Fraction of the batch at the destination that ends the opportunistic
/// phase (ExOR uses 90 %).
const COMPLETION_FRACTION: f64 = 0.9;

/// ExOR parameters.
#[derive(Clone, Copy, Debug)]
pub struct ExorConfig {
    /// Batch size K (32 in the evaluation; Fig 4-7 sweeps 8–128).
    pub k: usize,
}

impl Default for ExorConfig {
    fn default() -> Self {
        ExorConfig { k: 32 }
    }
}

/// What an ExOR frame carries.
#[derive(Clone, Debug)]
pub enum ExorPayload {
    /// A batch frame, broadcast during the sender's turn.
    Data {
        flow: u32,
        batch: u32,
        /// The packet carried, or `None` for a map-only frame: the
        /// destination's turn, or an empty turn's explicit handoff.
        seq: Option<u32>,
        sender_rank: u8,
        /// Packets the sender will still transmit this turn (0 ⇒ the turn
        /// passes to the next rank).
        remaining: u16,
        /// Batch map: best-known holder rank per packet. Refcounted so the
        /// engine's per-receiver frame clone is O(1), not a map copy.
        map: Bytes,
    },
    /// Endgame unicast of a straggler packet along the ETX path.
    Direct { flow: u32, batch: u32, seq: u32 },
    /// Reliable hop-by-hop notification that the batch is complete.
    BatchDone { flow: u32, batch: u32 },
}

/// Per-node, per-flow schedule and batch state.
struct NodeState {
    batch: u32,
    /// Packets of the current batch this node holds; its length is the
    /// batch's size.
    holds: Vec<bool>,
    /// Best-known holder rank per packet.
    map: Vec<u8>,
    /// Whose turn the node believes it is (rank index).
    speaker: u8,
    /// Packets queued for my current turn.
    turn_queue: VecDeque<u32>,
    /// True while I am mid-turn (turn_queue draining).
    in_turn: bool,
    /// Endgame unicasts waiting at this node: `(batch, seq)` — relays may
    /// carry packets for batches they never overheard.
    direct_queue: VecDeque<(u32, u32)>,
    /// Seqs already injected into the endgame by this node.
    direct_sent: Vec<bool>,
    /// `BatchDone` notifications waiting to be forwarded toward the source.
    done_queue: VecDeque<u32>,
}

impl NodeState {
    fn new(k: usize) -> Self {
        NodeState {
            batch: 0,
            holds: vec![false; k],
            map: vec![NO_HOLDER; k],
            speaker: 0,
            turn_queue: VecDeque::new(),
            in_turn: false,
            direct_queue: VecDeque::new(),
            direct_sent: vec![false; k],
            done_queue: VecDeque::new(),
        }
    }

    fn reset_for(&mut self, batch: u32, k: usize, speaker: u8) {
        self.batch = batch;
        self.holds = vec![false; k];
        self.map = vec![NO_HOLDER; k];
        self.speaker = speaker;
        self.turn_queue.clear();
        self.in_turn = false;
        self.direct_queue.clear();
        self.direct_sent = vec![false; k];
        // done_queue intentionally survives: it refers to older batches.
    }

    /// The map shows the destination holding enough of the batch to end
    /// its opportunistic phase.
    fn endgame(&self) -> bool {
        let threshold = (COMPLETION_FRACTION * self.holds.len() as f64).ceil() as usize;
        self.map.iter().filter(|&&m| m == 0).count() >= threshold
    }
}

struct ExorFlow {
    id: u32,
    src: NodeId,
    dst: NodeId,
    total: usize,
    /// Batch size K.
    k: usize,
    plan: ForwarderPlan,
    /// Rank (schedule priority) per node; `None` = non-participant.
    rank_of: Vec<Option<u8>>,
    /// ETX nexthop toward the destination (endgame unicasts).
    to_dst: Vec<Option<NodeId>>,
    /// ETX nexthop toward the source (`BatchDone`).
    to_src: Vec<Option<NodeId>>,
    nodes: Vec<NodeState>,
    /// Batch the source currently serves.
    src_batch: u32,
    /// Latest batch the destination has fully received (credit latch).
    dst_complete_through: Option<u32>,
    /// Time the destination received the final batch.
    completed_at: Option<Time>,
    /// Withdrawn mid-run by a dynamic workload: the schedule goes silent
    /// and the flow counts as resolved.
    halted: bool,
}

impl ExorFlow {
    fn n_batches(&self) -> u32 {
        self.total.div_ceil(self.k) as u32
    }

    fn k_of(&self, b: u32) -> usize {
        if b + 1 < self.n_batches() || self.total.is_multiple_of(self.k) {
            self.k
        } else {
            self.total % self.k
        }
    }

    fn n_ranks(&self) -> u8 {
        self.plan.order.len() as u8
    }

    /// The source has advanced past the last batch: `src_batch ≥ ⌈total
    /// / k⌉`, without the division.
    fn sent_all(&self) -> bool {
        self.src_batch as usize * self.k >= self.total
    }

    fn is_done(&self) -> bool {
        self.halted || self.sent_all()
    }

    /// Brings `node` to `batch`: a frame of an earlier batch is stale
    /// (false), and a later batch resets the node's state for it.
    fn catch_up(&mut self, node: NodeId, batch: u32) -> bool {
        let current = self.nodes[node.0].batch;
        if batch > current {
            let (k, src_rank) = (self.k_of(batch), self.n_ranks() - 1);
            self.nodes[node.0].reset_for(batch, k, src_rank);
        }
        batch >= current
    }
}

/// ExOR for a whole mesh; one instance drives all nodes.
pub struct ExorAgent {
    cfg: ExorConfig,
    topo: Topology,
    flows: Vec<ExorFlow>,
    rr: Vec<usize>,
}

impl ExorAgent {
    pub fn new(topo: Topology, cfg: ExorConfig) -> Self {
        let n = topo.n();
        ExorAgent {
            cfg,
            topo,
            flows: Vec::new(),
            rr: vec![0; n],
        }
    }

    /// `node`'s state in the flow with wire id `flow`, unless that flow
    /// was withdrawn.
    fn live_node(&mut self, flow: u32, node: NodeId) -> Option<&mut NodeState> {
        let fi = mesh_sim::flow_index(flow, self.flows.len())?;
        let f = &mut self.flows[fi];
        (!f.halted).then(|| &mut f.nodes[node.0])
    }

    /// Re-arms the silence timer for `node` on flow `fi`, under the flow
    /// index: a timer still pending moves, so only the latest arm fires.
    fn arm_timer(fi: usize, node: NodeId, ctx: &mut Ctx<'_>) {
        ctx.set_timer(node, GAP_TIMEOUT, fi as u64);
    }

    /// Advances the local schedule pointer past `from`.
    fn next_rank(n_ranks: u8, from: u8) -> u8 {
        (from + 1) % n_ranks
    }

    /// Node `node` believes it now holds the token: build its turn.
    fn begin_turn(ns: &mut NodeState, node: NodeId, my_rank: u8, ctx: &mut Ctx<'_>) {
        ns.turn_queue.clear();
        // The destination (rank 0) only sends its map. Once the destination
        // is known to hold >= 90% of the batch, the opportunistic rounds
        // stop queueing data — the endgame unicasts carry the stragglers.
        if my_rank > 0 && !ns.endgame() {
            for p in 0..ns.holds.len() {
                // Send packets I hold that no STRICTLY closer node is
                // known to hold (my own rank counts as "mine to send").
                if ns.holds[p] && ns.map[p] >= my_rank {
                    ns.turn_queue.push_back(p as u32);
                }
            }
        }
        ns.in_turn = true;
        ctx.mark_backlogged(node);
    }

    /// Merge a heard map into local state.
    fn merge_map(ns: &mut NodeState, heard: &[u8]) {
        for (m, &h) in ns.map.iter_mut().zip(heard) {
            *m = (*m).min(h);
        }
    }

    /// The endgame: once the destination has ≥ the completion fraction of
    /// the batch, the best-known holder of each straggler unicasts it.
    fn maybe_enter_endgame(f: &mut ExorFlow, node: NodeId, ctx: &mut Ctx<'_>) {
        let Some(rank) = f.rank_of[node.0] else {
            return;
        };
        let ns = &mut f.nodes[node.0];
        if node == f.dst || !ns.endgame() {
            return;
        }
        let mut queued = false;
        for p in 0..ns.holds.len() {
            if ns.holds[p] && ns.map[p] != 0 && ns.map[p] >= rank && !ns.direct_sent[p] {
                ns.direct_sent[p] = true;
                let b = ns.batch;
                ns.direct_queue.push_back((b, p as u32));
                queued = true;
            }
        }
        if queued {
            ctx.mark_backlogged(node);
        }
    }
}

impl NodeAgent for ExorAgent {
    type Payload = ExorPayload;

    fn on_receive(&mut self, node: NodeId, frame: &Frame<ExorPayload>, ctx: &mut Ctx<'_>) {
        match &frame.payload {
            ExorPayload::Data {
                flow,
                batch,
                seq,
                sender_rank,
                remaining,
                map,
            } => {
                let Some(fi) = mesh_sim::flow_index(*flow, self.flows.len()) else {
                    return;
                };
                let f = &mut self.flows[fi];
                let Some(my_rank) = f.rank_of[node.0] else {
                    return;
                };
                if f.is_done() || !f.catch_up(node, *batch) {
                    return;
                }
                let n_ranks = f.n_ranks();
                let ns = &mut f.nodes[node.0];
                // Store the packet, if the frame carries one, and merge
                // the map.
                if let Some(p) = seq.map(|s| s as usize).filter(|&p| p < ns.holds.len()) {
                    ns.holds[p] = true;
                    ns.map[p] = ns.map[p].min(my_rank).min(*sender_rank);
                }
                Self::merge_map(ns, map);
                // Schedule bookkeeping: the sender holds the token.
                ns.speaker = *sender_rank;
                if *remaining == 0 {
                    ns.speaker = Self::next_rank(n_ranks, *sender_rank);
                    if ns.speaker == my_rank && !ns.in_turn {
                        Self::begin_turn(ns, node, my_rank, ctx);
                    }
                }
                Self::arm_timer(fi, node, ctx);
                if node == f.dst {
                    Self::dst_check_complete(f, ctx);
                } else {
                    Self::maybe_enter_endgame(f, node, ctx);
                }
            }
            ExorPayload::Direct { flow, batch, seq } => {
                if frame.dst != Some(node) {
                    return;
                }
                let Some(fi) = mesh_sim::flow_index(*flow, self.flows.len()) else {
                    return;
                };
                let f = &mut self.flows[fi];
                if f.is_done() {
                    return;
                }
                if node == f.dst {
                    // A stale endgame packet is dropped; a later batch
                    // means the endgame outran the broadcasts of this one.
                    if !f.catch_up(node, *batch) {
                        return;
                    }
                    let ns = &mut f.nodes[node.0];
                    let p = *seq as usize;
                    if p < ns.holds.len() {
                        ns.holds[p] = true;
                        ns.map[p] = 0;
                    }
                    Self::dst_check_complete(f, ctx);
                } else {
                    // Relay toward the destination — even for batches this
                    // node has no broadcast state for (it may not be a
                    // forwarder at all, just an ETX-path hop).
                    f.nodes[node.0].direct_queue.push_back((*batch, *seq));
                    ctx.mark_backlogged(node);
                }
            }
            ExorPayload::BatchDone { flow, batch } => {
                let Some(fi) = mesh_sim::flow_index(*flow, self.flows.len()) else {
                    return;
                };
                let f = &mut self.flows[fi];
                // BatchDone is a point-to-point relay toward the source;
                // overhearers ignore it.
                if frame.dst != Some(node) {
                    return;
                }
                if f.halted {
                    return; // a withdrawn flow relays nothing
                }
                if node == f.src {
                    if *batch >= f.src_batch && !f.is_done() {
                        Self::advance_src_batch(f, *batch + 1, ctx);
                    }
                } else {
                    f.nodes[node.0].done_queue.push_back(*batch);
                    ctx.mark_backlogged(node);
                }
            }
        }
    }

    fn on_tx_done(
        &mut self,
        node: NodeId,
        outcome: TxOutcome,
        payload: ExorPayload,
        ctx: &mut Ctx<'_>,
    ) {
        match outcome {
            TxOutcome::Broadcast => {
                // If my turn just ended (queue drained), pass the token on
                // my own schedule view.
                for (fi, f) in self.flows.iter_mut().enumerate() {
                    let Some(my_rank) = f.rank_of[node.0] else {
                        continue;
                    };
                    let n_ranks = f.n_ranks();
                    let ns = &mut f.nodes[node.0];
                    if ns.in_turn && ns.turn_queue.is_empty() {
                        ns.in_turn = false;
                        ns.speaker = Self::next_rank(n_ranks, my_rank);
                        Self::arm_timer(fi, node, ctx);
                    }
                }
            }
            // The unicast made it; it left its pending queue at poll time.
            TxOutcome::Acked { .. } => ctx.mark_backlogged(node),
            TxOutcome::Failed { .. } | TxOutcome::Dropped(_) => {
                // A reliable unicast the MAC gave up on or the queue
                // dropped goes back to the head of the queue it was polled
                // from; try again.
                match payload {
                    ExorPayload::Direct { flow, batch, seq } => {
                        if let Some(ns) = self.live_node(flow, node) {
                            ns.direct_queue.push_front((batch, seq));
                        }
                    }
                    ExorPayload::BatchDone { flow, batch } => {
                        if let Some(ns) = self.live_node(flow, node) {
                            ns.done_queue.push_front(batch);
                        }
                    }
                    // A dropped broadcast is just an unheard transmission.
                    ExorPayload::Data { .. } => return,
                }
                ctx.mark_backlogged(node);
            }
        }
    }

    fn poll_tx(&mut self, node: NodeId, _ctx: &mut Ctx<'_>) -> Option<OutFrame<ExorPayload>> {
        let nf = self.flows.len();
        if nf == 0 {
            return None;
        }
        // 1. Reliable control/endgame unicasts first: a flow's `BatchDone`
        // toward the source before its endgame packets. Popped now (not on
        // MAC ack): the frame comes back through on_tx_done, which
        // re-queues it if it was not delivered.
        for f in &mut self.flows {
            let ns = &mut f.nodes[node.0];
            let (nh, bytes, payload) =
                if let (Some(&batch), Some(nh)) = (ns.done_queue.front(), f.to_src[node.0]) {
                    ns.done_queue.pop_front();
                    let payload = ExorPayload::BatchDone { flow: f.id, batch };
                    (nh, CONTROL_FRAME_BYTES, payload)
                } else if let (Some(&(batch, seq)), Some(nh)) =
                    (ns.direct_queue.front(), f.to_dst[node.0])
                {
                    ns.direct_queue.pop_front();
                    let payload = ExorPayload::Direct {
                        flow: f.id,
                        batch,
                        seq,
                    };
                    (nh, PACKET_FRAME_BYTES, payload)
                } else {
                    continue;
                };
            return Some(OutFrame {
                dst: Some(nh),
                bytes,
                bitrate: None,
                flow: Some(f.id),
                payload,
            });
        }
        // 2. Turn-based broadcasts.
        let start = self.rr[node.0] % nf;
        for step in 0..nf {
            let fi = (start + step) % nf;
            let f = &mut self.flows[fi];
            if f.is_done() {
                continue;
            }
            let Some(my_rank) = f.rank_of[node.0] else {
                continue;
            };
            let ns = &mut f.nodes[node.0];
            if !ns.in_turn {
                continue;
            }
            // An empty turn is one map-only frame that passes the token
            // explicitly.
            let seq = ns.turn_queue.pop_front();
            if let Some(seq) = seq {
                ns.map[seq as usize] = ns.map[seq as usize].min(my_rank);
            }
            let bytes = seq.map_or(CONTROL_FRAME_BYTES, |_| PACKET_FRAME_BYTES);
            self.rr[node.0] = fi + 1;
            return Some(OutFrame {
                dst: None,
                bytes: bytes + ns.map.len(),
                bitrate: None,
                flow: Some(f.id),
                payload: ExorPayload::Data {
                    flow: f.id,
                    batch: ns.batch,
                    seq,
                    sender_rank: my_rank,
                    remaining: ns.turn_queue.len() as u16,
                    map: Bytes::copy_from_slice(&ns.map),
                },
            });
        }
        None
    }

    fn on_timer(&mut self, node: NodeId, token: u64, ctx: &mut Ctx<'_>) {
        let fi = usize::try_from(token).unwrap_or(usize::MAX);
        let Some(f) = self.flows.get_mut(fi) else {
            return;
        };
        let Some(my_rank) = f.rank_of[node.0] else {
            return;
        };
        if f.is_done() {
            return;
        }
        let n_ranks = f.n_ranks();
        let ns = &mut f.nodes[node.0];
        if ns.in_turn {
            return; // we are the ones transmitting
        }
        // Silence: advance the schedule locally.
        ns.speaker = Self::next_rank(n_ranks, ns.speaker);
        if ns.speaker == my_rank {
            Self::begin_turn(ns, node, my_rank, ctx);
        }
        Self::arm_timer(fi, node, ctx);
    }
}

impl ExorAgent {
    /// Destination-side completion check: on a full batch, queue the
    /// reliable `BatchDone` and credit progress.
    fn dst_check_complete(f: &mut ExorFlow, ctx: &mut Ctx<'_>) {
        let dstid = f.dst;
        let ns = &mut f.nodes[dstid.0];
        if !ns.holds.iter().all(|&h| h) {
            return;
        }
        let batch = ns.batch;
        if f.dst_complete_through.is_some_and(|b| b >= batch) {
            return; // already credited and BatchDone queued
        }
        f.dst_complete_through = Some(batch);
        ns.done_queue.push_back(batch);
        if batch + 1 == f.n_batches() {
            f.completed_at = Some(ctx.now());
        }
        ctx.mark_backlogged(dstid);
    }

    /// Source advances to `next` batch and opens it with a fresh burst.
    fn advance_src_batch(f: &mut ExorFlow, next: u32, ctx: &mut Ctx<'_>) {
        f.src_batch = next;
        if f.is_done() {
            return;
        }
        let k = f.k_of(next);
        let src_rank = f.n_ranks() - 1;
        let srcid = f.src;
        let ns = &mut f.nodes[srcid.0];
        ns.reset_for(next, k, src_rank);
        ns.holds = vec![true; k];
        ns.map = vec![src_rank; k];
        Self::begin_turn(ns, srcid, src_rank, ctx);
    }
}

impl mesh_sim::FlowAgent for ExorAgent {
    fn flows_done(&self) -> bool {
        self.flows.iter().all(ExorFlow::is_done)
    }

    /// Delivered: every batch the destination has fully received, each
    /// full size but a short last one. Done once the source has advanced
    /// past the last batch.
    fn flow_progress(&self, index: usize) -> mesh_sim::FlowProgressView {
        let f = &self.flows[index];
        let batches = f.dst_complete_through.map_or(0, |b| b as usize + 1);
        mesh_sim::FlowProgressView {
            delivered: (batches * f.k).min(f.total),
            completed_at: f.completed_at,
            done: f.sent_all(),
        }
    }

    /// Registers a transfer under the next flow id ([`mesh_sim::flow_id`]
    /// of its index) and arms the source with its first batch; returns the
    /// flow's index. Kick the source to start.
    fn add_flow(&mut self, desc: &mesh_sim::FlowDesc) -> usize {
        assert_eq!(
            desc.dsts.len(),
            1,
            "ExOR's scheduler is strictly unicast; multicast arrivals are unsupported"
        );
        let (src, dst, total) = (desc.src, desc.dst(), desc.packets);
        assert!(total > 0, "empty transfer");
        let n = self.topo.n();
        let etx = EtxTable::compute(&self.topo, dst, LinkCost::Forward);
        // The same forwarder selection as MORE's, for a fair comparison.
        let plan = ForwarderPlan::compute(
            &self.topo,
            src,
            dst,
            etx.distances(),
            &PlanConfig::default(),
        );
        assert!(
            plan.order.len() <= NO_HOLDER as usize,
            "too many participants for u8 ranks"
        );
        let mut rank_of = vec![None; n];
        for (r, &node) in plan.order.iter().enumerate() {
            rank_of[node.0] = Some(r as u8);
        }
        // Reliable unicasts (endgame packets, BatchDone) need MAC ACKs,
        // so their next-hop tables use the forward-reverse ETX.
        let etx_fr = EtxTable::compute(&self.topo, dst, LinkCost::ForwardReverse);
        let to_dst = (0..n).map(|i| etx_fr.next_hop(NodeId(i))).collect();
        let etx_src = EtxTable::compute(&self.topo, src, LinkCost::ForwardReverse);
        let to_src = (0..n).map(|i| etx_src.next_hop(NodeId(i))).collect();
        let k0 = self.cfg.k.min(total);
        let src_rank = (plan.order.len() - 1) as u8;
        let mut nodes: Vec<NodeState> = (0..n).map(|_| NodeState::new(k0)).collect();
        for ns in &mut nodes {
            ns.speaker = src_rank; // the source opens the batch
        }
        // The source holds everything, and opens with a turn over it.
        let src_state = &mut nodes[src.0];
        src_state.holds = vec![true; k0];
        src_state.map = vec![src_rank; k0];
        src_state.turn_queue = (0..k0 as u32).collect();
        src_state.in_turn = true;
        self.flows.push(ExorFlow {
            id: mesh_sim::flow_id(self.flows.len()),
            src,
            dst,
            total,
            k: self.cfg.k,
            plan,
            rank_of,
            to_dst,
            to_src,
            nodes,
            src_batch: 0,
            dst_complete_through: None,
            completed_at: None,
            halted: false,
        });
        self.flows.len() - 1
    }

    /// Turns end, queued endgame and `BatchDone` unicasts are dropped,
    /// and the flow counts as resolved.
    fn end_flow(&mut self, index: usize) {
        let f = &mut self.flows[index];
        f.halted = true;
        for ns in &mut f.nodes {
            ns.turn_queue.clear();
            ns.in_turn = false;
            ns.direct_queue.clear();
            ns.done_queue.clear();
        }
    }
}

#[cfg(test)]
mod test {
    use super::*;
    use mesh_sim::{FlowAgent, FlowDesc, SimConfig, Simulator, SEC};
    use mesh_topology::generate;

    fn run(
        topo: Topology,
        cfg: ExorConfig,
        src: usize,
        dst: usize,
        total: usize,
        seed: u64,
    ) -> (Simulator<ExorAgent>, usize) {
        let mut agent = ExorAgent::new(topo.clone(), cfg);
        let fi = agent.add_flow(&FlowDesc::unicast(NodeId(src), NodeId(dst), total));
        let mut sim = Simulator::new(topo, SimConfig::default(), agent, seed);
        sim.kick(NodeId(src));
        sim.run_until(900 * SEC, |a: &ExorAgent| a.flows_done());
        (sim, fi)
    }

    #[test]
    fn one_hop_batch_completes() {
        let topo = generate::line(1, 0.8, 0.0, 20.0);
        let (sim, fi) = run(topo, ExorConfig::default(), 0, 1, 32, 1);
        let p = sim.agent.flow_progress(fi);
        assert!(p.done, "flow did not finish");
        assert_eq!(p.delivered, 32);
    }

    #[test]
    fn relay_line_completes() {
        let topo = generate::line(3, 0.7, 0.3, 25.0);
        let (sim, fi) = run(topo, ExorConfig::default(), 0, 3, 32, 2);
        let p = sim.agent.flow_progress(fi);
        assert!(p.done, "relay flow stuck");
        assert_eq!(p.delivered, 32);
    }

    #[test]
    fn multiple_batches_complete() {
        let topo = generate::line(2, 0.8, 0.2, 25.0);
        let (sim, fi) = run(topo, ExorConfig::default(), 0, 2, 96, 3);
        let p = sim.agent.flow_progress(fi);
        assert!(p.done);
        assert_eq!(p.delivered, 96);
        assert_eq!(sim.agent.flows[fi].dst_complete_through, Some(2));
    }

    #[test]
    fn testbed_transfer_completes() {
        let topo = generate::testbed(1);
        let (sim, fi) = run(topo, ExorConfig::default(), 0, 19, 64, 4);
        let p = sim.agent.flow_progress(fi);
        assert!(p.done, "testbed ExOR flow stuck");
        assert_eq!(p.delivered, 64);
    }

    #[test]
    fn schedule_prevents_concurrent_data() {
        // A single ExOR flow on a long line should show almost no
        // concurrent airtime — the scheduler serializes transmissions.
        let topo = generate::line(4, 0.85, 0.2, 30.0);
        let (sim, fi) = run(topo, ExorConfig::default(), 0, 4, 64, 5);
        assert!(sim.agent.flow_progress(fi).done);
        let concurrent = sim.stats.concurrent_airtime as f64;
        let total = sim.stats.total_airtime() as f64;
        assert!(
            concurrent / total < 0.12,
            "ExOR overlapped {:.1}% of airtime — schedule broken",
            100.0 * concurrent / total
        );
    }

    #[test]
    fn small_batches_pay_more_overhead() {
        // Fig 4-7's mechanism: with K=8 the per-batch control traffic
        // (gossip turns, BatchDone trips) amortizes over fewer packets.
        let topo = generate::line(2, 0.8, 0.2, 25.0);
        let (sim8, fi8) = run(topo.clone(), ExorConfig { k: 8 }, 0, 2, 64, 6);
        let (sim64, fi64) = run(topo, ExorConfig { k: 64 }, 0, 2, 64, 6);
        let t8 = sim8.agent.flow_progress(fi8).completed_at.unwrap();
        let t64 = sim64.agent.flow_progress(fi64).completed_at.unwrap();
        assert!(
            t8 > t64,
            "K=8 ({t8} µs) should be slower than K=64 ({t64} µs)"
        );
    }
}
