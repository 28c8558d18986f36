//! ExOR: opportunistic routing with a strict transmission schedule
//! (Biswas & Morris, SIGCOMM 2005; thesis §2.2.1).
//!
//! The file moves in batches. Every data frame carries a *batch map* — for
//! each packet, the priority (ETX rank, 0 = destination) of the closest
//! node known to hold it. Forwarders transmit strictly one at a time in a
//! round-robin schedule ordered by ETX ("dst > C > B > A > src"): a node
//! takes its turn when it hears its predecessor finish (a frame with
//! `remaining == 0`) or when a silence timeout expires — the "fragile
//! timing estimates" the thesis calls out. During its turn a node sends
//! only packets that, per its local map, no closer node holds; the
//! destination uses its (highest-priority) turn to gossip its map, which
//! is how batch ACK information propagates back.
//!
//! When a node's map shows the destination holding ≥ 90 % of the batch,
//! the remaining packets travel by traditional unicast routing along the
//! ETX path (the ExOR endgame), and the destination reliably unicasts a
//! `BatchDone` back to the source, which then starts the next batch.
//!
//! Because only the schedule's current speaker may transmit, a single
//! ExOR flow cannot exploit spatial reuse — the structural cost MORE
//! removes (§4.2.3).

// xtask: allow(panic_path, file) -- ExOR per-flow state (batch maps, forwarder lists, per-node queues) is sized to the participant set fixed at flow setup; node and sequence indices are checked against that set on receive before any indexed access.

use bytes::Bytes;
use mesh_metrics::etx::LinkCost;
use mesh_metrics::{EtxTable, ForwarderPlan, PlanConfig};
use mesh_sim::{Ctx, Frame, NodeAgent, OutFrame, Time, TxOutcome};
use mesh_topology::{NodeId, Topology};
use std::collections::VecDeque;

/// "No known holder" sentinel in batch maps.
const NO_HOLDER: u8 = u8::MAX;

/// ExOR parameters.
#[derive(Clone, Copy, Debug)]
pub struct ExorConfig {
    /// Batch size K (32 in the evaluation; Fig 4-7 sweeps 8–128).
    pub k: usize,
    /// Native packet size on the air.
    pub packet_bytes: usize,
    /// Extra header bytes beyond the K-byte batch map.
    pub header_extra: usize,
    /// Silence gap after which the schedule advances locally.
    pub gap_timeout: Time,
    /// Fraction of the batch at the destination that ends the
    /// opportunistic phase (ExOR uses 90 %).
    pub completion_fraction: f64,
    /// Forwarder selection (shared with MORE for a fair comparison).
    pub plan: PlanConfig,
}

impl Default for ExorConfig {
    fn default() -> Self {
        ExorConfig {
            k: 32,
            packet_bytes: 1500,
            header_extra: 24,
            gap_timeout: 15_000,
            completion_fraction: 0.9,
            plan: PlanConfig::default(),
        }
    }
}

/// What an ExOR frame carries.
#[derive(Clone, Debug)]
pub enum ExorPayload {
    /// A batch data packet, broadcast during the sender's turn.
    Data {
        flow: u32,
        batch: u32,
        seq: u32,
        sender_rank: u8,
        /// Packets the sender will still transmit this turn (0 ⇒ the turn
        /// passes to the next rank).
        remaining: u16,
        /// Batch map: best-known holder rank per packet. Refcounted so the
        /// engine's per-receiver frame clone is O(1), not a map copy.
        map: Bytes,
    },
    /// A map-only frame: the destination's slot, or an empty turn's
    /// explicit handoff.
    Gossip {
        flow: u32,
        batch: u32,
        sender_rank: u8,
        map: Bytes,
    },
    /// Endgame unicast of a straggler packet along the ETX path.
    Direct { flow: u32, batch: u32, seq: u32 },
    /// Reliable hop-by-hop notification that the batch is complete.
    BatchDone { flow: u32, batch: u32 },
}

/// Per-flow measurement results.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExorProgress {
    /// Packets that reached the destination.
    pub delivered: usize,
    /// Batches fully received.
    pub completed_batches: u32,
    /// Time the final packet arrived.
    pub completed_at: Option<Time>,
    /// The source has advanced past the last batch.
    pub done: bool,
}

/// Per-node, per-flow schedule and batch state.
struct NodeState {
    batch: u32,
    /// Packets of the current batch this node holds.
    holds: Vec<bool>,
    /// Best-known holder rank per packet.
    map: Vec<u8>,
    /// Whose turn the node believes it is (rank index).
    speaker: u8,
    /// Timer generation (stale-timer rejection).
    timer_gen: u64,
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
            timer_gen: 0,
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

    fn dst_has(&self) -> usize {
        self.map.iter().filter(|&&m| m == 0).count()
    }
}

struct ExorFlow {
    id: u32,
    src: NodeId,
    dst: NodeId,
    total: usize,
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
    progress: ExorProgress,
    /// Withdrawn mid-run by a dynamic workload: the schedule goes silent
    /// and the flow counts as resolved.
    halted: bool,
}

impl ExorFlow {
    fn n_batches(&self, cfg: &ExorConfig) -> u32 {
        self.total.div_ceil(cfg.k) as u32
    }

    fn k_of(&self, cfg: &ExorConfig, b: u32) -> usize {
        let nb = self.n_batches(cfg);
        if b + 1 < nb || self.total.is_multiple_of(cfg.k) {
            cfg.k
        } else {
            self.total % cfg.k
        }
    }

    fn n_ranks(&self) -> u8 {
        self.plan.order.len() as u8
    }

    fn is_done(&self, cfg: &ExorConfig) -> bool {
        self.halted || self.src_batch >= self.n_batches(cfg)
    }
}

/// A reliable unicast a node has handed to its MAC, with everything
/// needed to re-queue it on failure or queue drop.
#[derive(Clone, Copy)]
enum InFlight {
    Direct { fi: usize, batch: u32, seq: u32 },
    Done { fi: usize, batch: u32 },
}

/// ExOR for a whole mesh; one instance drives all nodes.
pub struct ExorAgent {
    cfg: ExorConfig,
    topo: Topology,
    flows: Vec<ExorFlow>,
    rr: Vec<usize>,
    /// Reliable unicasts each node has handed to the MAC, oldest first.
    /// A FIFO rather than a slot because a bounded transmit queue may
    /// poll several frames before the first outcome arrives; unicast
    /// outcomes come back in poll order (broadcasts report
    /// [`TxOutcome::Broadcast`] and never enter this FIFO).
    outstanding: Vec<VecDeque<InFlight>>,
}

impl ExorAgent {
    pub fn new(topo: Topology, cfg: ExorConfig) -> Self {
        let n = topo.n();
        ExorAgent {
            cfg,
            topo,
            flows: Vec::new(),
            rr: vec![0; n],
            outstanding: vec![VecDeque::new(); n],
        }
    }

    /// Puts a reliable unicast the MAC could not deliver (or the queue
    /// dropped) back at the head of the queue it was polled from.
    fn requeue_unicast(&mut self, node: NodeId, inf: InFlight) {
        match inf {
            InFlight::Direct { fi, batch, seq } => {
                let f = &mut self.flows[fi];
                if !f.halted {
                    f.nodes[node.0].direct_queue.push_front((batch, seq));
                }
            }
            InFlight::Done { fi, batch } => {
                let f = &mut self.flows[fi];
                if !f.halted {
                    f.nodes[node.0].done_queue.push_front(batch);
                }
            }
        }
    }

    /// Registers a transfer under the next flow id (index + 1) and arms
    /// the source with its first batch; returns the flow's index. Kick
    /// `src` to start.
    pub fn add_flow(&mut self, src: NodeId, dst: NodeId, total: usize) -> usize {
        assert!(total > 0, "empty transfer");
        let n = self.topo.n();
        let etx = EtxTable::compute(&self.topo, dst, LinkCost::Forward);
        let plan = ForwarderPlan::compute(&self.topo, src, dst, etx.distances(), &self.cfg.plan);
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
            id: self.flows.len() as u32 + 1,
            src,
            dst,
            total,
            plan,
            rank_of,
            to_dst,
            to_src,
            nodes,
            src_batch: 0,
            dst_complete_through: None,
            progress: ExorProgress::default(),
            halted: false,
        });
        self.flows.len() - 1
    }

    /// Withdraws flow `index` mid-run: turns end, queued endgame and
    /// `BatchDone` unicasts are dropped, and the flow counts as resolved.
    pub fn halt_flow(&mut self, index: usize) {
        let f = &mut self.flows[index];
        f.halted = true;
        for ns in &mut f.nodes {
            ns.turn_queue.clear();
            ns.in_turn = false;
            ns.direct_queue.clear();
            ns.done_queue.clear();
        }
    }

    pub fn progress(&self, index: usize) -> &ExorProgress {
        &self.flows[index].progress
    }

    pub fn all_done(&self) -> bool {
        self.flows.iter().all(|f| f.progress.done || f.halted)
    }

    /// Flow index by wire id: ids are handed out as index + 1.
    fn flow_index(&self, id: u32) -> Option<usize> {
        (id as usize)
            .checked_sub(1)
            .filter(|&fi| fi < self.flows.len())
    }

    /// Timer token packing: flow index in the high bits, generation low.
    fn token(fi: usize, gen: u64) -> u64 {
        ((fi as u64) << 40) | (gen & 0xFF_FFFF_FFFF)
    }

    fn untoken(token: u64) -> (usize, u64) {
        ((token >> 40) as usize, token & 0xFF_FFFF_FFFF)
    }

    /// Re-arms the silence timer for `node` on flow `fi`.
    fn arm_timer(cfg: &ExorConfig, fi: usize, ns: &mut NodeState, node: NodeId, ctx: &mut Ctx<'_>) {
        ns.timer_gen += 1;
        ctx.set_timer(node, cfg.gap_timeout, Self::token(fi, ns.timer_gen));
    }

    /// Advances the local schedule pointer past `from`.
    fn next_rank(n_ranks: u8, from: u8) -> u8 {
        (from + 1) % n_ranks
    }

    /// Node `node` believes it now holds the token: build its turn.
    fn begin_turn(
        f: &mut ExorFlow,
        cfg: &ExorConfig,
        node: NodeId,
        my_rank: u8,
        ctx: &mut Ctx<'_>,
    ) {
        let k = f.k_of(cfg, f.nodes[node.0].batch);
        let threshold = (cfg.completion_fraction * k as f64).ceil() as usize;
        let ns = &mut f.nodes[node.0];
        ns.turn_queue.clear();
        // The destination (rank 0) only gossips. Once the destination is
        // known to hold >= 90% of the batch, the opportunistic rounds stop
        // queueing data — the endgame unicasts carry the stragglers.
        if my_rank > 0 && ns.dst_has() < threshold {
            for p in 0..k {
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

    /// Merge a heard map into local state; returns true if anything
    /// changed (used to trigger the endgame check).
    fn merge_map(ns: &mut NodeState, heard: &[u8]) {
        for (m, &h) in ns.map.iter_mut().zip(heard) {
            *m = (*m).min(h);
        }
    }

    /// The endgame: once the destination has ≥ completion_fraction of the
    /// batch, the best-known holder of each straggler unicasts it.
    fn maybe_enter_endgame(f: &mut ExorFlow, cfg: &ExorConfig, node: NodeId, ctx: &mut Ctx<'_>) {
        let Some(rank) = f.rank_of[node.0] else {
            return;
        };
        if node == f.dst {
            return;
        }
        let k = f.k_of(cfg, f.nodes[node.0].batch);
        let ns = &mut f.nodes[node.0];
        let threshold = (cfg.completion_fraction * k as f64).ceil() as usize;
        if ns.dst_has() < threshold {
            return;
        }
        let mut queued = false;
        for p in 0..k {
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
        let cfg = self.cfg;
        match &frame.payload {
            ExorPayload::Data {
                flow,
                batch,
                seq,
                sender_rank,
                remaining,
                map,
            } => {
                let Some(fi) = self.flow_index(*flow) else {
                    return;
                };
                let f = &mut self.flows[fi];
                let Some(my_rank) = f.rank_of[node.0] else {
                    return;
                };
                if f.is_done(&cfg) {
                    return;
                }
                let ns = &mut f.nodes[node.0];
                if *batch < ns.batch {
                    return;
                }
                if *batch > ns.batch {
                    let k_new = f.k_of(&cfg, *batch);
                    let n_ranks = f.n_ranks();
                    f.nodes[node.0].reset_for(*batch, k_new, n_ranks - 1);
                }
                let k = f.k_of(&cfg, *batch);
                let n_ranks = f.n_ranks();
                let ns = &mut f.nodes[node.0];
                // Store the packet and merge the map.
                let p = *seq as usize;
                if p < k {
                    ns.holds[p] = true;
                    ns.map[p] = ns.map[p].min(my_rank).min(*sender_rank);
                }
                Self::merge_map(ns, map);
                // Schedule bookkeeping: the sender holds the token.
                ns.speaker = *sender_rank;
                if *remaining == 0 {
                    let nxt = Self::next_rank(n_ranks, *sender_rank);
                    ns.speaker = nxt;
                    if nxt == my_rank && !ns.in_turn {
                        Self::begin_turn(f, &cfg, node, my_rank, ctx);
                        let ns = &mut f.nodes[node.0];
                        Self::arm_timer(&cfg, fi, ns, node, ctx);
                        if node == f.dst {
                            Self::dst_check_complete(f, &cfg, ctx);
                        } else {
                            Self::maybe_enter_endgame(f, &cfg, node, ctx);
                        }
                        return;
                    }
                }
                Self::arm_timer(&cfg, fi, &mut f.nodes[node.0], node, ctx);
                if node == f.dst {
                    Self::dst_check_complete(f, &cfg, ctx);
                } else {
                    Self::maybe_enter_endgame(f, &cfg, node, ctx);
                }
            }
            ExorPayload::Gossip {
                flow,
                batch,
                sender_rank,
                map,
            } => {
                let Some(fi) = self.flow_index(*flow) else {
                    return;
                };
                let f = &mut self.flows[fi];
                let Some(my_rank) = f.rank_of[node.0] else {
                    return;
                };
                if f.is_done(&cfg) {
                    return;
                }
                let ns = &mut f.nodes[node.0];
                if *batch < ns.batch {
                    return;
                }
                if *batch > ns.batch {
                    let k_new = f.k_of(&cfg, *batch);
                    let n_ranks = f.n_ranks();
                    f.nodes[node.0].reset_for(*batch, k_new, n_ranks - 1);
                }
                let n_ranks = f.n_ranks();
                let ns = &mut f.nodes[node.0];
                Self::merge_map(ns, map);
                let nxt = Self::next_rank(n_ranks, *sender_rank);
                ns.speaker = nxt;
                if nxt == my_rank && !ns.in_turn {
                    Self::begin_turn(f, &cfg, node, my_rank, ctx);
                }
                Self::arm_timer(&cfg, fi, &mut f.nodes[node.0], node, ctx);
                if node == f.dst {
                    Self::dst_check_complete(f, &cfg, ctx);
                } else {
                    Self::maybe_enter_endgame(f, &cfg, node, ctx);
                }
            }
            ExorPayload::Direct { flow, batch, seq } => {
                if frame.dst != Some(node) {
                    return;
                }
                let Some(fi) = self.flow_index(*flow) else {
                    return;
                };
                let f = &mut self.flows[fi];
                if f.is_done(&cfg) {
                    return;
                }
                if node == f.dst {
                    let ns = &mut f.nodes[node.0];
                    if *batch < ns.batch {
                        return; // stale endgame packet
                    }
                    if *batch > ns.batch {
                        // The endgame outran the broadcasts of this batch.
                        let k_new = f.k_of(&cfg, *batch);
                        let n_ranks = f.n_ranks();
                        f.nodes[node.0].reset_for(*batch, k_new, n_ranks - 1);
                    }
                    let ns = &mut f.nodes[node.0];
                    let p = *seq as usize;
                    if p < ns.holds.len() {
                        ns.holds[p] = true;
                        ns.map[p] = 0;
                    }
                    Self::dst_check_complete(f, &cfg, ctx);
                } else {
                    // Relay toward the destination — even for batches this
                    // node has no broadcast state for (it may not be a
                    // forwarder at all, just an ETX-path hop).
                    f.nodes[node.0].direct_queue.push_back((*batch, *seq));
                    ctx.mark_backlogged(node);
                }
            }
            ExorPayload::BatchDone { flow, batch } => {
                let Some(fi) = self.flow_index(*flow) else {
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
                    if *batch >= f.src_batch && !f.is_done(&cfg) {
                        Self::advance_src_batch(f, &cfg, *batch + 1, ctx);
                    }
                } else {
                    f.nodes[node.0].done_queue.push_back(*batch);
                    ctx.mark_backlogged(node);
                }
            }
        }
    }

    fn on_tx_done(&mut self, node: NodeId, outcome: TxOutcome, ctx: &mut Ctx<'_>) {
        match outcome {
            TxOutcome::Broadcast => {
                // If my turn just ended (queue drained), pass the token on
                // my own schedule view.
                for fi in 0..self.flows.len() {
                    let cfg = self.cfg;
                    let f = &mut self.flows[fi];
                    let Some(my_rank) = f.rank_of[node.0] else {
                        continue;
                    };
                    let n_ranks = f.n_ranks();
                    let ns = &mut f.nodes[node.0];
                    if ns.in_turn && ns.turn_queue.is_empty() {
                        ns.in_turn = false;
                        ns.speaker = Self::next_rank(n_ranks, my_rank);
                        Self::arm_timer(&cfg, fi, ns, node, ctx);
                    }
                }
            }
            TxOutcome::Acked { .. } => {
                // The oldest outstanding unicast made it; it was already
                // removed from its pending queue at poll time.
                if self.outstanding[node.0].pop_front().is_some() {
                    ctx.mark_backlogged(node);
                }
            }
            TxOutcome::Failed { .. } => {
                // Re-queue at the front; try again.
                if let Some(inf) = self.outstanding[node.0].pop_front() {
                    self.requeue_unicast(node, inf);
                }
                ctx.mark_backlogged(node);
            }
        }
    }

    fn poll_tx(&mut self, node: NodeId, _ctx: &mut Ctx<'_>) -> Option<OutFrame<ExorPayload>> {
        let cfg = self.cfg;
        let nf = self.flows.len();
        if nf == 0 {
            return None;
        }
        // 1. Reliable control/endgame unicasts first.
        for fi in 0..nf {
            let f = &self.flows[fi];
            let ns = &f.nodes[node.0];
            if let Some(&batch) = ns.done_queue.front() {
                if let Some(nh) = f.to_src[node.0] {
                    let id = f.id;
                    // Popped now (not on MAC ack): the frame's fate comes
                    // back via on_tx_done/on_queue_drop, both of which
                    // consult the outstanding FIFO.
                    self.flows[fi].nodes[node.0].done_queue.pop_front();
                    self.outstanding[node.0].push_back(InFlight::Done { fi, batch });
                    return Some(OutFrame {
                        dst: Some(nh),
                        bytes: 30,
                        bitrate: None,
                        flow: Some(id),
                        payload: ExorPayload::BatchDone { flow: id, batch },
                    });
                }
            }
            let f = &self.flows[fi];
            let ns = &f.nodes[node.0];
            if let Some(&(batch, seq)) = ns.direct_queue.front() {
                if let Some(nh) = f.to_dst[node.0] {
                    let id = f.id;
                    self.flows[fi].nodes[node.0].direct_queue.pop_front();
                    self.outstanding[node.0].push_back(InFlight::Direct { fi, batch, seq });
                    return Some(OutFrame {
                        dst: Some(nh),
                        bytes: cfg.packet_bytes + cfg.header_extra,
                        bitrate: None,
                        flow: Some(id),
                        payload: ExorPayload::Direct {
                            flow: id,
                            batch,
                            seq,
                        },
                    });
                }
            }
        }
        // 2. Turn-based broadcasts.
        let start = self.rr[node.0] % nf;
        for step in 0..nf {
            let fi = (start + step) % nf;
            let f = &mut self.flows[fi];
            if f.is_done(&cfg) {
                continue;
            }
            let Some(my_rank) = f.rank_of[node.0] else {
                continue;
            };
            let ns = &mut f.nodes[node.0];
            if !ns.in_turn {
                continue;
            }
            let k = ns.holds.len();
            if let Some(seq) = ns.turn_queue.pop_front() {
                ns.map[seq as usize] = ns.map[seq as usize].min(my_rank);
                let remaining = ns.turn_queue.len() as u16;
                let map = Bytes::copy_from_slice(&ns.map);
                self.rr[node.0] = fi + 1;
                return Some(OutFrame {
                    dst: None,
                    bytes: cfg.packet_bytes + cfg.header_extra + k,
                    bitrate: None,
                    flow: Some(f.id),
                    payload: ExorPayload::Data {
                        flow: f.id,
                        batch: ns.batch,
                        seq,
                        sender_rank: my_rank,
                        remaining,
                        map,
                    },
                });
            }
            // Empty turn: one gossip frame passes the token explicitly.
            let map = Bytes::copy_from_slice(&ns.map);
            let batch = ns.batch;
            self.rr[node.0] = fi + 1;
            return Some(OutFrame {
                dst: None,
                bytes: 30 + k,
                bitrate: None,
                flow: Some(f.id),
                payload: ExorPayload::Gossip {
                    flow: f.id,
                    batch,
                    sender_rank: my_rank,
                    map,
                },
            });
        }
        None
    }

    fn on_queue_drop(
        &mut self,
        node: NodeId,
        payload: ExorPayload,
        _cause: mesh_sim::queue::DropCause,
        ctx: &mut Ctx<'_>,
    ) {
        // Reliable unicasts must survive a queue drop: retract the
        // outstanding entry and re-queue. Dropped broadcasts are just
        // unheard transmissions; their payloads hold nothing pooled.
        let removed = match payload {
            ExorPayload::Direct { flow, batch, seq } => self.flow_index(flow).and_then(|fi| {
                let out = &mut self.outstanding[node.0];
                out.iter()
                    .rposition(|inf| {
                        matches!(inf, InFlight::Direct { fi: i, batch: b, seq: s }
                                if *i == fi && *b == batch && *s == seq)
                    })
                    .and_then(|pos| out.remove(pos))
            }),
            ExorPayload::BatchDone { flow, batch } => self.flow_index(flow).and_then(|fi| {
                let out = &mut self.outstanding[node.0];
                out.iter()
                    .rposition(|inf| {
                        matches!(inf, InFlight::Done { fi: i, batch: b }
                            if *i == fi && *b == batch)
                    })
                    .and_then(|pos| out.remove(pos))
            }),
            ExorPayload::Data { .. } | ExorPayload::Gossip { .. } => None,
        };
        if let Some(inf) = removed {
            self.requeue_unicast(node, inf);
            ctx.mark_backlogged(node);
        }
    }

    fn on_timer(&mut self, node: NodeId, token: u64, ctx: &mut Ctx<'_>) {
        let (fi, gen) = Self::untoken(token);
        let cfg = self.cfg;
        let Some(f) = self.flows.get_mut(fi) else {
            return;
        };
        let Some(my_rank) = f.rank_of[node.0] else {
            return;
        };
        if f.is_done(&cfg) {
            return;
        }
        let n_ranks = f.n_ranks();
        let ns = &mut f.nodes[node.0];
        if ns.timer_gen != gen || ns.in_turn {
            return; // stale, or we are the ones transmitting
        }
        // Silence: advance the schedule locally.
        ns.speaker = Self::next_rank(n_ranks, ns.speaker);
        if ns.speaker == my_rank {
            Self::begin_turn(f, &cfg, node, my_rank, ctx);
        }
        Self::arm_timer(&cfg, fi, &mut f.nodes[node.0], node, ctx);
    }
}

impl ExorAgent {
    /// Destination-side completion check: on a full batch, queue the
    /// reliable `BatchDone` and credit progress.
    fn dst_check_complete(f: &mut ExorFlow, cfg: &ExorConfig, ctx: &mut Ctx<'_>) {
        let dstid = f.dst;
        let k = f.k_of(cfg, f.nodes[dstid.0].batch);
        let ns = &mut f.nodes[dstid.0];
        if ns.holds[..k].iter().filter(|&&h| h).count() < k {
            return;
        }
        let batch = ns.batch;
        if f.dst_complete_through.is_some_and(|b| b >= batch) {
            return; // already credited and BatchDone queued
        }
        f.dst_complete_through = Some(batch);
        let ns = &mut f.nodes[dstid.0];
        ns.done_queue.push_back(batch);
        f.progress.delivered += k;
        f.progress.completed_batches += 1;
        let total_batches = f.n_batches(cfg);
        if batch + 1 == total_batches {
            f.progress.completed_at = Some(ctx.now());
        }
        ctx.mark_backlogged(dstid);
    }

    /// Source advances to `next` batch and opens it with a fresh burst.
    fn advance_src_batch(f: &mut ExorFlow, cfg: &ExorConfig, next: u32, ctx: &mut Ctx<'_>) {
        f.src_batch = next;
        if f.is_done(cfg) {
            f.progress.done = true;
            return;
        }
        let k = f.k_of(cfg, next);
        let src_rank = (f.plan.order.len() - 1) as u8;
        let srcid = f.src;
        let ns = &mut f.nodes[srcid.0];
        ns.reset_for(next, k, src_rank);
        ns.holds = vec![true; k];
        ns.map = vec![src_rank; k];
        ns.speaker = src_rank;
        Self::begin_turn(f, cfg, srcid, src_rank, ctx);
    }
}

impl mesh_sim::FlowAgent for ExorAgent {
    fn flows_done(&self) -> bool {
        self.all_done()
    }

    fn flow_progress(&self, index: usize) -> mesh_sim::FlowProgressView {
        let p = self.progress(index);
        mesh_sim::FlowProgressView {
            delivered: p.delivered,
            completed_at: p.completed_at,
            done: p.done,
        }
    }

    fn supports_dynamic_flows(&self) -> bool {
        true
    }

    fn add_flow(&mut self, desc: &mesh_sim::FlowDesc) -> usize {
        assert_eq!(
            desc.dsts.len(),
            1,
            "ExOR's scheduler is strictly unicast; multicast arrivals are unsupported"
        );
        ExorAgent::add_flow(self, desc.src, desc.dst(), desc.packets)
    }

    fn end_flow(&mut self, index: usize) {
        self.halt_flow(index);
    }
}

#[cfg(test)]
mod test {
    use super::*;
    use mesh_sim::{SimConfig, Simulator, SEC};
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
        let fi = agent.add_flow(NodeId(src), NodeId(dst), total);
        let mut sim = Simulator::new(topo, SimConfig::default(), agent, seed);
        sim.kick(NodeId(src));
        sim.run_until(900 * SEC, |a: &ExorAgent| a.all_done());
        (sim, fi)
    }

    #[test]
    fn one_hop_batch_completes() {
        let topo = generate::line(1, 0.8, 0.0, 20.0);
        let (sim, fi) = run(topo, ExorConfig::default(), 0, 1, 32, 1);
        let p = sim.agent.progress(fi);
        assert!(p.done, "flow did not finish");
        assert_eq!(p.delivered, 32);
    }

    #[test]
    fn relay_line_completes() {
        let topo = generate::line(3, 0.7, 0.3, 25.0);
        let (sim, fi) = run(topo, ExorConfig::default(), 0, 3, 32, 2);
        let p = sim.agent.progress(fi);
        assert!(p.done, "relay flow stuck");
        assert_eq!(p.delivered, 32);
    }

    #[test]
    fn multiple_batches_complete() {
        let topo = generate::line(2, 0.8, 0.2, 25.0);
        let (sim, fi) = run(topo, ExorConfig::default(), 0, 2, 96, 3);
        let p = sim.agent.progress(fi);
        assert!(p.done);
        assert_eq!(p.delivered, 96);
        assert_eq!(p.completed_batches, 3);
    }

    #[test]
    fn testbed_transfer_completes() {
        let topo = generate::testbed(1);
        let (sim, fi) = run(topo, ExorConfig::default(), 0, 19, 64, 4);
        let p = sim.agent.progress(fi);
        assert!(p.done, "testbed ExOR flow stuck");
        assert_eq!(p.delivered, 64);
    }

    #[test]
    fn schedule_prevents_concurrent_data() {
        // A single ExOR flow on a long line should show almost no
        // concurrent airtime — the scheduler serializes transmissions.
        let topo = generate::line(4, 0.85, 0.2, 30.0);
        let (sim, fi) = run(topo, ExorConfig::default(), 0, 4, 64, 5);
        assert!(sim.agent.progress(fi).done);
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
        let (sim8, fi8) = run(
            topo.clone(),
            ExorConfig {
                k: 8,
                ..ExorConfig::default()
            },
            0,
            2,
            64,
            6,
        );
        let (sim64, fi64) = run(
            topo,
            ExorConfig {
                k: 64,
                ..ExorConfig::default()
            },
            0,
            2,
            64,
            6,
        );
        let t8 = sim8.agent.progress(fi8).completed_at.unwrap();
        let t64 = sim64.agent.progress(fi64).completed_at.unwrap();
        assert!(
            t8 > t64,
            "K=8 ({t8} µs) should be slower than K=64 ({t64} µs)"
        );
    }
}
