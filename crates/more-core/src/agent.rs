//! The MORE node agent: source / forwarder / destination control flow
//! (thesis §3.3.3, Fig 3-2) over the simulator's MAC callbacks.

// xtask: allow(panic_path, file) -- per-node and per-batch vectors are sized at add_flow / when a batch opens, and row indices are bounded by the tracker's rank checks; decoded-batch verification asserts a deterministic-testfile invariant.

use crate::flow::{BatchState, Destination, FlowId, FlowProgress, MoreFlow, NodeFlowState};
use crate::header::MorePayload;
use crate::{native_byte, ForwarderMetric, MoreConfig};
use mesh_metrics::etx::LinkCost;
use mesh_metrics::{EtxTable, ForwarderPlan};
use mesh_sim::queue::DropCause;
use mesh_sim::{Ctx, Frame, NodeAgent, OutFrame, TxOutcome};
use mesh_topology::{NodeId, Topology};
use rand::Rng;
use rlnc::{pool, CodedPacket, Decoder, ForwarderBuffer, InnovationTracker, SourceEncoder};
use std::collections::VecDeque;

/// Size of a batch-ACK frame on the air (type + ids + MAC framing).
const ACK_BYTES: usize = 30;

/// MORE for a whole mesh: one agent instance drives every node, keeping
/// strictly per-node state per flow (§3.3.2).
pub struct MoreAgent {
    cfg: MoreConfig,
    topo: Topology,
    flows: Vec<MoreFlow>,
    /// Per-node round-robin cursor over flows (§3.3.3: "the node selects a
    /// backlogged flow by round-robin").
    rr: Vec<usize>,
    /// Batch ACKs each node has handed to the MAC, oldest first, as
    /// `(flow index, batch, origin)`. A FIFO rather than a slot because a
    /// bounded transmit queue may poll several frames before the first
    /// outcome arrives; outcomes come back in poll order.
    ack_outstanding: Vec<VecDeque<(usize, u32, NodeId)>>,
}

impl MoreAgent {
    /// An agent with no flows yet.
    pub fn new(topo: Topology, cfg: MoreConfig) -> Self {
        let n = topo.n();
        MoreAgent {
            cfg,
            topo,
            flows: Vec::new(),
            rr: vec![0; n],
            ack_outstanding: vec![VecDeque::new(); n],
        }
    }

    /// Protocol parameters.
    pub fn config(&self) -> &MoreConfig {
        &self.cfg
    }

    /// Registers a transfer of `total_packets` native packets from `src`
    /// to every node in `dsts` (one = unicast, several = multicast).
    ///
    /// Computes, per destination, the metric table and the Algorithm-1
    /// forwarder plan with pruning, and the reverse path for batch ACKs.
    /// The flow takes the next id (index + 1). Returns the flow's index
    /// for [`Self::progress`]. Callers must `kick(src)` on the simulator
    /// to start the source's MAC.
    pub fn add_flow(&mut self, src: NodeId, dsts: &[NodeId], total_packets: usize) -> usize {
        assert!(total_packets > 0, "empty transfer");
        assert!(!dsts.is_empty(), "a flow needs a destination");
        assert!(
            (1..dsts.len()).all(|i| !dsts[..i].contains(&dsts[i])),
            "destination listed twice: {dsts:?}"
        );
        let n = self.topo.n();
        let mut tx_credit = vec![0.0f64; n];
        let dsts = dsts
            .iter()
            .map(|&dst| {
                // Forwarder ordering metric: ETX in the shipped protocol,
                // EOTX for the §5.7 variant.
                let metric: Vec<f64> = match self.cfg.metric {
                    ForwarderMetric::Etx => EtxTable::compute(&self.topo, dst, LinkCost::Forward)
                        .distances()
                        .to_vec(),
                    ForwarderMetric::Eotx => mesh_metrics::EotxTable::compute(&self.topo, dst)
                        .distances()
                        .to_vec(),
                };
                let plan = ForwarderPlan::compute(&self.topo, src, dst, &metric, &self.cfg.plan);
                let mut rank_of = vec![None; n];
                for (r, &node) in plan.order.iter().enumerate() {
                    rank_of[node.0] = Some(r as u32);
                    tx_credit[node.0] = tx_credit[node.0].max(plan.tx_credit[node.0]);
                }
                Destination {
                    node: dst,
                    plan,
                    rank_of,
                    acked: vec![0; n],
                    decoded_batches: 0,
                    delivered_packets: 0,
                    completed_at: None,
                }
            })
            .collect();
        // ACKs go to the source over its ETX shortest path (§3.2.2);
        // they are reliable unicasts, so the path metric accounts for the
        // MAC ACK's reverse trip.
        let to_src = EtxTable::compute(&self.topo, src, LinkCost::ForwardReverse);
        let ack_next_hop = (0..n).map(|i| to_src.next_hop(NodeId(i))).collect();
        self.flows.push(MoreFlow {
            id: self.flows.len() as FlowId + 1,
            src,
            dsts,
            total_packets,
            tx_credit,
            ack_next_hop,
            nodes: (0..n).map(|_| NodeFlowState::new()).collect(),
            src_batch: 0,
            encoder: None,
            progress: FlowProgress::default(),
            halted: false,
        });
        self.flows.len() - 1
    }

    /// Withdraws flow `index` mid-run: the source and every forwarder go
    /// silent on it, queued batch ACKs are dropped, and the flow counts as
    /// resolved. Measured progress stays readable.
    pub fn halt_flow(&mut self, index: usize) {
        let f = &mut self.flows[index];
        f.halted = true;
        for ns in &mut f.nodes {
            ns.pending_acks.clear();
        }
    }

    /// Progress of flow `index` (as returned by [`Self::add_flow`]).
    pub fn progress(&self, index: usize) -> &FlowProgress {
        &self.flows[index].progress
    }

    /// All flows done (every batch ACKed at its source)?
    pub fn all_done(&self) -> bool {
        self.flows.iter().all(|f| f.is_done(&self.cfg))
    }

    /// The flow list (read-only, for harness inspection).
    pub fn flows(&self) -> &[MoreFlow] {
        &self.flows
    }

    /// Flow index by wire id: ids are handed out as index + 1.
    fn flow_index(&self, id: FlowId) -> Option<usize> {
        (id as usize)
            .checked_sub(1)
            .filter(|&fi| fi < self.flows.len())
    }

    /// Makes sure the node's batch state matches its role and batch K.
    fn ensure_batch_state(cfg: &MoreConfig, ns: &mut NodeFlowState, is_dst: bool, k: usize) {
        let needs_init = matches!(ns.batch, BatchState::Empty);
        if !needs_init {
            return;
        }
        ns.batch = match (is_dst, cfg.track_payloads) {
            (true, true) => BatchState::DstDecoder(Decoder::new(k, cfg.packet_bytes)),
            (true, false) => BatchState::DstTracker(InnovationTracker::new(k)),
            (false, true) => BatchState::Coded(ForwarderBuffer::new(k, cfg.packet_bytes)),
            (false, false) => BatchState::Tracker(InnovationTracker::new(k)),
        };
    }

    /// Feeds a received coded packet into the node's batch state — a
    /// zero-copy hand-off: coded stores bump the refcount on the frame's
    /// flat buffer, tracker stores read the vector head in place. Returns
    /// `(innovative, rank_after)`.
    fn absorb(ns: &mut NodeFlowState, p: &CodedPacket, rng: &mut impl Rng) -> (bool, usize) {
        match &mut ns.batch {
            BatchState::Empty => unreachable!("batch state initialized before absorb"),
            BatchState::Tracker(t) | BatchState::DstTracker(t) => {
                let innov = t.absorb(p.vector());
                (innov, t.rank())
            }
            BatchState::Coded(b) => {
                let innov = b.receive(p, rng);
                (innov, b.rank())
            }
            BatchState::DstDecoder(d) => {
                let innov = d.receive(p);
                (innov, d.rank())
            }
        }
    }

    /// A forwarder's outgoing coded packet: random combination of what it
    /// holds (pre-coded when payloads are tracked).
    fn emit_from(ns: &mut NodeFlowState, k: usize, rng: &mut impl Rng) -> Option<CodedPacket> {
        match &mut ns.batch {
            BatchState::Empty => None,
            BatchState::Tracker(t) => {
                if t.rank() == 0 {
                    return None;
                }
                // One coefficient per stored row, drawn in row order (the
                // RNG stream is part of determinism), combined straight
                // into a pooled vector-only flat buffer.
                // xtask: allow(pool_pairing) -- ownership transfer: the buffer is frozen into the emitted CodedPacket and recycled downstream when the packet is consumed
                let mut buf = pool::acquire(k);
                rlnc::axpy_chunked(
                    &mut buf,
                    (0..k).filter_map(|i| t.row(i)).map(|row| {
                        let c = gf256::Gf256(rng.gen_range(1..=255u8));
                        (c, row)
                    }),
                );
                Some(CodedPacket::from_flat(k, buf.freeze()))
            }
            BatchState::Coded(b) => b.emit(rng),
            // A destination never forwards data.
            BatchState::DstTracker(_) | BatchState::DstDecoder(_) => None,
        }
    }

    /// Verifies a fully decoded batch against the deterministic test file
    /// in place — no reference batch is materialized.
    fn verify_decoded(d: &Decoder, flow: u32, batch: u32, k_b: usize) {
        for i in 0..k_b {
            let native = d.native(i).expect("rank K reached");
            let seed = native_byte(flow, batch, i);
            let ok = native
                .iter()
                .enumerate()
                .all(|(b, &byte)| byte == seed.wrapping_add((b % 251) as u8));
            assert!(
                ok,
                "decoded batch corrupt (flow {flow} batch {batch} native {i})"
            );
        }
    }
}

impl NodeAgent for MoreAgent {
    type Payload = MorePayload;

    fn on_receive(&mut self, node: NodeId, frame: &Frame<MorePayload>, ctx: &mut Ctx<'_>) {
        let Some(fi) = self.flow_index(frame.payload.flow()) else {
            return;
        };
        let cfg = self.cfg;
        let f = &mut self.flows[fi];
        match &frame.payload {
            MorePayload::Data {
                flow,
                batch,
                packet,
            } => {
                // "When a node hears a packet, it checks whether it is in
                // the packet's forwarder list" (§3.1.2) — any
                // destination's. The source only pumps; it stores nothing.
                if !f.participates(node) || f.is_done(&cfg) || node == f.src {
                    return;
                }
                if *batch < f.nodes[node.0].current_batch {
                    return; // stale batch (§3.3.3)
                }
                let dst = f.dsts.iter().position(|d| d.node == node);
                let upstream = f.from_upstream(node, frame.from);
                let k_b = f.k_of(&cfg, *batch);
                let total_batches = f.n_batches(&cfg);
                let ns = &mut f.nodes[node.0];
                ns.flush_to(*batch);
                // Credit: "for each packet arrival from a node with higher
                // ETX, the forwarder increments the counter" (§3.3.2).
                if dst.is_none() && upstream {
                    ns.credit += f.tx_credit[node.0];
                }
                Self::ensure_batch_state(&cfg, ns, dst.is_some(), k_b);
                let (innovative, rank_after) = Self::absorb(ns, packet, ctx.rng());
                if let Some(di) = dst {
                    if innovative && rank_after == k_b {
                        // Full batch: ACK before decoding (§3.2.2).
                        if let BatchState::DstDecoder(d) = &ns.batch {
                            Self::verify_decoded(d, *flow, *batch, k_b);
                        }
                        ns.pending_acks.push_back((*batch, node));
                        ns.flush_to(*batch + 1);
                        let d = &mut f.dsts[di];
                        d.decoded_batches += 1;
                        d.delivered_packets += k_b;
                        f.progress.decoded_batches += 1;
                        f.progress.delivered_packets += k_b;
                        if *batch + 1 == total_batches {
                            d.completed_at = Some(ctx.now());
                            if f.dsts.iter().all(|d| d.completed_at.is_some()) {
                                f.progress.completed_at = Some(ctx.now());
                            }
                        }
                        ctx.mark_backlogged(node);
                    }
                } else if ns.credit > 0.0 && ns.batch.rank() > 0 {
                    // "The arrival of this new packet triggers the node to
                    // broadcast" — via the MAC, when it allows (§3.1.2).
                    ctx.mark_backlogged(node);
                }
            }
            MorePayload::Ack { batch, origin, .. } => {
                if f.halted {
                    return; // a withdrawn flow relays nothing
                }
                let addressed = frame.dst == Some(node);
                // The source acts only on the reliably delivered copy.
                if node == f.src && !addressed {
                    return;
                }
                let Some(di) = f.dsts.iter().position(|d| d.node == *origin) else {
                    return;
                };
                // Everyone in the flow who hears the ACK — overhearers and
                // the relays it is addressed to — notes it, and purges the
                // batches every destination has ACKed (§3.3.4).
                if f.participates(node) {
                    let heard = &mut f.dsts[di].acked[node.0];
                    *heard = (*heard).max(*batch + 1);
                    let purge_to = f.acked_by_all(node);
                    f.nodes[node.0].flush_to(purge_to);
                }
                if !addressed {
                    return;
                }
                if node == f.src {
                    // Source advances to the earliest batch some
                    // destination still needs (§3.2.2).
                    let next = f.acked_by_all(node);
                    if next > f.src_batch {
                        f.src_batch = next;
                        f.encoder = None;
                        f.progress.acked_batches = next;
                        if f.is_done(&cfg) {
                            f.progress.done = true;
                        } else {
                            ctx.mark_backlogged(node);
                        }
                    }
                } else {
                    // Relay the ACK toward the source, prioritized.
                    f.nodes[node.0].pending_acks.push_back((*batch, *origin));
                    ctx.mark_backlogged(node);
                }
            }
        }
    }

    fn on_tx_done(&mut self, node: NodeId, outcome: TxOutcome, ctx: &mut Ctx<'_>) {
        match outcome {
            TxOutcome::Broadcast => {}
            TxOutcome::Acked { .. } => {
                // The oldest outstanding ACK made it; it was already
                // removed from pending_acks at poll time.
                self.ack_outstanding[node.0].pop_front();
            }
            TxOutcome::Failed { .. } => {
                // Batch ACKs are delivered reliably: re-queue at the front
                // and try again (§3.2.2 "reliably delivered using local
                // retransmission at each hop").
                if let Some((fi, batch, origin)) = self.ack_outstanding[node.0].pop_front() {
                    let f = &mut self.flows[fi];
                    if !f.halted {
                        f.nodes[node.0].pending_acks.push_front((batch, origin));
                    }
                }
                ctx.mark_backlogged(node);
            }
        }
    }

    fn poll_tx(&mut self, node: NodeId, ctx: &mut Ctx<'_>) -> Option<OutFrame<MorePayload>> {
        // 1. Batch ACKs first: "ACKs are given priority over data packets
        //    at every node" (§3.1.3).
        for (fi, f) in self.flows.iter_mut().enumerate() {
            // Popped now (not on MAC ack): once handed to the MAC the
            // frame's fate comes back via on_tx_done/on_queue_drop, both
            // of which consult ack_outstanding.
            let Some((batch, origin)) = f.nodes[node.0].pending_acks.pop_front() else {
                continue;
            };
            // Only the source has no next hop, and it queues no ACKs.
            let Some(nh) = f.ack_next_hop[node.0] else {
                continue;
            };
            self.ack_outstanding[node.0].push_back((fi, batch, origin));
            return Some(OutFrame {
                dst: Some(nh),
                bytes: ACK_BYTES,
                bitrate: None,
                flow: Some(f.id),
                payload: MorePayload::Ack {
                    flow: f.id,
                    batch,
                    origin,
                },
            });
        }

        // 2. Data, round-robin across flows (§3.3.3).
        let nf = self.flows.len();
        if nf == 0 {
            return None;
        }
        let cfg = self.cfg;
        let start = self.rr[node.0] % nf;
        for step in 0..nf {
            let fi = (start + step) % nf;
            let f = &mut self.flows[fi];
            if f.is_done(&cfg) {
                continue;
            }
            let (batch, k_b, packet) = if node == f.src {
                let batch = f.src_batch;
                let k_b = f.k_of(&cfg, batch);
                let packet = if cfg.track_payloads {
                    if f.encoder.is_none() {
                        let natives = crate::batch_natives(f.id, batch, k_b, cfg.packet_bytes);
                        f.encoder = Some(SourceEncoder::new(natives).expect("valid batch"));
                    }
                    f.encoder.as_ref().expect("just built").encode(ctx.rng())
                } else {
                    // Vector-only packet: random coefficients drawn into a
                    // pooled flat buffer with an empty payload region.
                    let mut buf = pool::acquire(k_b);
                    ctx.rng().fill(&mut buf[..]);
                    CodedPacket::from_flat(k_b, buf.freeze())
                };
                (batch, k_b, packet)
            } else {
                // Forwarder: positive credit and something to say
                // (§3.2.1). Destinations and nodes outside the forwarder
                // lists never earn credit.
                let batch = f.nodes[node.0].current_batch;
                if f.nodes[node.0].credit <= 0.0 || batch >= f.n_batches(&cfg) {
                    continue;
                }
                let k_b = f.k_of(&cfg, batch);
                let Some(packet) = Self::emit_from(&mut f.nodes[node.0], k_b, ctx.rng()) else {
                    continue;
                };
                f.nodes[node.0].credit -= 1.0;
                (batch, k_b, packet)
            };
            if f.dsts.iter().all(|d| d.decoded_batches > batch) {
                f.progress.spurious_tx += 1;
            }
            self.rr[node.0] = fi + 1;
            return Some(OutFrame {
                dst: None,
                bytes: cfg.header_bytes + k_b + cfg.packet_bytes,
                bitrate: None,
                flow: Some(f.id),
                payload: MorePayload::Data {
                    flow: f.id,
                    batch,
                    packet,
                },
            });
        }
        None
    }

    fn on_queue_drop(
        &mut self,
        node: NodeId,
        payload: MorePayload,
        _cause: DropCause,
        ctx: &mut Ctx<'_>,
    ) {
        match payload {
            // A dropped batch ACK must not be lost: retract the
            // outstanding entry and put the batch back at the head of the
            // pending queue (§3.2.2 reliable delivery).
            MorePayload::Ack {
                flow,
                batch,
                origin,
            } => {
                if let Some(fi) = self.flow_index(flow) {
                    let out = &mut self.ack_outstanding[node.0];
                    if let Some(pos) = out.iter().rposition(|&e| e == (fi, batch, origin)) {
                        out.remove(pos);
                    }
                    let f = &mut self.flows[fi];
                    if !f.halted {
                        f.nodes[node.0].pending_acks.push_front((batch, origin));
                        ctx.mark_backlogged(node);
                    }
                }
            }
            // A dropped coded packet is just an unheard broadcast; return
            // its flat buffer to the pool.
            MorePayload::Data { packet, .. } => pool::release(packet.into_data()),
        }
    }

    fn recycle(&mut self, payload: MorePayload) {
        // The simulator hands back the last reference to a delivered
        // frame's payload; returning the flat buffer to the pool closes
        // the zero-copy loop (next encode reuses it).
        if let MorePayload::Data { packet, .. } = payload {
            pool::release(packet.into_data());
        }
    }
}

impl mesh_sim::FlowAgent for MoreAgent {
    fn flows_done(&self) -> bool {
        self.all_done()
    }

    fn flow_progress(&self, index: usize) -> mesh_sim::FlowProgressView {
        let p = self.progress(index);
        mesh_sim::FlowProgressView {
            delivered: p.delivered_packets,
            completed_at: p.completed_at,
            done: p.done,
        }
    }

    fn supports_dynamic_flows(&self) -> bool {
        true
    }

    fn add_flow(&mut self, desc: &mesh_sim::FlowDesc) -> usize {
        MoreAgent::add_flow(self, desc.src, &desc.dsts, desc.packets)
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

    fn run_flow(
        topo: Topology,
        cfg: MoreConfig,
        src: usize,
        dsts: &[usize],
        packets: usize,
        seed: u64,
    ) -> (Simulator<MoreAgent>, usize) {
        let mut agent = MoreAgent::new(topo.clone(), cfg);
        let dsts: Vec<NodeId> = dsts.iter().map(|&d| NodeId(d)).collect();
        let fi = agent.add_flow(NodeId(src), &dsts, packets);
        let mut sim = Simulator::new(topo, SimConfig::default(), agent, seed);
        sim.kick(NodeId(src));
        sim.run_until(600 * SEC, |a: &MoreAgent| a.all_done());
        (sim, fi)
    }

    #[test]
    fn one_hop_transfer_completes() {
        let topo = generate::line(1, 0.8, 0.0, 20.0);
        let (sim, fi) = run_flow(topo, MoreConfig::default(), 0, &[1], 64, 1);
        let p = sim.agent.progress(fi);
        assert!(p.done, "flow did not finish");
        assert_eq!(p.delivered_packets, 64);
        assert_eq!(p.decoded_batches, 2);
    }

    #[test]
    fn relay_chain_transfer_completes() {
        let topo = generate::line(3, 0.7, 0.3, 25.0);
        let (sim, fi) = run_flow(topo, MoreConfig::default(), 0, &[3], 32, 2);
        let p = sim.agent.progress(fi);
        assert!(p.done);
        assert_eq!(p.delivered_packets, 32);
    }

    #[test]
    fn payload_tracking_decodes_correctly() {
        // track_payloads=true makes the destination assert decoded bytes
        // match the generated file — the assert inside on_receive.
        let topo = generate::line(2, 0.75, 0.2, 25.0);
        let cfg = MoreConfig {
            k: 8,
            packet_bytes: 256,
            track_payloads: true,
            ..MoreConfig::default()
        };
        let (sim, fi) = run_flow(topo, cfg, 0, &[2], 24, 3);
        assert!(sim.agent.progress(fi).done);
        assert_eq!(sim.agent.progress(fi).delivered_packets, 24);
    }

    #[test]
    fn short_final_batch() {
        let topo = generate::line(1, 0.9, 0.0, 20.0);
        let cfg = MoreConfig {
            k: 32,
            ..MoreConfig::default()
        };
        let (sim, fi) = run_flow(topo, cfg, 0, &[1], 40, 4); // 32 + 8
        let p = sim.agent.progress(fi);
        assert!(p.done);
        assert_eq!(p.delivered_packets, 40);
        assert_eq!(p.decoded_batches, 2);
    }

    #[test]
    fn testbed_transfer_and_stopping_rule() {
        let topo = generate::testbed(1);
        let (mut sim, fi) = run_flow(topo, MoreConfig::default(), 0, &[19], 64, 5);
        let p = *sim.agent.progress(fi);
        assert!(p.done, "testbed flow stuck");
        assert_eq!(p.delivered_packets, 64);
        // Unicast is the one-destination case of the same flow state.
        let dsts = &sim.agent.flows()[fi].dsts;
        assert_eq!(dsts.len(), 1);
        assert_eq!(dsts[0].delivered_packets, 64);
        assert_eq!(dsts[0].completed_at, p.completed_at);
        // Stopping rule: after completion, (almost) no more data frames.
        let tx_before = sim.stats.total_tx();
        let t = sim.now();
        sim.run_until(t + 2 * SEC, |_| false);
        let extra = sim.stats.total_tx() - tx_before;
        assert!(
            extra <= 2,
            "{extra} transmissions after the flow finished — stopping rule broken"
        );
    }

    #[test]
    fn spurious_transmissions_are_bounded() {
        let topo = generate::testbed(2);
        let (sim, fi) = run_flow(topo, MoreConfig::default(), 3, &[16], 96, 6);
        let p = sim.agent.progress(fi);
        assert!(p.done);
        // A few spurious sends happen between batch completion and the ACK
        // reaching everyone; they must stay a small fraction of the total.
        let total = sim.stats.total_tx();
        assert!(
            (p.spurious_tx as f64) < 0.25 * total as f64,
            "spurious {} of {total}",
            p.spurious_tx
        );
    }

    #[test]
    fn multiflow_roundrobin_completes_both() {
        let topo = generate::testbed(3);
        let mut agent = MoreAgent::new(topo.clone(), MoreConfig::default());
        let f1 = agent.add_flow(NodeId(0), &[NodeId(19)], 32);
        let f2 = agent.add_flow(NodeId(5), &[NodeId(12)], 32);
        let mut sim = Simulator::new(topo, SimConfig::default(), agent, 7);
        sim.kick(NodeId(0));
        sim.kick(NodeId(5));
        sim.run_until(600 * SEC, |a: &MoreAgent| a.all_done());
        assert!(sim.agent.progress(f1).done, "flow 1 stuck");
        assert!(sim.agent.progress(f2).done, "flow 2 stuck");
        assert_eq!(sim.agent.progress(f1).delivered_packets, 32);
        assert_eq!(sim.agent.progress(f2).delivered_packets, 32);
    }

    #[test]
    fn pruning_limits_participants() {
        let topo = generate::testbed(4);
        let agent = {
            let mut a = MoreAgent::new(topo.clone(), MoreConfig::default());
            a.add_flow(NodeId(0), &[NodeId(19)], 32);
            a
        };
        let plan = &agent.flows()[0].dsts[0].plan;
        assert!(
            plan.forwarders().len() <= 10,
            "forwarder cap exceeded: {}",
            plan.forwarders().len()
        );
    }

    #[test]
    fn two_destinations_both_complete() {
        let topo = generate::testbed(1);
        let (sim, fi) = run_flow(topo, MoreConfig::default(), 0, &[19, 12], 64, 2);
        let p = sim.agent.progress(fi);
        assert!(p.done, "2-dst multicast stuck");
        assert_eq!(p.delivered_packets, 2 * 64);
        let dsts = &sim.agent.flows()[fi].dsts;
        assert!(dsts.iter().all(|d| d.delivered_packets == 64));
        let last = dsts
            .iter()
            .map(|d| d.completed_at.expect("completed"))
            .max();
        assert_eq!(p.completed_at, last);
    }

    #[test]
    fn three_destinations_share_transmissions() {
        // Multicast should cost fewer transmissions than three unicasts.
        let topo = generate::testbed(1);
        let cfg = MoreConfig::default();
        let (mc_sim, fi) = run_flow(topo.clone(), cfg, 0, &[19, 12, 7], 64, 3);
        assert!(mc_sim.agent.progress(fi).done);
        let mc_tx = mc_sim.stats.total_tx();
        let mut uni_tx = 0;
        for (i, d) in [19, 12, 7].into_iter().enumerate() {
            let (sim, fi) = run_flow(topo.clone(), cfg, 0, &[d], 64, 4 + i as u64);
            assert!(sim.agent.progress(fi).done);
            uni_tx += sim.stats.total_tx();
        }
        assert!(
            (mc_tx as f64) < 0.9 * uni_tx as f64,
            "multicast {mc_tx} tx should beat 3 unicasts {uni_tx} tx"
        );
    }

    #[test]
    fn three_destination_payloads_decode_correctly() {
        // Every destination runs its batches through verify_decoded.
        let cfg = MoreConfig {
            k: 8,
            packet_bytes: 256,
            track_payloads: true,
            ..MoreConfig::default()
        };
        let (sim, fi) = run_flow(generate::testbed(1), cfg, 0, &[19, 12, 7], 24, 3);
        assert!(sim.agent.progress(fi).done);
        assert_eq!(sim.agent.progress(fi).delivered_packets, 3 * 24);
    }

    #[test]
    fn eotx_metric_orders_every_destinations_forwarders() {
        let topo = generate::testbed(1);
        let plans = |metric| {
            let cfg = MoreConfig {
                metric,
                ..MoreConfig::default()
            };
            let mut agent = MoreAgent::new(topo.clone(), cfg);
            agent.add_flow(NodeId(0), &[NodeId(19), NodeId(12), NodeId(7)], 32);
            let orders = agent.flows()[0].dsts.iter().map(|d| d.plan.order.clone());
            orders.collect::<Vec<_>>()
        };
        let eotx = plans(ForwarderMetric::Eotx);
        for (order, dst) in eotx.iter().zip([19, 12, 7]) {
            let table = mesh_metrics::EotxTable::compute(&topo, NodeId(dst));
            let plan_cfg = MoreConfig::default().plan;
            let (src, dst_node) = (NodeId(0), NodeId(dst));
            let want = ForwarderPlan::compute(&topo, src, dst_node, table.distances(), &plan_cfg);
            assert_eq!(*order, want.order, "destination {dst}");
        }
        assert_ne!(eotx, plans(ForwarderMetric::Etx), "the metric is ignored");
    }

    #[test]
    fn multicast_and_unicast_from_one_source_interleave() {
        let topo = generate::testbed(1);
        let mut agent = MoreAgent::new(topo.clone(), MoreConfig::default());
        let mc = agent.add_flow(NodeId(0), &[NodeId(5), NodeId(9)], 256);
        let uni = agent.add_flow(NodeId(0), &[NodeId(19)], 256);
        let mut sim = Simulator::new(topo, SimConfig::default(), agent, 8);
        sim.kick(NodeId(0));
        sim.run_until(600 * SEC, |a: &MoreAgent| a.progress(mc).done);
        assert!(sim.agent.progress(mc).done, "multicast flow stuck");
        assert!(
            sim.agent.progress(uni).delivered_packets > 0,
            "the source served the multicast flow alone until it finished"
        );
    }

    #[test]
    #[should_panic(expected = "needs a destination")]
    fn empty_destination_list_rejected() {
        let mut agent = MoreAgent::new(generate::testbed(1), MoreConfig::default());
        agent.add_flow(NodeId(0), &[], 32);
    }
}
