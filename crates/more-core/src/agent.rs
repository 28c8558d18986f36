//! The MORE node agent: source / forwarder / destination control flow
//! (thesis §3.3.3, Fig 3-2) over the simulator's MAC callbacks.

#![expect(
    clippy::indexing_slicing,
    clippy::expect_used,
    clippy::unreachable,
    reason = "per-node and per-batch vectors are sized at add_flow / when a batch opens; decoded-batch verification asserts a deterministic-testfile invariant"
)]

use crate::flow::{BatchState, Destination, MoreFlow, NodeFlowState};
use crate::header::MorePayload;
use crate::{native_byte, native_is_intact, ForwarderMetric, MoreConfig, HEADER_BYTES};
use mesh_metrics::etx::LinkCost;
use mesh_metrics::{EtxTable, ForwarderPlan, PlanConfig};
use mesh_sim::{Ctx, FlowDesc, FlowProgressView, Frame, NodeAgent, OutFrame, TxOutcome};
use mesh_topology::{NodeId, Topology};
use rand::Rng;
use rlnc::{pool, CodedPacket, Decoder, ForwarderBuffer, SourceEncoder};

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
        }
    }

    /// The flow list (read-only, for harness inspection).
    pub fn flows(&self) -> &[MoreFlow] {
        &self.flows
    }

    /// Makes sure the node's batch state matches its role and batch K.
    fn ensure_batch_state(cfg: &MoreConfig, ns: &mut NodeFlowState, is_dst: bool, k: usize) {
        if !matches!(ns.batch, BatchState::Empty) {
            return;
        }
        let len = payload_len(cfg);
        ns.batch = if is_dst {
            BatchState::Destination(Decoder::new(k, len))
        } else {
            BatchState::Forwarder(ForwarderBuffer::new(k, len))
        };
    }

    /// Feeds a received coded packet into the node's batch state — a
    /// zero-copy hand-off: the store bumps the refcount on the frame's
    /// packet, computing its payload if it is kept. Returns `(innovative,
    /// rank_after)`.
    fn absorb(ns: &mut NodeFlowState, p: &CodedPacket, rng: &mut impl Rng) -> (bool, usize) {
        match &mut ns.batch {
            BatchState::Empty => unreachable!("batch state initialized before absorb"),
            BatchState::Forwarder(b) => (b.receive(p, rng), b.rank()),
            BatchState::Destination(d) => (d.receive(p), d.rank()),
        }
    }

    /// Verifies a fully decoded batch against the deterministic test file
    /// in place — no reference batch is materialized. Zero-length natives
    /// verify trivially.
    fn verify_decoded(batch_state: &BatchState, flow: u32, batch: u32, k_b: usize) {
        let BatchState::Destination(d) = batch_state else {
            unreachable!("a destination decodes");
        };
        for i in 0..k_b {
            let native = d.native(i).expect("rank K reached");
            assert!(
                native_is_intact(native, native_byte(flow, batch, i)),
                "decoded batch corrupt (flow {flow} batch {batch} native {i})"
            );
        }
    }
}

/// Payload bytes each coded packet carries: the native size when payloads
/// are tracked, none otherwise.
fn payload_len(cfg: &MoreConfig) -> usize {
    if cfg.track_payloads {
        cfg.packet_bytes
    } else {
        0
    }
}

impl NodeAgent for MoreAgent {
    type Payload = MorePayload;

    fn on_receive(&mut self, node: NodeId, frame: &Frame<MorePayload>, ctx: &mut Ctx<'_>) {
        let Some(fi) = mesh_sim::flow_index(frame.payload.flow(), self.flows.len()) else {
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
                if !f.participates(node) || f.is_done() || node == f.src {
                    return;
                }
                if *batch < f.nodes[node.0].current_batch {
                    return; // stale batch (§3.3.3)
                }
                let dst = f.dsts.iter().position(|d| d.node == node);
                let upstream = f.from_upstream(node, frame.from);
                let k_b = f.k_of(&cfg, *batch);
                let total_batches = f.n_batches();
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
                        Self::verify_decoded(&ns.batch, *flow, *batch, k_b);
                        ns.pending_acks.push_back((*batch, node));
                        ns.flush_to(*batch + 1);
                        let d = &mut f.dsts[di];
                        d.decoded_batches += 1;
                        if *batch + 1 == total_batches {
                            d.completed_at = Some(ctx.now());
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
                        if !f.is_done() {
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

    fn on_tx_done(
        &mut self,
        node: NodeId,
        outcome: TxOutcome,
        payload: MorePayload,
        ctx: &mut Ctx<'_>,
    ) {
        let (flow, batch, origin) = match payload {
            // A coded packet, sent or dropped, goes back to the pool. This
            // computes nothing: a packet no receiver kept never has its
            // payload combined, and the next encode reuses its cell.
            MorePayload::Data { packet, .. } => return pool::recycle(packet),
            MorePayload::Ack {
                flow,
                batch,
                origin,
            } => (flow, batch, origin),
        };
        // Batch ACKs are delivered reliably (§3.2.2 "reliably delivered
        // using local retransmission at each hop"): one the MAC gave up on
        // or the queue dropped goes back to the head of the pending queue,
        // unless its flow was withdrawn.
        let failed = match outcome {
            TxOutcome::Failed { .. } => true,
            TxOutcome::Dropped(_) => false,
            TxOutcome::Broadcast | TxOutcome::Acked { .. } => return,
        };
        let live =
            mesh_sim::flow_index(flow, self.flows.len()).filter(|&fi| !self.flows[fi].halted);
        if let Some(fi) = live {
            self.flows[fi].nodes[node.0]
                .pending_acks
                .push_front((batch, origin));
        }
        if failed || live.is_some() {
            ctx.mark_backlogged(node);
        }
    }

    fn poll_tx(&mut self, node: NodeId, ctx: &mut Ctx<'_>) -> Option<OutFrame<MorePayload>> {
        // 1. Batch ACKs first: "ACKs are given priority over data packets
        //    at every node" (§3.1.3).
        for f in &mut self.flows {
            // Popped now (not on MAC ack): once handed to the MAC the
            // frame comes back through on_tx_done, which re-queues it if
            // it was not delivered.
            let Some((batch, origin)) = f.nodes[node.0].pending_acks.pop_front() else {
                continue;
            };
            // Only the source has no next hop, and it queues no ACKs.
            let Some(nh) = f.ack_next_hop[node.0] else {
                continue;
            };
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
            if f.is_done() {
                continue;
            }
            let (batch, k_b, packet) = if node == f.src {
                let batch = f.src_batch;
                let k_b = f.k_of(&cfg, batch);
                let encoder = f.encoder.get_or_insert_with(|| {
                    let write = |i, row: &mut [u8]| crate::write_native(f.id, batch, i, row);
                    SourceEncoder::from_fn(k_b, payload_len(&cfg), write).expect("valid batch")
                });
                (batch, k_b, encoder.encode(ctx.rng()))
            } else {
                // Forwarder: positive credit and something to say
                // (§3.2.1). Destinations and nodes outside the forwarder
                // lists never earn credit.
                let batch = f.nodes[node.0].current_batch;
                if f.nodes[node.0].credit <= 0.0 || batch >= f.n_batches() {
                    continue;
                }
                let ns = &mut f.nodes[node.0];
                // A destination never forwards data.
                let BatchState::Forwarder(b) = &mut ns.batch else {
                    continue;
                };
                let Some(packet) = b.emit(ctx.rng()) else {
                    continue;
                };
                ns.credit -= 1.0;
                (batch, f.k_of(&cfg, batch), packet)
            };
            if f.dsts.iter().all(|d| d.decoded_batches > batch) {
                f.spurious_tx += 1;
            }
            self.rr[node.0] = fi + 1;
            return Some(OutFrame {
                dst: None,
                bytes: HEADER_BYTES + k_b + cfg.packet_bytes,
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
}

impl mesh_sim::FlowAgent for MoreAgent {
    /// Every flow done: each batch ACKed at its source, or withdrawn.
    fn flows_done(&self) -> bool {
        self.flows.iter().all(MoreFlow::is_done)
    }

    /// Deliveries summed over the destinations; finished when the last
    /// destination decoded its last batch; done once the source has every
    /// batch ACKed by every destination.
    fn flow_progress(&self, index: usize) -> FlowProgressView {
        let f = &self.flows[index];
        FlowProgressView {
            delivered: f.dsts.iter().map(|d| f.delivered(&self.cfg, d)).sum(),
            completed_at: f
                .dsts
                .iter()
                .try_fold(0, |last, d| d.completed_at.map(|t| last.max(t))),
            done: f.src_batch >= f.n_batches(),
        }
    }

    /// Registers `desc`: a transfer of `desc.packets` native packets from
    /// its source to every one of its destinations (one = unicast,
    /// several = multicast).
    ///
    /// Computes, per destination, the metric table and the Algorithm-1
    /// forwarder plan with pruning, and the reverse path for batch ACKs.
    /// The flow takes the next id ([`mesh_sim::flow_id`] of its index).
    /// Returns the flow's index. Callers must `kick(src)` on the simulator
    /// to start the source's MAC.
    fn add_flow(&mut self, desc: &FlowDesc) -> usize {
        let (src, dsts, total_packets) = (desc.src, &desc.dsts, desc.packets);
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
                let plan =
                    ForwarderPlan::compute(&self.topo, src, dst, &metric, &PlanConfig::default());
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
            id: mesh_sim::flow_id(self.flows.len()),
            src,
            dsts,
            total_packets,
            batches: total_packets.div_ceil(self.cfg.k) as u32,
            tx_credit,
            ack_next_hop,
            nodes: (0..n).map(|_| NodeFlowState::new()).collect(),
            src_batch: 0,
            encoder: None,
            spurious_tx: 0,
            halted: false,
        });
        self.flows.len() - 1
    }

    /// The source and every forwarder go silent on the flow, queued
    /// batch ACKs are dropped, and the flow counts as resolved. Measured
    /// progress stays readable.
    fn end_flow(&mut self, index: usize) {
        let f = &mut self.flows[index];
        f.halted = true;
        for ns in &mut f.nodes {
            ns.pending_acks.clear();
        }
    }
}

#[cfg(test)]
mod test {
    use super::*;
    use mesh_sim::{FlowAgent, SimConfig, Simulator, SEC};
    use mesh_topology::generate;

    /// A flow from `src` to every node of `dsts`.
    fn desc(src: usize, dsts: &[usize], packets: usize) -> FlowDesc {
        FlowDesc {
            src: NodeId(src),
            dsts: dsts.iter().map(|&d| NodeId(d)).collect(),
            packets,
        }
    }

    fn run_flow(
        topo: Topology,
        cfg: MoreConfig,
        src: usize,
        dsts: &[usize],
        packets: usize,
        seed: u64,
    ) -> (Simulator<MoreAgent>, usize) {
        let mut agent = MoreAgent::new(topo.clone(), cfg);
        let fi = agent.add_flow(&desc(src, dsts, packets));
        let mut sim = Simulator::new(topo, SimConfig::default(), agent, seed);
        sim.kick(NodeId(src));
        sim.run_until(600 * SEC, |a: &MoreAgent| a.flows_done());
        (sim, fi)
    }

    #[test]
    fn one_hop_transfer_completes() {
        let topo = generate::line(1, 0.8, 0.0, 20.0);
        let (sim, fi) = run_flow(topo, MoreConfig::default(), 0, &[1], 64, 1);
        let p = sim.agent.flow_progress(fi);
        assert!(p.done, "flow did not finish");
        assert_eq!(p.delivered, 64);
        assert_eq!(sim.agent.flows()[fi].dsts[0].decoded_batches, 2);
    }

    #[test]
    fn relay_chain_transfer_completes() {
        let topo = generate::line(3, 0.7, 0.3, 25.0);
        let (sim, fi) = run_flow(topo, MoreConfig::default(), 0, &[3], 32, 2);
        let p = sim.agent.flow_progress(fi);
        assert!(p.done);
        assert_eq!(p.delivered, 32);
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
        assert!(sim.agent.flow_progress(fi).done);
        assert_eq!(sim.agent.flow_progress(fi).delivered, 24);
    }

    #[test]
    fn short_final_batch() {
        let topo = generate::line(1, 0.9, 0.0, 20.0);
        let cfg = MoreConfig {
            k: 32,
            ..MoreConfig::default()
        };
        let (sim, fi) = run_flow(topo, cfg, 0, &[1], 40, 4); // 32 + 8
        let p = sim.agent.flow_progress(fi);
        assert!(p.done);
        assert_eq!(p.delivered, 40);
        assert_eq!(sim.agent.flows()[fi].dsts[0].decoded_batches, 2);
    }

    #[test]
    fn testbed_transfer_and_stopping_rule() {
        let topo = generate::testbed(1);
        let (mut sim, fi) = run_flow(topo, MoreConfig::default(), 0, &[19], 64, 5);
        let p = sim.agent.flow_progress(fi);
        assert!(p.done, "testbed flow stuck");
        assert_eq!(p.delivered, 64);
        // Unicast is the one-destination case of the same flow state.
        let f = &sim.agent.flows()[fi];
        let dsts = &f.dsts;
        assert_eq!(dsts.len(), 1);
        assert_eq!(f.delivered(&sim.agent.cfg, &dsts[0]), 64);
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
        assert!(sim.agent.flow_progress(fi).done);
        // A few spurious sends happen between batch completion and the ACK
        // reaching everyone; they must stay a small fraction of the total.
        let spurious = sim.agent.flows()[fi].spurious_tx;
        let total = sim.stats.total_tx();
        assert!(
            (spurious as f64) < 0.25 * total as f64,
            "spurious {spurious} of {total}"
        );
    }

    #[test]
    fn multiflow_roundrobin_completes_both() {
        let topo = generate::testbed(3);
        let mut agent = MoreAgent::new(topo.clone(), MoreConfig::default());
        let f1 = agent.add_flow(&desc(0, &[19], 32));
        let f2 = agent.add_flow(&desc(5, &[12], 32));
        let mut sim = Simulator::new(topo, SimConfig::default(), agent, 7);
        sim.kick(NodeId(0));
        sim.kick(NodeId(5));
        sim.run_until(600 * SEC, |a: &MoreAgent| a.flows_done());
        assert!(sim.agent.flow_progress(f1).done, "flow 1 stuck");
        assert!(sim.agent.flow_progress(f2).done, "flow 2 stuck");
        assert_eq!(sim.agent.flow_progress(f1).delivered, 32);
        assert_eq!(sim.agent.flow_progress(f2).delivered, 32);
    }

    #[test]
    fn pruning_limits_participants() {
        let topo = generate::testbed(4);
        let agent = {
            let mut a = MoreAgent::new(topo.clone(), MoreConfig::default());
            a.add_flow(&desc(0, &[19], 32));
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
        let p = sim.agent.flow_progress(fi);
        assert!(p.done, "2-dst multicast stuck");
        assert_eq!(p.delivered, 2 * 64);
        let f = &sim.agent.flows()[fi];
        let dsts = &f.dsts;
        assert!(dsts.iter().all(|d| f.delivered(&sim.agent.cfg, d) == 64));
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
        assert!(mc_sim.agent.flow_progress(fi).done);
        let mc_tx = mc_sim.stats.total_tx();
        let mut uni_tx = 0;
        for (i, d) in [19, 12, 7].into_iter().enumerate() {
            let (sim, fi) = run_flow(topo.clone(), cfg, 0, &[d], 64, 4 + i as u64);
            assert!(sim.agent.flow_progress(fi).done);
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
        assert!(sim.agent.flow_progress(fi).done);
        assert_eq!(sim.agent.flow_progress(fi).delivered, 3 * 24);
    }

    #[test]
    fn coded_flows_through_a_choke_queue_decode_every_batch() {
        // A bounded CHOKe queue hands coded packets back through
        // on_tx_done — tail drops, and CHOKe's matched victim, a frame
        // polled long before the arrival that matched it — while the
        // destinations run every batch they decode through verify_decoded.
        // Seed 14 completes. At most seeds of this load a matched drop
        // that empties a source's queue idles that source for good:
        // the queue pump returns no frame and the MAC goes idle
        // (ROADMAP item 6(a)). This test does not pin that.
        use mesh_sim::{AimdConfig, ChannelSpec, QueueSpec};
        let topo = generate::testbed(1);
        let cfg = MoreConfig {
            k: 8,
            packet_bytes: 256,
            track_payloads: true,
            ..MoreConfig::default()
        };
        let mut agent = MoreAgent::new(topo.clone(), cfg);
        let flows =
            [(0, 19), (5, 12)].map(|(s, d)| (NodeId(s), agent.add_flow(&desc(s, &[d], 24))));
        let queue = QueueSpec::choke(8);
        let (static_air, sim_cfg) = (ChannelSpec::Static, SimConfig::default());
        let mut sim = Simulator::with_queue(topo, sim_cfg, &static_air, &queue, agent, 14);
        for (src, fi) in flows {
            sim.pace_flow(mesh_sim::flow_id(fi), src, AimdConfig::default());
            sim.kick(src);
        }
        sim.run_until(600 * SEC, |a: &MoreAgent| a.flows_done());
        for (_, fi) in flows {
            let p = sim.agent.flow_progress(fi);
            assert!(p.done, "flow {fi} stuck behind the queue");
            assert_eq!(p.delivered, 24);
        }
        let s = &sim.stats;
        assert!(
            s.queue_drops_match > 0 && s.queue_drops_overflow > 0,
            "the queue must drop coded packets, matched and tail: {s:?}"
        );
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
            agent.add_flow(&desc(0, &[19, 12, 7], 32));
            let orders = agent.flows()[0].dsts.iter().map(|d| d.plan.order.clone());
            orders.collect::<Vec<_>>()
        };
        let eotx = plans(ForwarderMetric::Eotx);
        for (order, dst) in eotx.iter().zip([19, 12, 7]) {
            let table = mesh_metrics::EotxTable::compute(&topo, NodeId(dst));
            let plan_cfg = PlanConfig::default();
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
        let mc = agent.add_flow(&desc(0, &[5, 9], 256));
        let uni = agent.add_flow(&desc(0, &[19], 256));
        let mut sim = Simulator::new(topo, SimConfig::default(), agent, 8);
        sim.kick(NodeId(0));
        sim.run_until(600 * SEC, |a: &MoreAgent| a.flow_progress(mc).done);
        assert!(sim.agent.flow_progress(mc).done, "multicast flow stuck");
        assert!(
            sim.agent.flow_progress(uni).delivered > 0,
            "the source served the multicast flow alone until it finished"
        );
    }

    #[test]
    #[should_panic(expected = "needs a destination")]
    fn empty_destination_list_rejected() {
        let mut agent = MoreAgent::new(generate::testbed(1), MoreConfig::default());
        agent.add_flow(&desc(0, &[], 32));
    }
}
