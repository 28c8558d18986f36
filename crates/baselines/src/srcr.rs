//! Srcr: ETX best-path routing with hop-by-hop 802.11 unicast (§2.1.1,
//! §4.1.1).
//!
//! Each flow follows the Dijkstra-minimal ETX path fixed at flow setup
//! (the paper feeds all three protocols the same pre-measured link
//! estimates and routes stay put for the transfer). Forwarding is
//! classic store-and-forward: every hop queues packets (50-packet queue,
//! §4.1.2), unicasts to its nexthop, and relies on the MAC's
//! retransmissions; a packet whose retries are exhausted is dropped —
//! exactly the dead-spot behaviour opportunistic routing relieves.
//!
//! With [`SrcrConfig::autorate`] the sender of every hop runs an Onoe
//! controller per nexthop (§4.4).

#![expect(
    clippy::indexing_slicing,
    clippy::expect_used,
    clippy::unreachable,
    reason = "SRCR per-node queues and in-flight tables are sized to the topology's node count at setup; route hops come from the Dijkstra pass over that same topology"
)]

use mesh_metrics::etx::LinkCost;
use mesh_metrics::EtxTable;
use mesh_sim::{Bitrate, Ctx, Frame, NodeAgent, OnoeAutorate, OutFrame, Time, TxOutcome};
use mesh_topology::{NodeId, Topology};
use std::collections::{BTreeMap, VecDeque};

/// Data packet size on the air (1500 B in the evaluation).
const PACKET_BYTES: usize = 1500;

/// Router queue capacity in packets (50, §4.1.2).
const QUEUE_LEN: usize = 50;

/// How the sender paces injection: the source keeps its own queue topped
/// up to this many in-network packets (a simple window that stands in for
/// the transport the paper's file transfer used).
const WINDOW: usize = 10;

/// Link metric for path selection. The paper's ETX accounts for the
/// 802.11 ACK's reverse trip (§2.1.1).
const LINK_COST: LinkCost = LinkCost::ForwardReverse;

/// Srcr parameters.
#[derive(Clone, Copy, Debug, Default)]
pub struct SrcrConfig {
    /// Per-link Onoe autorate instead of the fixed configured rate.
    pub autorate: bool,
}

/// What a Srcr frame carries.
#[derive(Clone, Debug)]
pub struct SrcrPayload {
    pub flow: u32,
    pub seq: u32,
}

struct SrcrFlow {
    id: u32,
    src: NodeId,
    dst: NodeId,
    total: usize,
    /// The fixed ETX-best path `src → … → dst`. Per-flow state is sized
    /// to this path, not to the mesh — a city-scale run admitting
    /// thousands of flows stays O(path + packets) per flow instead of
    /// O(nodes).
    path: Vec<NodeId>,
    /// Per-hop forwarding queues (seq numbers), parallel to `path`; the
    /// destination's entry stays empty.
    queues: Vec<VecDeque<u32>>,
    /// Packets the source has not injected yet.
    next_seq: u32,
    /// In-network count (injected − resolved), for source pacing.
    in_flight: usize,
    /// Delivered-seq dedup bitmap.
    got: Vec<bool>,
    /// Unique packets that reached the destination.
    delivered: usize,
    /// Packets dropped on the way (retry exhaustion or queue overflow).
    dropped: usize,
    /// Time the last packet was resolved, delivered or dropped: set once
    /// every packet is accounted for, which is when the flow is done.
    completed_at: Option<Time>,
    /// Withdrawn mid-run by a dynamic workload: injection and forwarding
    /// stop, and the flow counts as resolved.
    halted: bool,
}

impl SrcrFlow {
    /// Position of `node` on the path (paths are hop-free of repeats).
    fn hop(&self, node: NodeId) -> Option<usize> {
        self.path.iter().position(|&p| p == node)
    }

    /// The nexthop from `node`, `None` at the destination or off-path.
    fn next_hop(&self, node: NodeId) -> Option<NodeId> {
        self.hop(node).and_then(|i| self.path.get(i + 1).copied())
    }
}

/// Srcr for a whole mesh; one instance drives all nodes.
pub struct SrcrAgent {
    cfg: SrcrConfig,
    topo: Topology,
    default_rate: Bitrate,
    flows: Vec<SrcrFlow>,
    /// Per-node round-robin cursor over flows.
    rr: Vec<usize>,
    /// Flow indices whose path crosses each node, ascending. `poll_tx`
    /// visits these instead of every flow ever admitted — off-path flows
    /// can never have a queued packet there, so the cyclic scan returns
    /// the identical frame.
    node_flows: Vec<Vec<usize>>,
    /// Onoe state per (node, nexthop).
    autorate: BTreeMap<(NodeId, NodeId), OnoeAutorate>,
    /// The last flow's route table, recomputed in place toward the next
    /// arrival's destination: a route costs what its search reaches.
    etx: Option<EtxTable>,
}

impl SrcrAgent {
    /// Builds an agent; `default_rate` is used when autorate is off (and
    /// as Onoe's starting rate otherwise).
    pub fn new(topo: Topology, cfg: SrcrConfig, default_rate: Bitrate) -> Self {
        let n = topo.n();
        SrcrAgent {
            cfg,
            topo,
            default_rate,
            flows: Vec::new(),
            rr: vec![0; n],
            node_flows: vec![Vec::new(); n],
            autorate: BTreeMap::new(),
            etx: None,
        }
    }

    /// The Onoe controller of the link `node → nh`, started at the
    /// configured rate on first use.
    fn onoe(&mut self, node: NodeId, nh: NodeId) -> &mut OnoeAutorate {
        let initial = self.default_rate;
        self.autorate
            .entry((node, nh))
            .or_insert_with(|| OnoeAutorate::new(initial))
    }

    /// A packet left the network (delivered or dropped): update pacing and
    /// completion.
    fn resolve(f: &mut SrcrFlow, delivered: bool, now: Time) {
        f.in_flight = f.in_flight.saturating_sub(1);
        if delivered {
            f.delivered += 1;
        } else {
            f.dropped += 1;
        }
        if f.delivered + f.dropped == f.total {
            f.completed_at = Some(now);
        }
    }

    /// Packet `seq` of `f` was given up on — by the MAC, a full forwarding
    /// queue or the transmit queue. It counts dropped unless the
    /// destination already logged it (only the MAC ACKs were lost):
    /// `got[]` flips exactly once. A withdrawn flow counts nothing further.
    fn lose(f: &mut SrcrFlow, seq: u32, ctx: &mut Ctx<'_>) {
        if f.halted || std::mem::replace(&mut f.got[seq as usize], true) {
            return;
        }
        Self::resolve(f, false, ctx.now());
        // The window opened: wake the source.
        ctx.mark_backlogged(f.src);
    }
}

impl NodeAgent for SrcrAgent {
    type Payload = SrcrPayload;

    fn on_receive(&mut self, node: NodeId, frame: &Frame<SrcrPayload>, ctx: &mut Ctx<'_>) {
        // Srcr links are point-to-point: ignore overheard frames.
        if frame.dst != Some(node) {
            return;
        }
        let Some(fi) = mesh_sim::flow_index(frame.payload.flow, self.flows.len()) else {
            return;
        };
        let f = &mut self.flows[fi];
        if f.halted {
            return; // departed flows count nothing further
        }
        let seq = frame.payload.seq;
        if node == f.dst {
            let new = !std::mem::replace(&mut f.got[seq as usize], true);
            if new {
                Self::resolve(f, true, ctx.now());
                // The window opened: wake the source (the transport's ACK
                // clocking, abstracted).
                let src = f.src;
                ctx.mark_backlogged(src);
            }
            // Duplicates (data-got-through-but-MAC-ACK-lost retries) are
            // absorbed silently, as IP would.
            return;
        }
        // Forwarder: queue it (tail drop beyond the 50-packet queue).
        // Unicast frames only land on path nodes; anything else is a
        // stale frame for a withdrawn route and is dropped silently.
        let Some(hop) = f.hop(node) else {
            return;
        };
        if f.queues[hop].len() >= QUEUE_LEN {
            return Self::lose(f, seq, ctx);
        }
        f.queues[hop].push_back(seq);
        ctx.mark_backlogged(node);
    }

    fn on_tx_done(
        &mut self,
        node: NodeId,
        outcome: TxOutcome,
        payload: SrcrPayload,
        ctx: &mut Ctx<'_>,
    ) {
        let Some(fi) = mesh_sim::flow_index(payload.flow, self.flows.len()) else {
            return;
        };
        let (retries, failed) = match outcome {
            TxOutcome::Acked { retries } => (retries, false),
            TxOutcome::Failed { retries } => (retries, true),
            // The transmit queue discarded a packet the MAC never sent: a
            // loss, but not one the link's rate controller saw.
            TxOutcome::Dropped(_) => return Self::lose(&mut self.flows[fi], payload.seq, ctx),
            TxOutcome::Broadcast => unreachable!("Srcr never broadcasts"),
        };
        if self.cfg.autorate {
            if let Some(nh) = self.flows[fi].next_hop(node) {
                self.onoe(node, nh).record(ctx.now(), retries, failed);
            }
        }
        if failed {
            Self::lose(&mut self.flows[fi], payload.seq, ctx);
        }
        ctx.mark_backlogged(node);
    }

    fn poll_tx(&mut self, node: NodeId, _ctx: &mut Ctx<'_>) -> Option<OutFrame<SrcrPayload>> {
        let nf = self.flows.len();
        if nf == 0 {
            return None;
        }
        // Cyclic scan from the cursor over this node's own flows only.
        // Off-path flows can neither top up a window here (the source is
        // on its path) nor hold a queued packet, so restricting the scan
        // visits the same flows, in the same order, as the historical
        // walk over every flow — and returns the identical frame.
        let cands = std::mem::take(&mut self.node_flows[node.0]);
        let start = self.rr[node.0] % nf;
        let pivot = cands.partition_point(|&fi| fi < start);
        for k in 0..cands.len() {
            let fi = cands[(pivot + k) % cands.len()];
            if self.flows[fi].halted {
                continue;
            }
            // Source pacing: top the window up before dequeueing.
            let f = &mut self.flows[fi];
            if node == f.src {
                while (f.next_seq as usize) < f.total
                    && f.in_flight < WINDOW
                    && f.queues[0].len() < QUEUE_LEN
                {
                    f.queues[0].push_back(f.next_seq);
                    f.next_seq += 1;
                    f.in_flight += 1;
                }
            }
            let Some(hop) = f.hop(node) else {
                continue;
            };
            if f.queues[hop].is_empty() {
                continue;
            }
            let Some(&nh) = f.path.get(hop + 1) else {
                continue;
            };
            let rate = if self.cfg.autorate {
                self.onoe(node, nh).rate()
            } else {
                self.default_rate
            };
            let f = &mut self.flows[fi];
            let seq = f.queues[hop].pop_front().expect("non-empty queue");
            self.rr[node.0] = fi + 1;
            self.node_flows[node.0] = cands;
            return Some(OutFrame {
                dst: Some(nh),
                bytes: PACKET_BYTES,
                bitrate: Some(rate),
                flow: Some(f.id),
                payload: SrcrPayload { flow: f.id, seq },
            });
        }
        self.node_flows[node.0] = cands;
        None
    }
}

impl mesh_sim::FlowAgent for SrcrAgent {
    /// Every flow resolved every packet, or was withdrawn?
    fn flows_done(&self) -> bool {
        self.flows
            .iter()
            .all(|f| f.completed_at.is_some() || f.halted)
    }

    fn flow_progress(&self, index: usize) -> mesh_sim::FlowProgressView {
        let f = &self.flows[index];
        mesh_sim::FlowProgressView {
            delivered: f.delivered,
            completed_at: f.completed_at,
            done: f.completed_at.is_some(),
        }
    }

    /// Registers a transfer under the next flow id ([`mesh_sim::flow_id`]
    /// of its index); returns its index. Kick the source to start.
    fn add_flow(&mut self, desc: &mesh_sim::FlowDesc) -> usize {
        assert_eq!(
            desc.dsts.len(),
            1,
            "Srcr routes along a single best path; multicast arrivals are unsupported"
        );
        let (src, dst, total) = (desc.src, desc.dst(), desc.packets);
        assert!(total > 0, "empty transfer");
        let topo = &self.topo;
        let etx = self
            .etx
            .get_or_insert_with(|| EtxTable::compute(topo, dst, LINK_COST));
        if etx.destination() != dst {
            etx.recompute(topo, dst, LINK_COST);
        }
        assert!(etx.dist(src).is_finite(), "source cannot reach destination");
        let path = etx.path_from(src).expect("finite distance implies a path");
        let fi = self.flows.len();
        // Every hop but the destination may poll frames for this flow.
        for &node in &path[..path.len() - 1] {
            self.node_flows[node.0].push(fi);
        }
        self.flows.push(SrcrFlow {
            id: mesh_sim::flow_id(fi),
            src,
            dst,
            total,
            queues: vec![VecDeque::new(); path.len()],
            path,
            next_seq: 0,
            in_flight: 0,
            got: vec![false; total],
            delivered: 0,
            dropped: 0,
            completed_at: None,
            halted: false,
        });
        fi
    }

    /// The source stops injecting, queued packets are discarded, and the
    /// flow counts as resolved. Delivered and dropped counts stay readable.
    fn end_flow(&mut self, index: usize) {
        let f = &mut self.flows[index];
        f.halted = true;
        for q in &mut f.queues {
            q.clear();
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
        cfg: SrcrConfig,
        src: usize,
        dst: usize,
        total: usize,
        seed: u64,
    ) -> (Simulator<SrcrAgent>, usize) {
        let mut agent = SrcrAgent::new(topo.clone(), cfg, Bitrate::B5_5);
        let fi = agent.add_flow(&FlowDesc::unicast(NodeId(src), NodeId(dst), total));
        let mut sim = Simulator::new(topo, SimConfig::default(), agent, seed);
        sim.kick(NodeId(src));
        sim.run_until(600 * SEC, |a: &SrcrAgent| a.flows_done());
        (sim, fi)
    }

    #[test]
    fn perfect_line_delivers_everything() {
        let topo = generate::line(2, 1.0, 0.0, 25.0);
        let (sim, fi) = run(topo, SrcrConfig::default(), 0, 2, 100, 1);
        assert!(sim.agent.flow_progress(fi).done);
        let f = &sim.agent.flows[fi];
        assert_eq!(f.delivered, 100);
        assert_eq!(f.dropped, 0);
    }

    #[test]
    fn lossy_line_mostly_delivers_via_retries() {
        let topo = generate::line(2, 0.7, 0.0, 25.0);
        let (sim, fi) = run(topo, SrcrConfig::default(), 0, 2, 200, 2);
        let p = sim.agent.flow_progress(fi);
        assert!(p.done);
        // Per-hop attempt success = 0.49 (data × MAC-ACK); 8 attempts
        // ⇒ ~0.5% loss per hop.
        assert!(p.delivered >= 190, "delivered {}", p.delivered);
    }

    #[test]
    fn routes_follow_etx_not_hops() {
        // Weak direct link vs two perfect hops: Srcr must relay. (The
        // symmetric version of the Fig 1-1 example — Srcr's
        // forward-reverse ETX needs bidirectional links.)
        let topo = generate::motivating_symmetric();
        let (sim, fi) = run(topo, SrcrConfig::default(), 0, 2, 50, 3);
        let p = sim.agent.flow_progress(fi);
        assert!(p.done);
        assert_eq!(p.delivered, 50);
        // Node 1 (the relay) must have carried traffic.
        assert!(sim.stats.tx_frames[1] >= 50);
    }

    #[test]
    fn testbed_transfer_completes() {
        let topo = generate::testbed(1);
        let (sim, fi) = run(topo, SrcrConfig::default(), 0, 19, 64, 4);
        assert!(sim.agent.flow_progress(fi).done, "srcr testbed flow stuck");
        let f = &sim.agent.flows[fi];
        assert!(
            f.delivered + f.dropped == 64 && f.delivered >= 48,
            "delivered {} dropped {}",
            f.delivered,
            f.dropped
        );
    }

    #[test]
    fn every_packet_is_delivered_or_dropped() {
        let topo = generate::testbed(2);
        let (ssim, sfi) = run(topo, SrcrConfig::default(), 5, 14, 64, 2);
        assert!(ssim.agent.flow_progress(sfi).done, "Srcr stuck");
        let p = &ssim.agent.flows[sfi];
        assert_eq!(p.delivered + p.dropped, 64);
    }

    #[test]
    fn multiflow_shares_the_medium() {
        let topo = generate::testbed(2);
        let mut agent = SrcrAgent::new(topo.clone(), SrcrConfig::default(), Bitrate::B5_5);
        let f1 = agent.add_flow(&FlowDesc::unicast(NodeId(0), NodeId(19), 60));
        let f2 = agent.add_flow(&FlowDesc::unicast(NodeId(7), NodeId(11), 60));
        let mut sim = Simulator::new(topo, SimConfig::default(), agent, 5);
        sim.kick(NodeId(0));
        sim.kick(NodeId(7));
        sim.run_until(600 * SEC, |a: &SrcrAgent| a.flows_done());
        assert!(sim.agent.flow_progress(f1).done);
        assert!(sim.agent.flow_progress(f2).done);
    }

    #[test]
    fn autorate_engages_per_link_state() {
        let topo = generate::line(1, 0.95, 0.0, 20.0);
        let cfg = SrcrConfig { autorate: true };
        let mut agent = SrcrAgent::new(topo.clone(), cfg, Bitrate::B11);
        let fi = agent.add_flow(&FlowDesc::unicast(NodeId(0), NodeId(1), 400));
        let mut sim = Simulator::new(topo, SimConfig::default(), agent, 6);
        sim.kick(NodeId(0));
        sim.run_until(600 * SEC, |a: &SrcrAgent| a.flows_done());
        assert!(sim.agent.flow_progress(fi).done);
        assert!(
            !sim.agent.autorate.is_empty(),
            "autorate state never created"
        );
    }
}
