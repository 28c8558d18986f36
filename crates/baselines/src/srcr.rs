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

// xtask: allow(panic_path, file) -- SRCR per-node queues and in-flight tables are sized to the topology's node count at setup; route hops come from the Dijkstra pass over that same topology.

use mesh_metrics::etx::LinkCost;
use mesh_metrics::EtxTable;
use mesh_sim::autorate::OnoeConfig;
use mesh_sim::queue::DropCause;
use mesh_sim::{Bitrate, Ctx, Frame, NodeAgent, OnoeAutorate, OutFrame, Time, TxOutcome};
use mesh_topology::{NodeId, Topology};
use std::collections::{BTreeMap, VecDeque};

/// Srcr parameters.
#[derive(Clone, Copy, Debug)]
pub struct SrcrConfig {
    /// Data packet size on the air (1500 B in the evaluation).
    pub packet_bytes: usize,
    /// Router queue capacity in packets (50, §4.1.2).
    pub queue_len: usize,
    /// Per-link Onoe autorate instead of the fixed configured rate.
    pub autorate: bool,
    /// How the sender paces injection: the source keeps its own queue
    /// topped up to this many in-network packets (a simple window that
    /// stands in for the transport the paper's file transfer used).
    pub window: usize,
    /// Link metric for path selection. The paper's ETX accounts for the
    /// 802.11 ACK's reverse trip (§2.1.1).
    pub link_cost: LinkCost,
}

impl Default for SrcrConfig {
    fn default() -> Self {
        SrcrConfig {
            packet_bytes: 1500,
            queue_len: 50,
            autorate: false,
            window: 10,
            link_cost: LinkCost::ForwardReverse,
        }
    }
}

/// What a Srcr frame carries.
#[derive(Clone, Debug)]
pub struct SrcrPayload {
    pub flow: u32,
    pub seq: u32,
}

/// Per-flow measurement results.
#[derive(Clone, Copy, Debug, Default)]
pub struct SrcrProgress {
    /// Unique packets that reached the destination.
    pub delivered: usize,
    /// Packets dropped on the way (retry exhaustion or queue overflow).
    pub dropped: usize,
    /// Time the last packet arrived.
    pub completed_at: Option<Time>,
    /// Every packet accounted for (delivered + dropped == total injected)?
    pub done: bool,
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
    progress: SrcrProgress,
    /// Withdrawn mid-run by a dynamic workload: injection and forwarding
    /// stop, and the flow counts as resolved.
    halted: bool,
}

impl SrcrFlow {
    fn resolved(&self) -> usize {
        self.progress.delivered + self.progress.dropped
    }

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
    /// Packets each node has handed to the MAC, oldest first:
    /// `(flow idx, seq)`. A FIFO rather than a slot because a bounded
    /// transmit queue may poll several frames before the first outcome
    /// arrives; outcomes come back in poll order.
    outstanding: Vec<VecDeque<(usize, u32)>>,
    /// Onoe state per (node, nexthop).
    autorate: BTreeMap<(NodeId, NodeId), OnoeAutorate>,
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
            outstanding: vec![VecDeque::new(); n],
            autorate: BTreeMap::new(),
        }
    }

    /// Registers a transfer under the next flow id (index + 1); returns
    /// its index. Kick `src` to start.
    pub fn add_flow(&mut self, src: NodeId, dst: NodeId, total: usize) -> usize {
        assert!(total > 0, "empty transfer");
        let etx = EtxTable::compute(&self.topo, dst, self.cfg.link_cost);
        assert!(etx.dist(src).is_finite(), "source cannot reach destination");
        let path = etx.path_from(src).expect("finite distance implies a path");
        let fi = self.flows.len();
        // Every hop but the destination may poll frames for this flow.
        for &node in &path[..path.len() - 1] {
            self.node_flows[node.0].push(fi);
        }
        self.flows.push(SrcrFlow {
            id: fi as u32 + 1,
            src,
            dst,
            total,
            queues: vec![VecDeque::new(); path.len()],
            path,
            next_seq: 0,
            in_flight: 0,
            got: vec![false; total],
            progress: SrcrProgress::default(),
            halted: false,
        });
        fi
    }

    /// Withdraws flow `index` mid-run: the source stops injecting, queued
    /// packets are discarded, and the flow counts as resolved. Delivered
    /// and dropped counts stay readable.
    pub fn halt_flow(&mut self, index: usize) {
        let f = &mut self.flows[index];
        f.halted = true;
        for q in &mut f.queues {
            q.clear();
        }
    }

    /// Progress of flow `index`.
    pub fn progress(&self, index: usize) -> &SrcrProgress {
        &self.flows[index].progress
    }

    /// All flows resolved every packet (withdrawn flows count as done)?
    pub fn all_done(&self) -> bool {
        self.flows.iter().all(|f| f.progress.done || f.halted)
    }

    fn rate_for(&mut self, node: NodeId, nh: NodeId) -> Option<Bitrate> {
        if !self.cfg.autorate {
            return Some(self.default_rate);
        }
        let initial = self.default_rate;
        Some(
            self.autorate
                .entry((node, nh))
                .or_insert_with(|| OnoeAutorate::new(initial, OnoeConfig::default()))
                .rate(),
        )
    }

    /// Flow index by wire id: ids are handed out as index + 1.
    fn flow_index(&self, id: u32) -> Option<usize> {
        (id as usize)
            .checked_sub(1)
            .filter(|&fi| fi < self.flows.len())
    }

    /// A packet left the network (delivered or dropped): update pacing and
    /// completion.
    fn resolve(f: &mut SrcrFlow, delivered: bool, now: Time) {
        f.in_flight = f.in_flight.saturating_sub(1);
        if delivered {
            f.progress.delivered += 1;
        } else {
            f.progress.dropped += 1;
        }
        if f.resolved() >= f.total {
            f.progress.done = true;
            if f.progress.completed_at.is_none() {
                f.progress.completed_at = Some(now);
            }
        }
    }
}

impl NodeAgent for SrcrAgent {
    type Payload = SrcrPayload;

    fn on_receive(&mut self, node: NodeId, frame: &Frame<SrcrPayload>, ctx: &mut Ctx<'_>) {
        // Srcr links are point-to-point: ignore overheard frames.
        if frame.dst != Some(node) {
            return;
        }
        let Some(fi) = self.flow_index(frame.payload.flow) else {
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
        if f.queues[hop].len() >= self.cfg.queue_len {
            let new_loss = !std::mem::replace(&mut f.got[seq as usize], true);
            if new_loss {
                Self::resolve(f, false, ctx.now());
                let src = f.src;
                ctx.mark_backlogged(src);
            }
            return;
        }
        f.queues[hop].push_back(seq);
        ctx.mark_backlogged(node);
    }

    fn on_tx_done(&mut self, node: NodeId, outcome: TxOutcome, ctx: &mut Ctx<'_>) {
        let Some((fi, seq)) = self.outstanding[node.0].pop_front() else {
            return;
        };
        let (retries, failed) = match outcome {
            TxOutcome::Acked { retries } => (retries, false),
            TxOutcome::Failed { retries } => (retries, true),
            TxOutcome::Broadcast => unreachable!("Srcr never broadcasts"),
        };
        if self.cfg.autorate {
            let nh = self.flows[fi].next_hop(node);
            if let Some(nh) = nh {
                let initial = self.default_rate;
                self.autorate
                    .entry((node, nh))
                    .or_insert_with(|| OnoeAutorate::new(initial, OnoeConfig::default()))
                    .record(ctx.now(), retries, failed);
            }
        }
        if failed {
            let f = &mut self.flows[fi];
            if f.halted {
                ctx.mark_backlogged(node);
                return;
            }
            // The MAC gave up: the packet is lost unless it already made
            // it and only the MAC ACKs were lost — we count it dropped if
            // the destination never logged it. (got[] flips exactly once.)
            let already = std::mem::replace(&mut f.got[seq as usize], true);
            if !already {
                Self::resolve(f, false, ctx.now());
                let src = f.src;
                ctx.mark_backlogged(src);
            }
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
            {
                let cfg_window = self.cfg.window;
                let f = &mut self.flows[fi];
                if node == f.src {
                    while (f.next_seq as usize) < f.total
                        && f.in_flight < cfg_window
                        && f.queues[0].len() < self.cfg.queue_len
                    {
                        f.queues[0].push_back(f.next_seq);
                        f.next_seq += 1;
                        f.in_flight += 1;
                    }
                }
            }
            let f = &self.flows[fi];
            let Some(hop) = f.hop(node) else {
                continue;
            };
            if f.queues[hop].is_empty() {
                continue;
            }
            let Some(&nh) = f.path.get(hop + 1) else {
                continue;
            };
            let rate = self.rate_for(node, nh);
            let f = &mut self.flows[fi];
            let seq = f.queues[hop].pop_front().expect("non-empty queue");
            self.outstanding[node.0].push_back((fi, seq));
            self.rr[node.0] = fi + 1;
            self.node_flows[node.0] = cands;
            return Some(OutFrame {
                dst: Some(nh),
                bytes: self.cfg.packet_bytes,
                bitrate: rate,
                flow: Some(f.id),
                payload: SrcrPayload { flow: f.id, seq },
            });
        }
        self.node_flows[node.0] = cands;
        None
    }

    fn on_queue_drop(
        &mut self,
        node: NodeId,
        payload: SrcrPayload,
        _cause: DropCause,
        ctx: &mut Ctx<'_>,
    ) {
        // The transmit queue discarded a packet the MAC never sent:
        // retract the outstanding entry and account the loss exactly like
        // a retry-exhausted unicast.
        let Some(fi) = self.flow_index(payload.flow) else {
            return;
        };
        let out = &mut self.outstanding[node.0];
        if let Some(pos) = out.iter().rposition(|&(i, s)| i == fi && s == payload.seq) {
            out.remove(pos);
        }
        let f = &mut self.flows[fi];
        if f.halted {
            return;
        }
        let already = std::mem::replace(&mut f.got[payload.seq as usize], true);
        if !already {
            Self::resolve(f, false, ctx.now());
            let src = f.src;
            ctx.mark_backlogged(src);
        }
    }
}

impl mesh_sim::FlowAgent for SrcrAgent {
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
            "Srcr routes along a single best path; multicast arrivals are unsupported"
        );
        SrcrAgent::add_flow(self, desc.src, desc.dst(), desc.packets)
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
        cfg: SrcrConfig,
        src: usize,
        dst: usize,
        total: usize,
        seed: u64,
    ) -> (Simulator<SrcrAgent>, usize) {
        let mut agent = SrcrAgent::new(topo.clone(), cfg, Bitrate::B5_5);
        let fi = agent.add_flow(NodeId(src), NodeId(dst), total);
        let mut sim = Simulator::new(topo, SimConfig::default(), agent, seed);
        sim.kick(NodeId(src));
        sim.run_until(600 * SEC, |a: &SrcrAgent| a.all_done());
        (sim, fi)
    }

    #[test]
    fn perfect_line_delivers_everything() {
        let topo = generate::line(2, 1.0, 0.0, 25.0);
        let (sim, fi) = run(topo, SrcrConfig::default(), 0, 2, 100, 1);
        let p = sim.agent.progress(fi);
        assert!(p.done);
        assert_eq!(p.delivered, 100);
        assert_eq!(p.dropped, 0);
    }

    #[test]
    fn lossy_line_mostly_delivers_via_retries() {
        let topo = generate::line(2, 0.7, 0.0, 25.0);
        let (sim, fi) = run(topo, SrcrConfig::default(), 0, 2, 200, 2);
        let p = sim.agent.progress(fi);
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
        let p = *sim.agent.progress(fi);
        assert!(p.done);
        assert_eq!(p.delivered, 50);
        // Node 1 (the relay) must have carried traffic.
        assert!(sim.stats.tx_frames[1] >= 50);
    }

    #[test]
    fn testbed_transfer_completes() {
        let topo = generate::testbed(1);
        let (sim, fi) = run(topo, SrcrConfig::default(), 0, 19, 64, 4);
        let p = sim.agent.progress(fi);
        assert!(p.done, "srcr testbed flow stuck");
        assert!(
            p.delivered + p.dropped == 64 && p.delivered >= 48,
            "delivered {} dropped {}",
            p.delivered,
            p.dropped
        );
    }

    #[test]
    fn multiflow_shares_the_medium() {
        let topo = generate::testbed(2);
        let mut agent = SrcrAgent::new(topo.clone(), SrcrConfig::default(), Bitrate::B5_5);
        let f1 = agent.add_flow(NodeId(0), NodeId(19), 60);
        let f2 = agent.add_flow(NodeId(7), NodeId(11), 60);
        let mut sim = Simulator::new(topo, SimConfig::default(), agent, 5);
        sim.kick(NodeId(0));
        sim.kick(NodeId(7));
        sim.run_until(600 * SEC, |a: &SrcrAgent| a.all_done());
        assert!(sim.agent.progress(f1).done);
        assert!(sim.agent.progress(f2).done);
    }

    #[test]
    fn autorate_engages_per_link_state() {
        let topo = generate::line(1, 0.95, 0.0, 20.0);
        let cfg = SrcrConfig {
            autorate: true,
            ..SrcrConfig::default()
        };
        let mut agent = SrcrAgent::new(topo.clone(), cfg, Bitrate::B11);
        let fi = agent.add_flow(NodeId(0), NodeId(1), 400);
        let mut sim = Simulator::new(topo, SimConfig::default(), agent, 6);
        sim.kick(NodeId(0));
        sim.run_until(600 * SEC, |a: &SrcrAgent| a.all_done());
        assert!(sim.agent.progress(fi).done);
        assert!(
            !sim.agent.autorate.is_empty(),
            "autorate state never created"
        );
    }
}
