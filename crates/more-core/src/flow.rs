//! Per-flow, per-node protocol state (thesis §3.3.2).

use crate::MoreConfig;
use mesh_metrics::ForwarderPlan;
use mesh_sim::Time;
use mesh_topology::NodeId;
use rlnc::{Decoder, ForwarderBuffer, InnovationTracker};
use std::collections::VecDeque;

/// Flow identifier (the header's flow id).
pub type FlowId = u32;

/// What a harness reads to measure a flow. Counts are summed over the
/// flow's destinations; [`MoreFlow::dsts`] has the per-destination detail.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlowProgress {
    /// Native packets delivered (decoded) at the destinations.
    pub delivered_packets: usize,
    /// Batches fully decoded at the destinations.
    pub decoded_batches: u32,
    /// Batches whose ACK reached the source from every destination.
    pub acked_batches: u32,
    /// Simulated time when the last destination decoded the last packet.
    pub completed_at: Option<Time>,
    /// The source has received the final batch ACK of every destination.
    pub done: bool,
    /// Data transmissions made for batches every destination had already
    /// fully received (the Fig 4-7 "spurious transmissions").
    pub spurious_tx: u64,
}

/// The coding state a node keeps for the *current* batch of a flow.
///
/// Which variant a node holds depends on its role and on whether the run
/// carries real payload bytes (§"track_payloads" in [`MoreConfig`]).
#[derive(Debug)]
pub enum BatchState {
    /// Nothing buffered yet.
    Empty,
    /// Forwarder, vectors only: rank bookkeeping via Algorithm 2.
    Tracker(InnovationTracker),
    /// Forwarder with payload bytes: pool + pre-coding.
    Coded(ForwarderBuffer),
    /// Destination, vectors only.
    DstTracker(InnovationTracker),
    /// Destination with payload bytes: incremental decoder.
    DstDecoder(Decoder),
}

impl BatchState {
    /// Rank of the information held.
    pub fn rank(&self) -> usize {
        match self {
            BatchState::Empty => 0,
            BatchState::Tracker(t) | BatchState::DstTracker(t) => t.rank(),
            BatchState::Coded(b) => b.rank(),
            BatchState::DstDecoder(d) => d.rank(),
        }
    }
}

/// Per-node state for one flow (§3.3.2: batch buffer, current batch,
/// forwarder list + credits arrive in headers — here shared via the plan —
/// and the credit counter).
#[derive(Debug)]
pub struct NodeFlowState {
    /// "The current batch variable identifies the most recent batch."
    pub current_batch: u32,
    /// The credit counter (§3.2.1).
    pub credit: f64,
    /// Coding state for `current_batch`.
    pub batch: BatchState,
    /// Batch ACKs queued for forwarding toward the source, as `(batch,
    /// originating destination)` (ACKs are "given priority over data
    /// packets at every node", §3.1.3).
    pub pending_acks: VecDeque<(u32, NodeId)>,
}

impl NodeFlowState {
    pub fn new() -> Self {
        NodeFlowState {
            current_batch: 0,
            credit: 0.0,
            batch: BatchState::Empty,
            pending_acks: VecDeque::new(),
        }
    }

    /// Flush on batch advance or overheard ACK (§3.2.2, §3.3.4).
    pub fn flush_to(&mut self, batch: u32) {
        if batch > self.current_batch {
            self.current_batch = batch;
            self.batch = BatchState::Empty;
            self.credit = 0.0;
        }
    }
}

impl Default for NodeFlowState {
    fn default() -> Self {
        Self::new()
    }
}

/// One destination of a flow: the forwarder plan toward it, and what it
/// has decoded and ACKed.
#[derive(Debug)]
pub struct Destination {
    pub node: NodeId,
    /// Forwarder plan (Algorithm 1 + pruning) toward this destination.
    pub plan: ForwarderPlan,
    /// `rank_of[node]` — position in the plan's ascending-metric order
    /// (0 = this destination), `None` for non-participants.
    pub rank_of: Vec<Option<u32>>,
    /// `acked[node]` — the ACK frontier as `node` has heard it: this
    /// destination ACKed every batch below it. The source advances on
    /// `acked[src]`, everyone else purges on theirs (§3.3.4).
    pub acked: Vec<u32>,
    /// Batches fully decoded here.
    pub decoded_batches: u32,
    /// Native packets delivered (decoded) here.
    pub delivered_packets: usize,
    /// Simulated time when the last packet was decoded here.
    pub completed_at: Option<Time>,
}

impl Destination {
    /// `node`'s position in this destination's forwarder order.
    pub fn rank(&self, node: NodeId) -> Option<u32> {
        self.rank_of.get(node.0).copied().flatten()
    }
}

/// A `src → {dst, …}` file transfer; unicast is the one-destination case.
#[derive(Debug)]
pub struct MoreFlow {
    pub id: FlowId,
    pub src: NodeId,
    /// The destinations, in the order given to `add_flow`.
    pub dsts: Vec<Destination>,
    /// Total native packets in the file.
    pub total_packets: usize,
    /// `tx_credit[node]` — the largest of the per-destination TX credits:
    /// one coded broadcast serves every downstream destination at once.
    pub tx_credit: Vec<f64>,
    /// Next hop toward the source for batch ACKs (ETX shortest path).
    pub ack_next_hop: Vec<Option<NodeId>>,
    /// Per-node protocol state.
    pub nodes: Vec<NodeFlowState>,
    /// The batch the source currently pumps: the earliest one some
    /// destination has not ACKed.
    pub src_batch: u32,
    /// Source-side encoder for the current batch (payload-tracking runs).
    pub encoder: Option<rlnc::SourceEncoder>,
    /// Measurements.
    pub progress: FlowProgress,
    /// The flow was withdrawn mid-run by the workload (dynamic traffic
    /// departure): sources and forwarders go silent, and the flow counts
    /// as resolved for the stop condition.
    pub halted: bool,
}

impl MoreFlow {
    /// Number of batches for this flow under config `cfg`.
    pub fn n_batches(&self, cfg: &MoreConfig) -> u32 {
        self.total_packets.div_ceil(cfg.k) as u32
    }

    /// Batch size of batch `b` (the last batch may be short).
    pub fn k_of(&self, cfg: &MoreConfig, b: u32) -> usize {
        let nb = self.n_batches(cfg);
        debug_assert!(b < nb);
        if b + 1 < nb || self.total_packets.is_multiple_of(cfg.k) {
            cfg.k
        } else {
            self.total_packets % cfg.k
        }
    }

    /// True once every batch has been ACKed to the source by every
    /// destination (or the flow was withdrawn by a dynamic workload).
    pub fn is_done(&self, cfg: &MoreConfig) -> bool {
        self.halted || self.src_batch >= self.n_batches(cfg)
    }

    /// Is `node` in some destination's forwarder list (source and
    /// destinations included)?
    pub fn participates(&self, node: NodeId) -> bool {
        self.dsts.iter().any(|d| d.rank(node).is_some())
    }

    /// Is `from` farther than `node` from some destination both serve?
    pub fn from_upstream(&self, node: NodeId, from: NodeId) -> bool {
        self.dsts.iter().any(
            |d| matches!((d.rank(node), d.rank(from)), (Some(mine), Some(theirs)) if theirs > mine),
        )
    }

    /// The earliest batch `node` has not heard every destination ACK.
    pub fn acked_by_all(&self, node: NodeId) -> u32 {
        let heard = self.dsts.iter().filter_map(|d| d.acked.get(node.0));
        heard.min().copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod test {
    use super::*;

    #[test]
    fn node_state_flush_semantics() {
        let mut s = NodeFlowState::new();
        s.credit = 2.5;
        s.batch = BatchState::Tracker(InnovationTracker::new(4));
        s.flush_to(0); // not newer: no-op
        assert_eq!(s.credit, 2.5);
        s.flush_to(3);
        assert_eq!(s.current_batch, 3);
        assert_eq!(s.credit, 0.0);
        assert!(matches!(s.batch, BatchState::Empty));
    }

    #[test]
    fn batch_state_rank() {
        assert_eq!(BatchState::Empty.rank(), 0);
        let mut t = InnovationTracker::new(3);
        t.absorb(rlnc::CodeVector::unit(3, 1));
        assert_eq!(BatchState::Tracker(t).rank(), 1);
    }
}
