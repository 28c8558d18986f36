//! Counters the experiment harnesses read after a run.

use crate::queue::DropCause;
use crate::Time;
use std::collections::BTreeMap;

/// Aggregate and per-node statistics for one simulation run.
#[derive(Clone, Debug, Default)]
#[must_use]
pub struct SimStats {
    /// Data/control frames transmitted, per node (MAC ACKs excluded).
    pub tx_frames: Vec<u64>,
    /// Frames received (decoded), per node.
    pub rx_frames: Vec<u64>,
    /// Airtime occupied by each node's transmissions, µs.
    pub airtime: Vec<Time>,
    /// Collision events observed at receivers.
    pub collisions: u64,
    /// Collisions survived via capture.
    pub captures: u64,
    /// Unicast transmissions that exhausted their retries.
    pub unicast_failures: u64,
    /// Unicast retransmissions performed.
    pub retries: u64,
    /// Overlap µs, the spatial-reuse indicator: as each data frame
    /// begins, the µs it shares with every frame of another node already
    /// on the air anywhere in the mesh, MAC ACKs included, summed. Each
    /// overlapping pair counts once, by the later frame when that is a
    /// data frame, so `k` frames on the air together add `k(k − 1)/2`
    /// times their airtime.
    pub concurrent_airtime: Time,
    /// Engine events dispatched (traffic actions excluded). A unicast's
    /// ACK timeout counts only when it fires: one the MAC ACK answered is
    /// never scheduled.
    pub events: u64,
    /// Highest transmit-queue depth each node ever reached (all zero
    /// under [`crate::queue::QueueSpec::Unbounded`]).
    pub queue_depth_hw: Vec<usize>,
    /// Frames dropped at each node's transmit queue, all causes.
    pub queue_drops: Vec<u64>,
    /// Queue drops from arriving at a full queue (tail drop).
    pub queue_drops_overflow: u64,
    /// Queue drops from CHOKe flow matching (both victims counted).
    pub queue_drops_match: u64,
    /// Queue drops per protocol flow id (frames with
    /// [`crate::OutFrame::flow`] set); flow-less control frames are not
    /// listed here but are still counted in the totals above.
    pub queue_drops_by_flow: BTreeMap<u32, u64>,
}

impl SimStats {
    /// Fresh counters for an `n`-node network.
    pub fn new(n: usize) -> Self {
        SimStats {
            tx_frames: vec![0; n],
            rx_frames: vec![0; n],
            airtime: vec![0; n],
            queue_depth_hw: vec![0; n],
            queue_drops: vec![0; n],
            ..Default::default()
        }
    }

    /// Records a queue drop of `flow` (if any) at `node` for `cause`.
    pub(crate) fn count_queue_drop(&mut self, node: usize, flow: Option<u32>, cause: DropCause) {
        if let Some(d) = self.queue_drops.get_mut(node) {
            *d += 1;
        }
        match cause {
            DropCause::Overflow => self.queue_drops_overflow += 1,
            DropCause::Early => {}
            DropCause::FlowMatch => self.queue_drops_match += 1,
        }
        if let Some(f) = flow {
            *self.queue_drops_by_flow.entry(f).or_insert(0) += 1;
        }
    }

    /// Total frames dropped at transmit queues across the network.
    pub fn total_queue_drops(&self) -> u64 {
        self.queue_drops.iter().sum()
    }

    /// Total data-frame transmissions across the network.
    pub fn total_tx(&self) -> u64 {
        self.tx_frames.iter().sum()
    }

    /// Total receptions across the network.
    pub fn total_rx(&self) -> u64 {
        self.rx_frames.iter().sum()
    }

    /// Total airtime across nodes, µs.
    pub fn total_airtime(&self) -> Time {
        self.airtime.iter().sum()
    }
}

#[cfg(test)]
mod test {
    use super::*;

    #[test]
    fn totals() {
        let mut s = SimStats::new(3);
        s.tx_frames[0] = 5;
        s.tx_frames[2] = 7;
        s.rx_frames[1] = 9;
        s.airtime[0] = 100;
        s.airtime[1] = 50;
        assert_eq!(s.total_tx(), 12);
        assert_eq!(s.total_rx(), 9);
        assert_eq!(s.total_airtime(), 150);
    }
}
