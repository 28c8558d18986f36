//! What a MORE frame carries (Fig 3-1).
//!
//! In the simulator frames carry [`MorePayload`] values directly; the
//! header's bytes reach the air only as [`crate::HEADER_BYTES`], whose doc
//! lists the Fig 3-1 fields behind its 70 B.

use mesh_topology::NodeId;
use rlnc::CodedPacket;

/// What a MORE frame carries.
#[derive(Clone, Debug)]
pub enum MorePayload {
    /// A coded data packet.
    Data {
        flow: u32,
        batch: u32,
        /// The coded packet: code vector and payload in one flat,
        /// refcounted buffer, so cloning the frame for each simulated
        /// receiver of a broadcast is O(1). The payload region is empty
        /// when payload tracking is off.
        packet: CodedPacket,
    },
    /// A batch ACK travelling back to the source. `origin` is the
    /// destination that generated it (multicast flows have several).
    Ack {
        flow: u32,
        batch: u32,
        origin: NodeId,
    },
}

impl MorePayload {
    /// The flow this frame belongs to.
    pub fn flow(&self) -> u32 {
        match self {
            MorePayload::Data { flow, .. } | MorePayload::Ack { flow, .. } => *flow,
        }
    }

    /// The batch this frame refers to.
    pub fn batch(&self) -> u32 {
        match self {
            MorePayload::Data { batch, .. } | MorePayload::Ack { batch, .. } => *batch,
        }
    }
}

#[cfg(test)]
mod test {
    use super::*;

    #[test]
    fn payload_accessors() {
        let p = MorePayload::Ack {
            flow: 4,
            batch: 9,
            origin: NodeId(3),
        };
        assert_eq!(p.flow(), 4);
        assert_eq!(p.batch(), 9);
    }
}
