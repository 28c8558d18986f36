//! MORE — MAC-independent Opportunistic Routing and Encoding.
//!
//! The paper's contribution (thesis Chapter 3), implemented as a
//! [`mesh_sim::NodeAgent`]:
//!
//! * the **source** breaks the file into batches of K native packets and,
//!   whenever the MAC lets it, broadcasts a fresh random linear
//!   combination of the current batch (§3.1.1);
//! * **forwarders** listen to all transmissions, store innovative packets,
//!   maintain a *credit counter* — incremented by the flow's TX credit
//!   (Eq 3.3) per packet heard from upstream, decremented per transmission
//!   — and broadcast pre-coded combinations while credit is positive
//!   (§3.2.1, §3.3.3);
//! * the **destination** checks innovativeness, ACKs the batch the moment
//!   the K-th innovative packet arrives (before decoding, §3.2.2), decodes
//!   by incremental Gaussian elimination, and pushes native packets up;
//! * **batch ACKs** travel back to the source as prioritized, reliably
//!   retransmitted unicasts along the ETX shortest path; every node that
//!   hears one purges the batch (§3.3.4).
//!
//! **Multicast** is the same protocol with more destinations, which is
//! the point of trading ExOR's structured scheduler for random coding
//! (§1): a coded packet is useful to every destination at once. A flow
//! holds one [`Destination`] per receiver, each with its own forwarder
//! plan and ACK frontier. A node's TX credit is the largest of its
//! per-destination credits, a packet counts as "from upstream" if its
//! sender is farther from some destination both serve, and the source
//! pumps the earliest batch some destination has not ACKed. There is one
//! purge rule: a participant that hears a batch ACK — overheard or
//! addressed to it for relaying — notes it against the destination it
//! came from and drops every batch all destinations have ACKed. With one
//! destination that is the paper's unicast protocol exactly.
//!
//! The forwarder set, transmission counts `z_i`, TX credits, and the 10 %
//! pruning rule come from [`mesh_metrics::ForwarderPlan`] — exactly the
//! Algorithm 1 pipeline of §3.2.1.
//!
//! Because MORE never touches the MAC, the same agent works unmodified for
//! one flow or many, unicast and multicast mixed
//! ([`MoreAgent::add_flow`]), at any bit-rate, with
//! spatial reuse falling out of the 802.11 model rather than protocol
//! machinery — the property the paper trades ExOR's structure for.

#![forbid(unsafe_code)]

pub mod agent;
pub mod flow;
pub mod header;

pub use agent::MoreAgent;
pub use flow::{Destination, FlowId, FlowProgress, MoreFlow};
pub use header::MorePayload;

use mesh_metrics::PlanConfig;

/// Which metric orders the forwarder list.
///
/// The shipped MORE uses ETX because it pre-dates EOTX; §5.7 argues
/// "future incarnations of both protocols should use the theoretically
/// exact EOTX". Both are offered; `paper ablation_eotx` measures the
/// difference.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ForwarderMetric {
    /// ETX ordering, as in the paper's evaluation (§3.2.1).
    #[default]
    Etx,
    /// EOTX ordering — the Chapter-5 optimum.
    Eotx,
}

/// Protocol parameters (§4.1.2 defaults).
#[derive(Clone, Copy, Debug)]
pub struct MoreConfig {
    /// Batch size K (32 in the evaluation; Fig 4-7 sweeps 8–128).
    pub k: usize,
    /// Native packet size in bytes (1500 in the evaluation).
    pub packet_bytes: usize,
    /// MORE header overhead added to every data frame (bounded by ~70 B,
    /// §4.6c).
    pub header_bytes: usize,
    /// Forwarder-set pruning and cap (§3.2.1, §4.6c).
    pub plan: PlanConfig,
    /// Metric used to order forwarders and derive transmission counts.
    pub metric: ForwarderMetric,
    /// Carry and verify real coded payloads end-to-end. Costs CPU in large
    /// sweeps; rank dynamics (and therefore throughput) are identical
    /// either way because innovativeness is decided on code vectors alone.
    pub track_payloads: bool,
}

impl Default for MoreConfig {
    fn default() -> Self {
        MoreConfig {
            k: 32,
            packet_bytes: 1500,
            header_bytes: 70,
            plan: PlanConfig::default(),
            metric: ForwarderMetric::default(),
            track_payloads: false,
        }
    }
}

/// Deterministic byte for native packet `idx` of `batch` in `flow` —
/// lets the destination verify decoded payloads without shipping the file.
pub fn native_byte(flow: u32, batch: u32, idx: usize) -> u8 {
    (flow as usize)
        .wrapping_mul(151)
        .wrapping_add((batch as usize).wrapping_mul(53))
        .wrapping_add(idx.wrapping_mul(7))
        .wrapping_add(13) as u8
}

/// Builds the native packets for one batch.
pub fn batch_natives(flow: u32, batch: u32, k: usize, bytes: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| {
            let seed = native_byte(flow, batch, i);
            (0..bytes)
                .map(|b| seed.wrapping_add((b % 251) as u8))
                .collect()
        })
        .collect()
}
