//! The protocols MORE is evaluated against (thesis §4.1.1):
//!
//! * [`srcr`] — Srcr, "a state-of-the-art best path routing protocol for
//!   wireless mesh networks": Dijkstra over ETX link weights, unicast
//!   hop-by-hop forwarding with 802.11 retransmission, 50-packet queues,
//!   optionally driven by Onoe autorate (§4.4).
//! * [`exor`] — ExOR, "the current opportunistic routing protocol":
//!   batches, per-packet batch maps, and the strict one-transmitter-at-a-
//!   time forwarder schedule in ETX order that ties the MAC to routing —
//!   the structure MORE trades for randomness.
//!
//! Both are implemented as [`mesh_sim::NodeAgent`]s so every figure runs
//! all three protocols over the identical medium, topology, and seed
//! discipline.

#![forbid(unsafe_code)]
// Panic freedom and seeding discipline for the shipped (non-test) build;
// each sanctioned site carries `#[expect(clippy::…, reason = "…")]`.
#![cfg_attr(
    not(test),
    warn(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_methods
    )
)]

pub mod exor;
pub mod srcr;

pub use exor::{ExorAgent, ExorConfig};
pub use srcr::{SrcrAgent, SrcrConfig};
