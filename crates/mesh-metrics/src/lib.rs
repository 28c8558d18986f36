//! Routing metrics and minimum-cost opportunistic flow algorithms.
//!
//! Implements both the practical machinery of thesis §3.2.1 and the full
//! theory of Chapter 5:
//!
//! * [`etx`] — the classic ETX metric (Dijkstra over `1/p` link costs) and
//!   best-path extraction, as used by Srcr and by MORE/ExOR for forwarder
//!   ordering.
//! * [`eotx`] — the EOTX metric: the minimum expected number of
//!   *opportunistic* transmissions network-wide to deliver one packet.
//!   Both the Bellman–Ford formulation (Algorithms 3–4) and the Dijkstra
//!   formulation for independent losses (Algorithm 5).
//! * [`credits`] — Algorithm 1 (per-node expected transmission counts
//!   `z_i`), the TX-credit of Eq (3.3), and MORE's 10 % pruning rule.
//! * [`flow`] — Algorithm 6: recovering the full flow variables `x_ij` and
//!   `z_i` from a cost ordering (§5.6.1), used to verify §5.6.2's
//!   equivalence between the flow method and the EOTX method.
//! * [`gap`] — the ETX-order vs EOTX-order total-cost gap of §5.7
//!   (Proposition 6).
//! * [`fairness`] — Jain's fairness index over per-flow throughputs,
//!   used by the queueing subsystem to compare disciplines under
//!   overload.
//! * [`cache`] — lazy per-destination memoization of ETX/EOTX tables, so
//!   runs with many flows toward shared sinks compute each table once.

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

pub mod cache;
pub mod credits;
pub mod eotx;
pub mod etx;
pub mod fairness;
pub mod flow;
pub mod gap;

pub use cache::MetricCache;
pub use credits::{ForwarderPlan, PlanConfig};
pub use eotx::EotxTable;
pub use etx::EtxTable;

/// Tolerance used for float comparisons throughout the metric algorithms.
pub const EPS: f64 = 1e-9;

/// A value standing for "unreachable" in metric tables.
pub const INF: f64 = f64::INFINITY;
