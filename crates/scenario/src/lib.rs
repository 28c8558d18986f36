//! Composable scenario builder and pluggable protocol registry for the
//! MORE reproduction.
//!
//! The paper's evaluation is a *comparison* — MORE vs ExOR vs Srcr over
//! identical topologies, traffic, and seeds. This crate makes that
//! comparison (and every workload beyond it) declarative:
//!
//! ```
//! use more_scenario::{Scenario, Sweep, TrafficSpec};
//!
//! let records = Scenario::named("demo")
//!     .testbed(1)
//!     .traffic(TrafficSpec::RandomPairs { count: 4, seed: 7 })
//!     .protocols(["Srcr", "ExOR", "MORE"])
//!     .packets(64)
//!     .deadline(120)
//!     .run();
//! assert_eq!(records.len(), 3 * 4); // 3 protocols × 4 pairs
//! let json = more_scenario::record::to_json(&records);
//! assert!(json.contains("\"protocol\": \"MORE\""));
//! ```
//!
//! Key pieces:
//!
//! * [`Scenario`] / [`ScenarioBuilder`] — fluent declaration of
//!   topology, traffic, protocols, parameter sweeps, seeds, and
//!   deadlines; [`ScenarioBuilder::run`] executes the whole grid on a
//!   worker pool and returns structured [`RunRecord`]s (JSON/CSV
//!   serializable via [`record`]).
//! * [`ProtocolFactory`] / [`ProtocolRegistry`] — protocols are
//!   pluggable objects, not enum arms. [`ProtocolRegistry::with_defaults`]
//!   ships MORE, ExOR, Srcr, and Srcr-autorate; anything implementing
//!   [`ProtocolFactory`] (over any [`mesh_sim::FlowAgent`]) registers
//!   alongside them — from outside this crate — and runs in the same
//!   scenarios on the same seeds.
//! * [`TrafficModel`] / [`TrafficModelSpec`] — workloads are pluggable
//!   objects too: the legacy static [`TrafficSpec`] expansion is one
//!   model among several (Poisson arrivals, caller-supplied schedules),
//!   and dynamic models start and stop flows *mid-run* through
//!   the protocol's [`mesh_sim::FlowAgent`] lifecycle hooks.
//! * [`sink::RunSink`] — results *stream*: each record is handed to a
//!   sink the moment its grid cell completes (in deterministic grid
//!   order). [`sink::Collect`] reproduces the legacy `Vec<RunRecord>`
//!   byte for byte; [`sink::JsonLines`] / [`sink::CsvAppend`] write
//!   files incrementally; [`sink::Aggregate`] folds bounded-memory
//!   per-cell summaries; [`sink::Tee`] fans out. With
//!   [`ScenarioBuilder::checkpoint`] a sweep becomes resumable: a
//!   manifest of completed grid cells lets an interrupted run skip
//!   finished work and append — byte-identical to an uninterrupted run.
//! * [`exec::par_map_streaming`] — the sharded scoped-thread executor
//!   underneath every sweep: workers forward completions through a
//!   channel drained by the caller, no global lock on a slot vector.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(clippy::return_self_not_must_use)]
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

pub mod builder;
mod cell;
pub mod exec;
pub mod manifest;
mod pairs;
pub mod protocols;
pub mod record;
pub mod registry;
pub mod sink;
pub mod spec;
pub mod traffic;

pub use builder::{RunSummary, Scenario, ScenarioBuilder};
pub use cell::Cell;
pub use mesh_sim::{AimdConfig, ChannelSpec, QueueSpec};
pub use protocols::{ExorFactory, MoreFactory, SrcrFactory};
pub use record::{FlowRecord, RunRecord};
pub use registry::{BuildError, ProtocolFactory, ProtocolRegistry};
pub use sink::{Aggregate, Collect, CsvAppend, JsonLines, RunSink, Tee};
pub use spec::{random_pairs, ExpConfig, FlowSpec, Sweep, TopologySpec, TrafficSpec};
pub use traffic::{
    validate_schedule, FlowEvent, PoissonModel, StaticModel, TrafficModel, TrafficModelSpec,
};
