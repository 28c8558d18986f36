//! The harness that reproduces the paper's evaluation.
//!
//! The heavy lifting lives in [`more_scenario`]: declare a scenario
//! (topology, traffic, protocols, sweeps, seeds) with
//! [`more_scenario::Scenario`], run it, and read structured
//! [`more_scenario::RunRecord`]s. This crate keeps:
//!
//! * [`paper`] — the catalog of the paper's experiments and claims, which
//!   the `paper` binary (`paper list | <name> | all`) runs;
//! * [`stats`] — quantiles/CDF helpers for printing the paper's series.

#![forbid(unsafe_code)]

pub mod paper;
pub mod stats;
