//! `ledger` — the repository's end-to-end + per-layer benchmark.
//! See `ledger/README.md`.

mod catalog;
mod cli;
mod digest;
mod e2e;
mod hostspeed;
mod probes;
mod report;
mod span;
mod staged;
mod stats;
mod trace;
mod workloads;

fn main() -> std::process::ExitCode {
    cli::main()
}
