#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#   ledger/run.sh [--seed S] [--quick]                          whole suite -> ledger/out/results.json
#   ledger/run.sh --workload W --seed S --seconds T --trace 0|1   one workload (BENCHMARK.json's command)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
export LEDGER_OUT="${LEDGER_OUT:-$here/out}"
exec "${CARGO_TARGET_DIR:-$here/target}/release/ledger" run "$@"
