#!/usr/bin/env bash
# For a CI hook: build, unit tests, the quick suite, and a parse of its results.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --manifest-path "$here/Cargo.toml"
cargo test --offline --manifest-path "$here/Cargo.toml"
"$here/run.sh" --quick
python3 - "${LEDGER_OUT:-$here/out}/results.json" <<'PY'
import json, sys
results = json.load(open(sys.argv[1]))
names = [w["workload"] for w in results["workloads"]]
assert len(names) == 4, names
for w in results["workloads"]:
    assert w["correct"] and w["runs_failed"] == 0, w["workload"]
    assert w["sim_digest"] == w["sim_digest_last_pass"], w["workload"]
print("ledger ci: ok", names)
PY
