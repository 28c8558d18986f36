//! The determinism contract, proven across worker counts: a run is a
//! pure function of `(topology, agent, seed, channel)`, so the same
//! scenario grid must serialize to byte-identical RunRecord JSON no
//! matter how many executor threads shard it — and no matter how many
//! times it is repeated in one process (clippy's `disallowed-types` on
//! hash containers and the wall clock guards the source-level side of
//! this contract).

use more_repro::scenario::sink::Collect;
use more_repro::scenario::{Scenario, ScenarioBuilder, TrafficSpec};

/// A grid big enough to shard unevenly across 8 workers: 2 protocols ×
/// 3 seeds × 2 flow draws = 12 cells.
fn grid(name: &str) -> ScenarioBuilder {
    Scenario::named(name)
        .testbed(3)
        .traffic(TrafficSpec::RandomPairs { count: 2, seed: 11 })
        .protocols(["MORE", "Srcr"])
        .seeds([1, 2, 3])
        .k(8)
        .packets(16)
        .deadline(120)
}

fn json_with_threads(name: &str, threads: usize) -> String {
    let mut collect = Collect::new();
    grid(name)
        .threads(threads)
        .try_run_with_sink(&mut collect)
        .expect("grid run");
    collect.to_json()
}

#[test]
fn one_and_eight_workers_serialize_byte_identical_records() {
    let single = json_with_threads("xthread", 1);
    let sharded = json_with_threads("xthread", 8);
    assert!(
        single.contains("\"protocol\""),
        "sanity: records were produced"
    );
    assert_eq!(
        single, sharded,
        "RunRecord JSON must not depend on the worker count"
    );
}

#[test]
fn repeated_runs_serialize_byte_identical_records() {
    // The double-run proof behind the BTreeMap migrations: nothing in
    // the engine (hash seeds, allocation order, wall clock) leaks into
    // the records across process-internal repetitions.
    let first = json_with_threads("rerun", 4);
    let second = json_with_threads("rerun", 4);
    assert_eq!(first, second, "same grid twice must give the same bytes");
}
