//! Queue-subsystem equivalence: the default [`QueueSpec::Unbounded`] —
//! a one-frame slot in the queue pump, which every frame goes through —
//! is the golden run (see `tests/common/mod.rs`), said or unsaid: the
//! run the engine made before it had queues. The run includes the Srcr
//! and ExOR baselines because every agent's transmit path goes through
//! the pump (frames popped from the agent's queues at poll time, and
//! handed back with their outcome through `on_tx_done`): a single extra
//! poll, re-queued frame, or RNG draw would shift every downstream number.
//! Bounded disciplines must instead be deterministic per seed, diverge
//! across seeds, and surface their label in the `queue` key.
//!
//! The bounded path has its own golden,
//! `tests/golden/coded_2flow_queued_run.json`: the same run under a
//! DropTail(4) and a CHOKe(8) queue, where every protocol loses frames to
//! the queue. This file is its one writer:
//! `UPDATE_GOLDEN=1 cargo test --test queue_equivalence`.

mod common;

use common::{coded_2flow, GOLDEN};
use more_repro::scenario::{record, QueueSpec, Sweep};

#[test]
fn unbounded_queue_reproduces_the_pre_queue_run_byte_for_byte() {
    let default_json = record::to_json(&coded_2flow().run());
    assert_eq!(
        default_json, GOLDEN,
        "the default (unbounded) path diverged from the golden run"
    );
    // Saying `Unbounded` explicitly is the same as saying nothing.
    let explicit = coded_2flow().queue(QueueSpec::Unbounded).run();
    assert_eq!(record::to_json(&explicit), default_json);
}

#[test]
fn bounded_queues_reproduce_the_queued_golden_run() {
    let points = vec![QueueSpec::drop_tail(4), QueueSpec::choke(8)];
    let records = coded_2flow().sweep(Sweep::Queue(points)).run();
    // 3 protocols × 2 disciplines × 2 seeds.
    assert_eq!(records.len(), 12);
    for r in &records {
        assert!(
            r.queue_drops > 0,
            "{} under {} at seed {} never lost a frame to its queue",
            r.protocol,
            r.queue,
            r.seed
        );
    }
    let json = record::to_json(&records);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/coded_2flow_queued_run.json"
        );
        std::fs::write(path, &json).expect("write golden");
        return;
    }
    let golden = include_str!("golden/coded_2flow_queued_run.json");
    assert_eq!(
        json, golden,
        "the bounded-queue path diverged from the golden run"
    );
}

#[test]
fn bounded_disciplines_are_deterministic_and_distinct() {
    let run = |spec: &QueueSpec, seed: u64| {
        record::to_json(&coded_2flow().seeds([seed]).queue(spec.clone()).run())
    };
    let unbounded = run(&QueueSpec::Unbounded, 1);
    for spec in [
        QueueSpec::drop_tail(4),
        QueueSpec::red(8),
        QueueSpec::choke(8),
    ] {
        let a = run(&spec, 1);
        assert_eq!(
            a,
            run(&spec, 1),
            "{}: same seed + same queue must replay exactly",
            spec.label()
        );
        assert_ne!(
            a,
            unbounded,
            "{}: a 4–8 frame queue under 2 concurrent coded flows must \
             change the run",
            spec.label()
        );
        // Divergence across seeds: the run is a function of the seed,
        // not only of the discipline.
        assert_ne!(
            a,
            run(&spec, 2),
            "{}: different seeds must not replay identically",
            spec.label()
        );
        // And the discipline is surfaced in the output.
        let key = format!("\"queue\": \"{}\"", spec.label());
        assert!(a.contains(&key), "queue key missing: {key} not in {a}");
        assert!(a.contains("\"fairness\": "), "fairness key missing");
    }
}
