//! Queue-subsystem equivalence: the default [`QueueSpec::Unbounded`] —
//! the pull-on-demand transmit path — is the golden run (see
//! `tests/common/mod.rs`), said or unsaid. The run includes the Srcr and
//! ExOR baselines because every agent's transmit path is shared with the
//! queue pump (pop-at-poll outstanding FIFOs): a single extra poll,
//! re-queued frame, or RNG draw would shift every downstream number.
//! Bounded disciplines must instead be deterministic per seed, diverge
//! across seeds, and surface their label in the `queue` key.

mod common;

use common::{coded_2flow, GOLDEN};
use more_repro::scenario::{record, QueueSpec};

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
