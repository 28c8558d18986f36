//! Packet-path equivalence: the zero-copy packet memory model (refcounted
//! payload buffers, flat coded-packet layout, buffer pooling, batched
//! delivery) reproduces the golden run (see `tests/common/mod.rs`) — a
//! buffer reused while still referenced, or a changed delivery order in
//! the batched medium pass, would shift every downstream number.
//!
//! This suite is the golden file's one writer. Regenerate (only when an
//! *intentional* engine or schema change lands) with:
//! `UPDATE_GOLDEN=1 cargo test --test packet_path_equivalence`.

mod common;

use common::{coded_2flow, GOLDEN};
use more_repro::scenario::record;

#[test]
fn zero_copy_path_reproduces_the_pre_rewrite_run_byte_for_byte() {
    let json = record::to_json(&coded_2flow().run());
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/coded_2flow_run.json"
        );
        std::fs::write(path, &json).expect("write golden");
        return;
    }
    assert_eq!(
        json, GOLDEN,
        "the zero-copy packet path diverged from the golden run"
    );
}

#[test]
fn repeated_runs_share_buffers_but_stay_identical() {
    // Back-to-back runs on one thread reuse pooled buffers from the
    // previous run; recycling must be invisible to the simulation.
    let a = record::to_json(&coded_2flow().run());
    let b = record::to_json(&coded_2flow().run());
    assert_eq!(a, b, "pooled-buffer reuse changed a deterministic run");
}
