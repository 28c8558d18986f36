//! Channel-API equivalence: the default [`ChannelSpec::Static`] is the
//! golden run (see `tests/common/mod.rs`), said or unsaid; bursty
//! channels must instead be deterministic per seed and visibly different
//! from static air.

mod common;

use common::{coded_2flow, GOLDEN};
use more_repro::scenario::{record, ChannelSpec};

#[test]
fn static_channel_reproduces_the_pre_redesign_run_byte_for_byte() {
    let default_json = record::to_json(&coded_2flow().run());
    assert_eq!(
        default_json, GOLDEN,
        "the default channel diverged from the golden run"
    );
    // Saying `Static` explicitly is the same as saying nothing.
    let explicit = coded_2flow().channel(ChannelSpec::Static).run();
    assert_eq!(record::to_json(&explicit), default_json);
}

#[test]
fn bursty_channel_is_deterministic_per_seed_and_distinct_from_static() {
    let bursty = || {
        let spec = ChannelSpec::bursty_matched(0.0, 0.05, 0.2, 10);
        record::to_json(&coded_2flow().seeds([1]).channel(spec).run())
    };
    let a = bursty();
    assert_eq!(a, bursty(), "same seed + same channel must replay exactly");
    let static_air = record::to_json(&coded_2flow().seeds([1]).run());
    assert_ne!(a, static_air, "bursty air must change the run");
    // And the channel is surfaced in the output.
    assert!(a.contains("\"channel\": \"ge("), "channel key missing: {a}");
}
