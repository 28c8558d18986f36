//! The golden run the channel, queue and packet-path equivalence suites
//! share, stored once in `tests/golden/coded_2flow_run.json`.
//!
//! Two concurrent flows cross the 20-node testbed under coded MORE — real
//! payloads carried, recoded and verified end to end — and under the Srcr
//! and ExOR baselines, at seeds 1 and 3. That exercises CSMA/CA,
//! collisions, capture, per-receiver losses, RLNC encode/decode, the
//! zero-copy packet path and every agent's transmit path, so a single
//! changed RNG draw or reordered branch anywhere shifts every downstream
//! number. Each suite varies one axis from here (`.channel`, `.queue`,
//! `.seeds`) and checks that the default of its axis is this file.
//!
//! `packet_path_equivalence` is the file's one writer:
//! `UPDATE_GOLDEN=1 cargo test --test packet_path_equivalence`.

use more_repro::more::MoreConfig;
use more_repro::scenario::{MoreFactory, Scenario, ScenarioBuilder, TrafficSpec};
use more_repro::topology::NodeId;

pub const GOLDEN: &str = include_str!("../golden/coded_2flow_run.json");

pub fn coded_2flow() -> ScenarioBuilder {
    let coded = MoreFactory::named(
        "MORE-coded",
        MoreConfig {
            track_payloads: true,
            packet_bytes: 256,
            ..MoreConfig::default()
        },
    );
    Scenario::named("coded_2flow")
        .testbed(1)
        .traffic(TrafficSpec::Concurrent(vec![
            (NodeId(0), NodeId(19)),
            (NodeId(5), NodeId(12)),
        ]))
        .register(coded)
        .protocols(["Srcr", "ExOR"])
        .k(8)
        .packets(32)
        .deadline(180)
        .seeds([1, 3])
}
