//! Traffic-API equivalence: every static [`TrafficSpec`] variant — single
//! pair, pair list, random pairs, concurrent, seed-dependent random
//! concurrent, multicast — expands through the `TrafficModel`/`StaticModel`
//! trait path into flows installed and kicked at t = 0, to the run stored
//! in `tests/golden/traffic_static_run.json`; a single shifted RNG draw or
//! reordered kick would move every downstream byte. Its MORE runs carry
//! no payloads, and are byte for byte the runs with payloads
//! (`tests/payload_oracle.rs`). Dynamic models must
//! instead be deterministic per seed and visibly different from the
//! static runs.
//!
//! Regenerate (only when an *intentional* engine or schema change lands)
//! with: `UPDATE_GOLDEN=1 cargo test --test traffic_equivalence`.

use more_repro::scenario::{record, PoissonModel, Scenario, TrafficModelSpec, TrafficSpec};
use more_repro::topology::NodeId;

/// Every static variant, with the protocols the golden file runs it on.
fn legacy_variants() -> Vec<(&'static str, TrafficSpec, Vec<&'static str>)> {
    vec![
        (
            "single_pair",
            TrafficSpec::SinglePair {
                src: NodeId(0),
                dst: NodeId(19),
            },
            vec!["MORE", "Srcr"],
        ),
        (
            "each_pair",
            TrafficSpec::EachPair(vec![(NodeId(0), NodeId(19)), (NodeId(5), NodeId(12))]),
            vec!["MORE"],
        ),
        (
            "random_pairs",
            TrafficSpec::RandomPairs { count: 2, seed: 7 },
            vec!["Srcr"],
        ),
        (
            "concurrent",
            TrafficSpec::Concurrent(vec![(NodeId(0), NodeId(19)), (NodeId(5), NodeId(12))]),
            vec!["MORE", "ExOR"],
        ),
        (
            "random_concurrent",
            TrafficSpec::RandomConcurrent {
                n_flows: 3,
                seed_offset: 1000,
                distinct_sources: true,
            },
            vec!["MORE"],
        ),
        (
            "multicast",
            TrafficSpec::Multicast {
                src: NodeId(0),
                dsts: vec![NodeId(5), NodeId(9)],
            },
            vec!["MORE"],
        ),
    ]
}

/// Runs every legacy variant; `via_model` says the spec explicitly
/// through `.traffic_model(TrafficModelSpec::Static(..))` instead of the
/// `.traffic(..)` shorthand — both must be the same path.
fn run_all_variants(via_model: bool) -> String {
    let mut records = Vec::new();
    for (name, traffic, protocols) in legacy_variants() {
        let mut builder = Scenario::named(format!("traffic_equivalence/{name}"))
            .testbed(1)
            .protocols(protocols)
            .seeds([1, 2])
            .k(8)
            .packets(16)
            .deadline(120);
        builder = if via_model {
            builder.traffic_model(TrafficModelSpec::Static(traffic))
        } else {
            builder.traffic(traffic)
        };
        records.extend(builder.run());
    }
    record::to_json(&records)
}

#[test]
fn every_legacy_variant_reproduces_the_pre_redesign_run_byte_for_byte() {
    let json = run_all_variants(false);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/traffic_static_run.json"
        );
        std::fs::write(path, &json).expect("write golden");
        return;
    }
    let golden = include_str!("golden/traffic_static_run.json");
    assert_eq!(
        json, golden,
        "the static trait path diverged from the golden run"
    );
    // Saying `TrafficModelSpec::Static` explicitly is the same path.
    assert_eq!(run_all_variants(true), json);
}

#[test]
fn dynamic_model_is_deterministic_per_seed_and_distinct_from_static() {
    let run = |seed: u64| {
        record::to_json(
            &Scenario::named("traffic_equivalence/poisson")
                .testbed(1)
                .traffic_model(TrafficModelSpec::Poisson(PoissonModel {
                    rate_per_s: 0.2,
                    mean_hold_s: 15.0,
                    max_active: 3,
                }))
                .protocol("MORE")
                .seeds([seed])
                .k(8)
                .packets(16)
                .deadline(120)
                .run(),
        )
    };
    let a = run(1);
    let b = run(1);
    assert_eq!(a, b, "same seed + same model must replay exactly");
    assert_ne!(a, run(2), "different seeds must see different arrivals");
    // Dynamic runs give every flow's arrival a value…
    assert!(a.contains("\"started_at_s\": "), "lifecycle keys missing");
    assert!(
        !a.contains("\"started_at_s\": null"),
        "arrival missing: {a}"
    );
    // …which static runs carry as null (one schema, no arrivals).
    let static_json = run_all_variants(false);
    assert_eq!(
        static_json.matches("\"started_at_s\": null").count(),
        static_json.matches("\"src\": ").count()
    );
}
