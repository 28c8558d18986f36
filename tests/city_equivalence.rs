//! Crowded-air equivalence: Srcr on a 2 000-node city mesh under Poisson
//! flow arrivals, to the run stored in `tests/golden/city_srcr_run.json`.
//!
//! Every other run golden is a 20-node testbed, where about one frame is
//! on the air at a time and receptions almost never have an overlapping
//! frame to judge against. Here dozens of flows share the mesh, so the
//! medium judges most frames against others on the air — half-duplex,
//! interference, capture — and the engine's MAC ACK waits and retries run
//! by the thousand. A change to how overlaps are found, or to when an
//! ACK timeout is scheduled, that shifts one verdict or one event moves
//! every byte after it.
//!
//! Regenerate (only when an *intentional* engine or schema change lands)
//! with: `UPDATE_GOLDEN=1 cargo test --test city_equivalence`.

use more_repro::scenario::{record, PoissonModel, Scenario, TopologySpec, TrafficModelSpec};

#[test]
fn srcr_on_a_crowded_city_mesh_reproduces_its_golden_run() {
    let records = Scenario::named("city_equivalence/srcr")
        .topology(TopologySpec::City { n: 2000, seed: 1 })
        .traffic_model(TrafficModelSpec::Poisson(PoissonModel {
            rate_per_s: 150.0,
            mean_hold_s: 10.0,
            max_active: 200,
        }))
        .protocol("Srcr")
        .seeds([1, 2])
        .k(8)
        .packets(8)
        .deadline(2)
        .run();
    let json = record::to_json(&records);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/city_srcr_run.json"
        );
        std::fs::write(path, &json).expect("write golden");
        return;
    }
    let golden = include_str!("golden/city_srcr_run.json");
    assert_eq!(json, golden, "the city run diverged from the golden run");
}
