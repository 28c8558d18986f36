//! Sweep-axis equivalence: one tiny grid per [`Sweep`] axis — K, flow
//! count, channel, offered load and queue discipline — each two points,
//! MORE and Srcr, on a 3-hop line at one seed, to the runs stored in
//! `tests/golden/sweep_axes_run.json`. The file pins what each axis
//! substitutes into a point's run and the `param` / `value` keys it writes
//! (a channel or queue point's value is its index), so a change to how a
//! sweep point is expanded moves it.
//!
//! This file is its one writer:
//! `UPDATE_GOLDEN=1 cargo test --test sweep_equivalence`.

use more_repro::scenario::{
    record, PoissonModel, RunRecord, Scenario, ScenarioBuilder, Sweep, TopologySpec,
    TrafficModelSpec, TrafficSpec,
};
use more_repro::sim::{ChannelSpec, QueueSpec};
use more_repro::topology::NodeId;

/// MORE and Srcr on a 3-hop line, 8 packets, seed 1, from node 0 to node 3.
fn line(name: &str) -> ScenarioBuilder {
    Scenario::named(name)
        .topology(TopologySpec::Line {
            hops: 3,
            p_adj: 0.9,
            skip_decay: 0.3,
            spacing: 25.0,
        })
        .pair(NodeId(0), NodeId(3))
        .protocols(["MORE", "Srcr"])
        .k(4)
        .packets(8)
        .deadline(60)
        .seeds([1])
}

/// Every axis's grid, in axis order.
fn sweep_axes() -> Vec<RunRecord> {
    let random_concurrent = TrafficSpec::RandomConcurrent {
        n_flows: 1,
        seed_offset: 0,
        distinct_sources: true,
    };
    let poisson = TrafficModelSpec::Poisson(PoissonModel {
        rate_per_s: 0.5,
        mean_hold_s: 20.0,
        max_active: 2,
    });
    let grids = [
        line("sweep_k").sweep(Sweep::K(vec![2, 8])),
        line("sweep_flows")
            .traffic(random_concurrent)
            .sweep(Sweep::Flows(vec![1, 2])),
        line("sweep_channel").sweep(Sweep::Channel(vec![
            ChannelSpec::Static,
            ChannelSpec::bursty_matched(0.0, 0.05, 0.2, 10),
        ])),
        line("sweep_load")
            .traffic_model(poisson)
            .sweep(Sweep::Load(vec![0.2, 1.0])),
        line("sweep_queue").sweep(Sweep::Queue(vec![
            QueueSpec::Unbounded,
            QueueSpec::drop_tail(2),
        ])),
    ];
    grids.into_iter().flat_map(ScenarioBuilder::run).collect()
}

#[test]
fn every_sweep_axis_reproduces_its_golden_run() {
    let records = sweep_axes();
    // 5 axes × 2 points × 2 protocols.
    assert_eq!(records.len(), 20);
    let json = record::to_json(&records);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/sweep_axes_run.json"
        );
        std::fs::write(path, &json).expect("write golden");
        return;
    }
    let golden = include_str!("golden/sweep_axes_run.json");
    assert_eq!(json, golden, "a sweep axis diverged from its golden run");
}
