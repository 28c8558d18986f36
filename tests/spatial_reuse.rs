//! The headline behavioural difference: MORE exploits spatial reuse; ExOR's
//! scheduler forbids it (thesis §4.2.3, Fig 4-4).

use more_repro::baselines::{ExorAgent, ExorConfig};
use more_repro::more::{MoreAgent, MoreConfig};
use more_repro::sim::{SimConfig, Simulator, SEC};
use more_repro::topology::{generate, NodeId};

/// 4-hop line, 30 m spacing: hops 1 and 4 are out of carrier-sense range
/// of each other, so a MAC-independent protocol can run them in parallel.
fn line4() -> more_repro::topology::Topology {
    generate::line(4, 0.85, 0.12, 30.0)
}

fn more_overlap(seed: u64) -> (f64, f64) {
    let topo = line4();
    let mut agent = MoreAgent::new(topo.clone(), MoreConfig::default());
    let fi = agent.add_flow(NodeId(0), &[NodeId(4)], 192);
    let mut sim = Simulator::new(topo, SimConfig::default(), agent, seed);
    sim.kick(NodeId(0));
    sim.run_until(600 * SEC, |a: &MoreAgent| a.all_done());
    assert!(sim.agent.progress(fi).done, "MORE line flow stuck");
    let overlap = sim.stats.concurrent_airtime as f64 / sim.stats.total_airtime() as f64;
    let secs = sim.agent.progress(fi).completed_at.expect("done") as f64 / SEC as f64;
    (overlap, 192.0 / secs)
}

fn exor_overlap(seed: u64) -> (f64, f64) {
    let topo = line4();
    let mut agent = ExorAgent::new(topo.clone(), ExorConfig::default());
    let fi = agent.add_flow(NodeId(0), NodeId(4), 192);
    let mut sim = Simulator::new(topo, SimConfig::default(), agent, seed);
    sim.kick(NodeId(0));
    sim.run_until(900 * SEC, |a: &ExorAgent| a.all_done());
    assert!(sim.agent.progress(fi).done, "ExOR line flow stuck");
    let overlap = sim.stats.concurrent_airtime as f64 / sim.stats.total_airtime() as f64;
    let secs = sim.agent.progress(fi).completed_at.expect("done") as f64 / SEC as f64;
    (overlap, 192.0 / secs)
}

#[test]
fn more_overlaps_airtime_exor_serializes() {
    let mut more_ov = Vec::new();
    let mut exor_ov = Vec::new();
    for seed in 1..=5u64 {
        more_ov.push(more_overlap(seed).0);
        exor_ov.push(exor_overlap(seed).0);
    }
    let more_med = median(&mut more_ov);
    let exor_med = median(&mut exor_ov);
    assert!(
        more_med > 0.05,
        "MORE should overlap on a 4-hop line: {more_med:.3}"
    );
    assert!(
        exor_med < more_med / 2.0,
        "ExOR must serialize: ExOR {exor_med:.3} vs MORE {more_med:.3}"
    );
}

#[test]
fn more_beats_exor_on_spatial_reuse_paths() {
    let mut more_t = Vec::new();
    let mut exor_t = Vec::new();
    for seed in 1..=5u64 {
        more_t.push(more_overlap(seed).1);
        exor_t.push(exor_overlap(seed).1);
    }
    let m = median(&mut more_t);
    let e = median(&mut exor_t);
    // The paper reports ≈1.5x on its testbed's reuse paths; on this
    // synthetic line the measured median gain is ≈1.2x. Assert the
    // direction with margin rather than the exact factor.
    assert!(
        m > 1.08 * e,
        "MORE should clearly win with spatial reuse: MORE {m:.1} vs ExOR {e:.1} pkt/s"
    );
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    v[v.len() / 2]
}
