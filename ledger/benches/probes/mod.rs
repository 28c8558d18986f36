//! Isolated probes of each layer's public entry points, one file per
//! crate, so an API-changing PR breaks exactly one file here.
//!
//! Inputs are fixed and synthetic — the same for every workload and every
//! `--seed` — so a probe number moves only when the layer's code does.
//! Each probe reports the fastest of [`BATCHES`] batches (the same
//! reasoning as the end-to-end minimum: interference only ever adds time).

mod agents;
mod gf256;
mod mesh_metrics;
mod mesh_sim;
mod mesh_topology;
mod rlnc;
mod scenario;

use crate::workloads::{self, Grid};
use ::mesh_topology::{generate, NodeId, Topology};
use more_scenario::FlowEvent;
use std::path::Path;
use std::time::Instant;

/// Batches per probe.
pub const BATCHES: usize = 5;
/// Fewest seconds per batch. The issue sized 0.2 s; the 35 probes then
/// take longer than a whole end-to-end run, and a traced run shares the
/// driver's time cap with those.
const BATCH_S: f64 = 0.05;

/// `(catalogue name, value)` pairs a probe file appends to.
pub type Out = Vec<(&'static str, f64)>;

/// Times closures: fastest of [`BATCHES`] batches of at least [`BATCH_S`].
pub struct Bench;

impl Bench {
    /// `timed(n)` runs `n` iterations and returns the seconds they took;
    /// the result is nanoseconds per iteration of the fastest batch.
    fn fastest(&self, mut timed: impl FnMut(u64) -> f64) -> f64 {
        // Calibration doubles as warm-up.
        let (mut n, mut t) = (1u64, timed(1));
        while t < BATCH_S / 4.0 && n < 1 << 32 {
            n *= 4;
            t = timed(n);
        }
        let iters = ((n as f64 * BATCH_S / t).ceil() as u64).max(1);
        let best = (0..BATCHES)
            .map(|_| timed(iters))
            .fold(f64::INFINITY, f64::min);
        best / iters as f64 * 1e9
    }

    /// Nanoseconds per call of `f`.
    pub fn ns(&self, mut f: impl FnMut()) -> f64 {
        self.fastest(|n| {
            let t0 = Instant::now();
            for _ in 0..n {
                f();
            }
            t0.elapsed().as_secs_f64()
        })
    }

    /// Nanoseconds per call of `run`, on a fresh untimed `setup()` each call.
    pub fn ns_with<S>(&self, mut setup: impl FnMut() -> S, mut run: impl FnMut(&mut S)) -> f64 {
        self.fastest(|n| {
            let mut total = 0.0;
            for _ in 0..n {
                let mut state = setup();
                let t0 = Instant::now();
                run(&mut state);
                total += t0.elapsed().as_secs_f64();
            }
            total
        })
    }
}

/// The shared synthetic inputs, built once.
pub struct Inputs {
    /// `generate::testbed(1)`.
    pub testbed: Topology,
    /// `generate::city_mesh(2000, 1)`.
    pub city2k: Topology,
    /// `generate::city_mesh(10000, 1)`.
    pub city10k: Topology,
    /// The city workload's flow endpoints (its Poisson schedule on `city10k`).
    pub city_flows: Vec<(NodeId, NodeId)>,
    /// The same arrival process on `city2k`.
    pub city2k_flows: Vec<(NodeId, NodeId)>,
    /// 40 testbed pairs (`random_pairs(.., 40, 7)`, the sweep's own).
    pub testbed_pairs: Vec<(NodeId, NodeId)>,
    /// The overload workload, for its channel and queue specs.
    pub overload: Grid,
}

/// Endpoints of the city workload's own arrival schedule, replayed on `topo`.
fn city_endpoints(city: &Grid, topo: &Topology) -> Vec<(NodeId, NodeId)> {
    city.traffic
        .build()
        .schedules(
            topo,
            1,
            city.exp.packets,
            city.exp.deadline_s * ::mesh_sim::SEC,
        )
        .into_iter()
        .flatten()
        .filter_map(|ev| match ev {
            FlowEvent::Start { flow, .. } => Some((flow.src, flow.dst())),
            FlowEvent::Stop { .. } => None,
        })
        .collect()
}

impl Inputs {
    fn build() -> Inputs {
        let testbed = generate::testbed(1);
        let city2k = generate::city_mesh(2_000, 1);
        let city10k = generate::city_mesh(10_000, 1);
        let workload = |name| workloads::by_name(name, 1, false).expect("a workload's name");
        let (city, overload) = (workload("city10k_srcr"), workload("overload_choke_bursty"));
        Inputs {
            city_flows: city_endpoints(&city, &city10k),
            city2k_flows: city_endpoints(&city, &city2k),
            overload,
            testbed_pairs: more_scenario::random_pairs(&testbed, 40, 7),
            testbed,
            city2k,
            city10k,
        }
    }
}

/// Runs every probe; `scratch` holds the sink probe's files.
pub fn run_all(scratch: &Path) -> Result<Out, String> {
    let bench = Bench;
    let inputs = Inputs::build();
    let mut out = Out::new();
    gf256::probe(&bench, &mut out);
    rlnc::probe(&bench, &mut out);
    mesh_topology::probe(&bench, &inputs, &mut out);
    mesh_metrics::probe(&bench, &inputs, &mut out);
    mesh_sim::probe(&bench, &inputs, &mut out);
    agents::probe(&bench, &inputs, &mut out)?;
    scenario::probe(&bench, scratch, &mut out)?;
    Ok(out)
}
