//! The end-to-end measurement of one workload, in this process.
//!
//! Passes go through `ScenarioBuilder::run_with_sink` and see only what a
//! user of the scenario crate sees: the builder, the sinks and
//! `RunRecord` fields.
//!
//! **Statistic.** A reference kernel (`crate::hostspeed`) is timed between
//! any two timings; each sample pair gives the host speed index around the
//! timing it encloses. `wall_s` is the mean pass time over the mean index
//! of the whole run: a pass lasts a second and integrates the neighbour's
//! duty cycle, which the 10 ms index samples only match on average.
//! `setup_s` is the median of the set-up samples each divided by its own
//! index: they are as short as the index samples, and prone to outliers. A
//! neighbour on the shared hardware slows whole runs by half for minutes
//! at a time; the fastest raw pass of a run, the statistic first chosen,
//! read +45 % then (see README). Raw times and the index samples are kept
//! beside the metrics as information.

use crate::digest::{DigestSink, PassOutcome};
use crate::hostspeed::{self, Reference};
use crate::staged::{self, Depth};
use crate::stats;
use crate::workloads::{Grid, SinkKind};
use more_scenario::sink::{Aggregate, Collect, CsvAppend, JsonLines, Tee};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Fewest set-up-only samples per measurement (median reported).
pub const SETUP_SAMPLES: usize = 20;

/// Fewest timed passes of a measurement (3 under `--quick`, a smoke run).
pub const MIN_PASSES: usize = 10;

/// When to stop timing passes: after `seconds` of them, but never before
/// `min_passes`. The one policy of every command, so that a committed
/// baseline and the driver's runs are the same statistic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Budget {
    /// Seconds of timed passes.
    pub seconds: f64,
    /// Fewest timed passes.
    pub min_passes: usize,
}

/// One timed pass.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Host seconds.
    pub wall_s: f64,
    /// What it produced.
    pub outcome: PassOutcome,
}

/// Everything measured for one workload.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Workload name.
    pub workload: &'static str,
    /// Benchmark seed.
    pub seed: u64,
    /// Every timed pass, in order: host seconds ÷ host speed index.
    pub wall_samples: Vec<f64>,
    /// The same passes in raw host seconds.
    pub wall_raw: Vec<f64>,
    /// Every set-up-only sample, in order: host seconds ÷ host speed index.
    pub setup_samples: Vec<f64>,
    /// The same samples in raw host seconds.
    pub setup_raw: Vec<f64>,
    /// The host speed index each of those timings was divided by, in the
    /// order they were taken (1 = undisturbed host).
    pub host_index: Vec<f64>,
    /// Simulator runs attempted over all timed passes.
    pub runs: u64,
    /// Of those, failed (a failed pass fails all of its runs).
    pub runs_failed: u64,
    /// Σ `total_tx` of one pass.
    pub pass_tx: u64,
    /// Digest of the first timed pass.
    pub digest_first: u64,
    /// Digest of the last timed pass.
    pub digest_last: u64,
    /// `VmHWM` of this process at the end, MiB.
    pub peak_rss_mib: f64,
}

impl Measurement {
    /// Mean timed pass over the mean host speed index of the run.
    pub fn wall_s(&self) -> f64 {
        match (stats::mean(&self.wall_raw), stats::mean(&self.host_index)) {
            (Some(pass_s), Some(index)) => pass_s / index,
            _ => f64::NAN,
        }
    }

    /// Simulated transmissions per (normalized) host second.
    pub fn sim_tx_per_s(&self) -> f64 {
        self.pass_tx as f64 / self.wall_s()
    }

    /// Median set-up-only sample, normalized.
    pub fn setup_s(&self) -> f64 {
        stats::median(&self.setup_samples).unwrap_or(f64::NAN)
    }

    /// Outputs were checked and held.
    pub fn correct(&self) -> bool {
        self.runs > 0 && self.runs_failed == 0 && self.digest_first == self.digest_last
    }

    /// The gated metrics, in catalogue order: `(name, value, unit)`.
    pub fn metrics(&self) -> [(&'static str, f64, &'static str); 4] {
        [
            ("wall_s", self.wall_s(), "s"),
            ("sim_tx_per_s", self.sim_tx_per_s(), "tx/s"),
            ("peak_rss_mib", self.peak_rss_mib, "MiB"),
            ("setup_s", self.setup_s(), "s"),
        ]
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB; NaN where procfs
/// is unavailable (a NaN fails the correctness check loudly rather than
/// reporting a fake zero).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// One pass of `grid` through the scenario builder, panics contained.
/// File-sink workloads write under `scratch/<name>-pass`, removed after.
pub fn builder_pass(grid: &Grid, scratch: &Path) -> Result<Pass, String> {
    let dir = scratch.join(format!("{}-{}", grid.name, std::process::id()));
    let result = catch_unwind(AssertUnwindSafe(|| run_builder(grid, &dir)));
    if grid.sink == SinkKind::Files {
        // Best effort: a leftover directory only wastes disk.
        let _ = std::fs::remove_dir_all(&dir);
    }
    match result {
        Ok(r) => r,
        Err(panic) => Err(panic_text(panic.as_ref())),
    }
}

fn panic_text(panic: &(dyn std::any::Any + Send)) -> String {
    let msg = panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic payload");
    format!("panicked: {msg}")
}

fn run_builder(grid: &Grid, dir: &Path) -> Result<Pass, String> {
    let mut digest = DigestSink::new(grid.exp.packets, grid.require_complete);
    let io_err = |e: std::io::Error| format!("{}: {e}", dir.display());
    let t0 = Instant::now();
    let mut builder = grid.builder();
    let summary = match grid.sink {
        SinkKind::Counting => builder.try_run_with_sink(&mut digest),
        SinkKind::Aggregate => {
            builder.try_run_with_sink(&mut Tee::new().with(&mut digest).with(Aggregate::new()))
        }
        SinkKind::Collect => {
            builder.try_run_with_sink(&mut Tee::new().with(&mut digest).with(Collect::new()))
        }
        SinkKind::Files => {
            // A fresh directory per pass: an existing manifest would make
            // the engine resume (skip) instead of run.
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).map_err(io_err)?;
            let path = |ext: &str| format!("{}/records.{ext}", dir.display());
            let jsonl = JsonLines::create(&path("jsonl")).map_err(io_err)?;
            let csv = CsvAppend::create(&path("csv")).map_err(io_err)?;
            builder = builder.checkpoint(dir.display().to_string());
            builder.try_run_with_sink(&mut Tee::new().with(&mut digest).with(jsonl).with(csv))
        }
    };
    let wall_s = t0.elapsed().as_secs_f64();
    summary.map_err(|e| e.to_string())?;
    Ok(Pass {
        wall_s,
        outcome: digest.outcome,
    })
}

/// One set-up-only sample: every cell of the grid built up to — excluding —
/// `run_with_traffic`, and dropped.
pub fn setup_sample(grid: &Grid) -> Result<f64, String> {
    let t0 = Instant::now();
    catch_unwind(AssertUnwindSafe(|| {
        staged::pass(grid, Depth::SetupOnly, false)
    }))
    .map_err(|p| panic_text(p.as_ref()))?
    .map_err(|e| e.to_string())?;
    Ok(t0.elapsed().as_secs_f64())
}

/// The reference kernel and its latest sample: every timing is taken
/// between two samples and divided by the index they give.
struct HostClock {
    reference: Reference,
    latest_s: f64,
}

impl HostClock {
    fn start() -> HostClock {
        let mut reference = Reference::new();
        let latest_s = reference.sample();
        HostClock {
            reference,
            latest_s,
        }
    }

    /// The host speed index around a timing that began right after the
    /// latest reference sample and ended just now.
    fn index_since_latest(&mut self) -> f64 {
        let after_s = self.reference.sample();
        let index = hostspeed::index(self.latest_s, after_s);
        self.latest_s = after_s;
        index
    }
}

/// Takes `count` set-up samples into `m`; false if any errored or panicked.
fn sample_setup(grid: &Grid, m: &mut Measurement, clock: &mut HostClock, count: usize) -> bool {
    let mut ok = true;
    for _ in 0..count {
        match setup_sample(grid) {
            Ok(s) => {
                let index = clock.index_since_latest();
                m.setup_samples.push(s / index);
                m.setup_raw.push(s);
                m.host_index.push(index);
            }
            Err(e) => {
                eprintln!("ledger: {}: set-up sample {e}", grid.name);
                ok = false;
            }
        }
    }
    ok
}

/// Measures `grid`: one discarded warm-up pass, then the timed passes with
/// two set-up samples after each (topped up to [`SETUP_SAMPLES`]), a
/// reference sample between any two timings. A pass that errors or panics
/// fails every run of it and is reported on stderr; it never aborts the
/// measurement.
pub fn measure(grid: &Grid, seed: u64, budget: Budget, scratch: &Path) -> Measurement {
    let mut m = Measurement {
        workload: grid.name,
        seed,
        wall_samples: Vec::new(),
        wall_raw: Vec::new(),
        setup_samples: Vec::new(),
        setup_raw: Vec::new(),
        host_index: Vec::new(),
        runs: 0,
        runs_failed: 0,
        pass_tx: 0,
        digest_first: 0,
        digest_last: 0,
        peak_rss_mib: f64::NAN,
    };
    // Warm-up: thread-local buffer pools, lazy tables, page cache.
    if let Err(e) = builder_pass(grid, scratch) {
        eprintln!("ledger: {}: warm-up pass {e}", grid.name);
    }
    let mut setup_ok = true;
    let mut clock = HostClock::start();
    let t0 = Instant::now();
    let mut passes = 0;
    while passes < budget.min_passes || t0.elapsed().as_secs_f64() < budget.seconds {
        passes += 1;
        m.runs += grid.runs;
        match builder_pass(grid, scratch) {
            // A wrong run count means the grid is not the declared one.
            Ok(pass) if pass.outcome.runs != grid.runs => m.runs_failed += grid.runs,
            Ok(pass) => {
                m.runs_failed += pass.outcome.failed;
                if m.wall_samples.is_empty() {
                    m.digest_first = pass.outcome.digest;
                    m.pass_tx = pass.outcome.total_tx;
                }
                m.digest_last = pass.outcome.digest;
                let index = clock.index_since_latest();
                m.wall_samples.push(pass.wall_s / index);
                m.wall_raw.push(pass.wall_s);
                m.host_index.push(index);
            }
            Err(e) => {
                eprintln!("ledger: {}: timed pass {e}", grid.name);
                m.runs_failed += grid.runs;
            }
        }
        // Set-up samples ride between the passes, so that they see the
        // same stretch of host weather as the passes do.
        setup_ok &= sample_setup(grid, &mut m, &mut clock, 2);
    }
    let missing = SETUP_SAMPLES.saturating_sub(m.setup_samples.len());
    setup_ok &= sample_setup(grid, &mut m, &mut clock, missing);
    if m.digest_first != m.digest_last || !setup_ok {
        // Same inputs, different outputs — or a grid that cannot even be
        // set up: nothing measured can be trusted.
        m.runs_failed = m.runs;
    }
    m.peak_rss_mib = peak_rss_mib();
    m
}

/// Directory for pass scratch files and results: `$LEDGER_OUT`, else
/// `out/` beside this package's `Cargo.toml` (wherever the command runs).
pub fn out_dir() -> PathBuf {
    std::env::var_os("LEDGER_OUT").map_or_else(
        || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        PathBuf::from,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{base, exp};
    use mesh_sim::ErasedFlowAgent;
    use mesh_topology::{NodeId, Topology};
    use more_scenario::{
        BuildError, ExpConfig, FlowSpec, ProtocolFactory, TopologySpec, TrafficModelSpec,
        TrafficSpec,
    };

    /// Two protocols over a 2-hop line: milliseconds per pass.
    fn tiny(seed: u64) -> Grid {
        Grid {
            runs: 2,
            topology: TopologySpec::Line {
                hops: 2,
                p_adj: 0.8,
                skip_decay: 0.3,
                spacing: 25.0,
            },
            traffic: TrafficModelSpec::Static(TrafficSpec::SinglePair {
                src: NodeId(0),
                dst: NodeId(2),
            }),
            protocols: vec!["MORE", "Srcr"],
            seeds: vec![seed],
            exp: exp(8, 16, 60),
            ..base("tiny", "unit test")
        }
    }

    fn digest(grid: &Grid) -> u64 {
        let pass = builder_pass(grid, Path::new("unused")).expect("tiny grid runs");
        assert_eq!((pass.outcome.runs, pass.outcome.failed), (2, 0));
        pass.outcome.digest
    }

    #[test]
    fn digest_repeats_for_a_seed_and_differs_across_seeds() {
        assert_eq!(digest(&tiny(1)), digest(&tiny(1)));
        assert_ne!(digest(&tiny(1)), digest(&tiny(2)));
    }

    #[test]
    fn staged_replica_reproduces_the_builder_digest() {
        let grid = tiny(3);
        let staged = staged::pass(&grid, Depth::Full, true).expect("tiny grid stages");
        assert_eq!(staged.sink.outcome.digest, digest(&grid));
        assert_eq!(staged.obs.len(), 2);
        assert!(staged
            .obs
            .iter()
            .all(|o| o.stats.events > 0 && o.run_ns > 0));
    }

    struct Boom;

    impl ProtocolFactory for Boom {
        fn name(&self) -> &str {
            "Boom"
        }

        fn build(
            &self,
            _: &Topology,
            _: &[FlowSpec],
            _: &ExpConfig,
        ) -> Result<Box<dyn ErasedFlowAgent>, BuildError> {
            panic!("deliberate test panic");
        }
    }

    #[test]
    fn a_panicking_factory_becomes_failed_runs_not_an_abort() {
        let mut grid = tiny(1);
        grid.registry.register(Boom);
        grid.protocols = vec!["Boom"];
        grid.runs = 1;
        let budget = Budget {
            seconds: 0.0,
            min_passes: 3,
        };
        let m = measure(&grid, 1, budget, Path::new("unused"));
        assert_eq!(
            (m.runs, m.runs_failed),
            (3, 3),
            "three timed passes, all failed"
        );
        assert!(!m.correct());
        assert!(m.wall_samples.is_empty() && m.setup_samples.is_empty());
    }
}
