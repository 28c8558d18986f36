//! The traced run: where a workload's wall time goes, layer by layer.
//!
//! One workload's grid is run through the scenario builder, through the
//! untraced staged replica and through the traced staged replica, in
//! alternation; the fastest of each is kept. The three must produce the
//! same digest. Per-layer numbers come from the fastest traced pass, its
//! spans go to `out/trace-<workload>.jsonl`, and the isolated probes
//! (`crate::probes`) fill in what a span around a whole call cannot see.

use crate::catalog::PER_LAYER;
use crate::e2e;
use crate::probes::Out as Values;
use crate::staged::{self, Depth, RunObs, Staged};
use crate::workloads::Grid;
use std::path::Path;
use std::time::Instant;

/// Builder / untraced / traced rounds per traced workload (fastest kept).
const ROUNDS: usize = 5;

/// A staged pass and how long it took.
fn staged_pass(grid: &Grid, traced: bool) -> Result<(f64, Staged), String> {
    let t0 = Instant::now();
    let staged = staged::pass(grid, Depth::Full, traced)
        .map_err(|e| format!("{}: staged pass: {e}", grid.name))?;
    Ok((t0.elapsed().as_secs_f64(), staged))
}

/// What the traced run of one workload established.
pub struct Traced {
    /// Per-layer values from the staged pass.
    pub values: Values,
    /// Runs checked (builder and staged passes together).
    pub runs: u64,
    /// Runs that broke a validity check.
    pub failed: u64,
    /// The digest all three paths agreed on.
    pub digest: u64,
}

/// Runs `grid` builder / staged / traced in alternation, checks the three
/// agree, writes the span file, and derives the staged per-layer values.
pub fn workload(grid: &Grid, out: &Path) -> Result<Traced, String> {
    let scratch = out.join("tmp");
    let warm = e2e::builder_pass(grid, &scratch).map_err(|e| format!("{}: {e}", grid.name))?;
    let (mut builder_s, mut plain_s) = (f64::INFINITY, f64::INFINITY);
    let mut best: Option<(f64, Staged)> = None;
    let (mut runs, mut failed) = (0, 0);
    for _ in 0..ROUNDS {
        let built = e2e::builder_pass(grid, &scratch).map_err(|e| format!("{}: {e}", grid.name))?;
        let (plain_wall, plain) = staged_pass(grid, false)?;
        let (traced_wall, traced) = staged_pass(grid, true)?;
        let (plain, traced_outcome) = (plain.sink.outcome, traced.sink.outcome.clone());
        // Replica fidelity: a staged pass that simulates anything else
        // would attribute time to a different program.
        for (path, outcome) in [("untraced", &plain), ("traced", &traced_outcome)] {
            if *outcome != built.outcome {
                return Err(format!(
                    "{}: the {path} staged replica diverged from the builder path \
                     (digest {:016x} vs {:016x}, runs {} vs {}); per-layer numbers withheld",
                    grid.name,
                    outcome.digest,
                    built.outcome.digest,
                    outcome.runs,
                    built.outcome.runs,
                ));
            }
        }
        if built.outcome.digest != warm.outcome.digest {
            return Err(format!("{}: two builder passes disagree", grid.name));
        }
        // All three outcomes are equal by now.
        runs += 3 * built.outcome.runs;
        failed += 3 * built.outcome.failed;
        builder_s = builder_s.min(built.wall_s);
        plain_s = plain_s.min(plain_wall);
        if best.as_ref().is_none_or(|(wall, _)| traced_wall < *wall) {
            best = Some((traced_wall, traced));
        }
    }
    let (traced_s, best) = best.expect("ROUNDS > 0");
    let spans = out.join(format!("trace-{}.jsonl", grid.name));
    best.tracer
        .write_jsonl(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    Ok(Traced {
        values: staged_values(grid, &best, builder_s, plain_s, traced_s),
        runs,
        failed,
        digest: warm.outcome.digest,
    })
}

/// Per-layer values of the fastest traced pass; the three wall times are
/// the fastest builder, untraced-staged and traced-staged passes.
fn staged_values(
    grid: &Grid,
    pass: &Staged,
    builder_s: f64,
    plain_s: f64,
    traced_s: f64,
) -> Values {
    let t = &pass.tracer;
    let sum = |f: &dyn Fn(&RunObs) -> u64| pass.obs.iter().map(f).sum::<u64>() as f64;
    let runs = pass.obs.len() as f64;
    let cells = t
        .spans()
        .iter()
        .filter(|s| s.name == "scenario.cell")
        .count() as f64;
    let span_ns = |name: &str| t.total_ns(name) as f64;
    let events = sum(&|o| o.stats.events);
    let tx = sum(&|o| o.stats.total_tx());
    let run_ns = sum(&|o| o.run_ns);
    // 0 when the grid has no run of that protocol family.
    let family = |prefix: &str| {
        let of = |f: &dyn Fn(&RunObs) -> u64| {
            pass.obs
                .iter()
                .filter(|o| {
                    grid.protocols[o.proto]
                        .to_ascii_lowercase()
                        .starts_with(prefix)
                })
                .map(f)
                .sum::<u64>() as f64
        };
        let events = of(&|o| o.stats.events);
        if events == 0.0 {
            0.0
        } else {
            of(&|o| o.run_ns) / events
        }
    };
    let per_ktx = |count: f64| count / tx * 1e3;
    vec![
        ("mesh_sim.ns_per_event", run_ns / events),
        ("mesh_sim.ns_per_event.srcr", family("srcr")),
        ("mesh_sim.ns_per_event.exor", family("exor")),
        ("mesh_sim.ns_per_event.more", family("more")),
        ("mesh_sim.run_share", run_ns / (traced_s * 1e9)),
        ("mesh_sim.events", events),
        ("mesh_sim.tx", tx),
        ("mesh_sim.events_per_tx", events / tx),
        ("mesh_sim.rx_per_tx", sum(&|o| o.stats.total_rx()) / tx),
        (
            "mesh_sim.collisions_per_ktx",
            per_ktx(sum(&|o| o.stats.collisions)),
        ),
        (
            "mesh_sim.retries_per_ktx",
            per_ktx(sum(&|o| o.stats.retries)),
        ),
        (
            "mesh_sim.queue_drops_per_ktx",
            per_ktx(sum(&|o| o.stats.total_queue_drops())),
        ),
        (
            "mesh_sim.queue_depth_hw_max",
            pass.obs
                .iter()
                .flat_map(|o| o.stats.queue_depth_hw.iter().copied())
                .max()
                .unwrap_or(0) as f64,
        ),
        ("mesh_sim.new_ms", span_ns("mesh_sim.new") / runs / 1e6),
        ("agent.build_us", span_ns("agent.build") / runs / 1e3),
        (
            "scenario.cell_setup_us",
            (span_ns("scenario.cell") - span_ns("mesh_sim.run") - span_ns("scenario.record"))
                / cells
                / 1e3,
        ),
        (
            "scenario.schedule_us",
            span_ns("scenario.schedule") / cells / 1e3,
        ),
        (
            "mesh_topology.instantiate_ms",
            span_ns("mesh_topology.instantiate") / cells / 1e6,
        ),
        ("scenario.pipeline_share", 1.0 - plain_s / builder_s),
        ("trace.overhead_pct", (traced_s / plain_s - 1.0) * 100.0),
    ]
}

/// Staged + probe values in catalogue order with their units; an error if
/// the catalogue names a metric nothing measured.
pub fn in_catalogue_order(
    values: &Values,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    PER_LAYER
        .iter()
        .map(|m| {
            values
                .iter()
                .find(|(n, _)| *n == m.name)
                .map(|(_, v)| (m.name, *v, m.unit))
                .ok_or_else(|| format!("{} is in the catalogue but was not measured", m.name))
        })
        .collect()
}
