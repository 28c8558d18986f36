//! The command line.
//!
//! ```text
//! ledger run     [--seed S] [--quick]                    whole suite, one child process per workload
//! ledger run     --workload W --seed S --seconds T --trace 0|1   one workload (the benchmark contract)
//! ledger trace   [--seed S] [--quick] [--workload W]     per-layer numbers + span files
//! ledger aa      [--sets N] [--seed S] [--quick]         suite N times, spread vs bound
//! ledger compare A.json B.json                            parent vs change
//! ledger catalog                                          prints BENCHMARK.json
//! ```

use crate::catalog::{self, END_TO_END};
use crate::e2e::{self, Budget};
use crate::report::{self, WorkloadResult};
use crate::{probes, stats, trace, workloads};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// Parsed `--flag [value]` arguments plus positionals.
struct Args {
    flags: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut args = Args {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) => {
                    let value = it.next_if(|v| !v.starts_with("--")).cloned();
                    args.flags.push((name.to_string(), value));
                }
                None => args.positional.push(a.clone()),
            }
        }
        args
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// A numeric flag; a present but unparsable value is an error, not a
    /// silent default.
    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None if self.has(name) => Err(format!("--{name} needs a value")),
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }

    /// `--seconds T` (default: `BENCHMARK.json`'s `run_seconds`, what the
    /// driver passes; 0 under `--quick`), never fewer than
    /// [`e2e::MIN_PASSES`] passes (3 under `--quick`).
    fn budget(&self) -> Result<Budget, String> {
        let quick = self.has("quick");
        let default = if quick { 0 } else { catalog::RUN_SECONDS };
        Ok(Budget {
            seconds: self.number("seconds", default as f64)?,
            min_passes: if quick { 3 } else { e2e::MIN_PASSES },
        })
    }
}

/// Entry point.
pub fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        eprintln!("usage: ledger run|trace|aa|compare|catalog (see ledger/README.md)");
        return ExitCode::from(2);
    };
    let args = Args::parse(rest);
    let traced = command == "trace" || args.value("trace") == Some("1");
    let result = match command.as_str() {
        "run" | "trace" if traced => trace_command(&args),
        "run" if args.has("workload") => run_one(&args),
        "run" => suite(&args).map(|(_, ok)| ok),
        "aa" => aa(&args),
        "compare" => compare(&args),
        "catalog" => {
            print!("{}", catalog::benchmark_json());
            Ok(true)
        }
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

fn grid_for(args: &Args, name: &str) -> Result<(workloads::Grid, u64), String> {
    let seed = args.number("seed", 1u64)?;
    let grid = workloads::by_name(name, seed, args.has("quick"))
        .ok_or_else(|| format!("unknown workload {name:?} (have {:?})", workloads::NAMES))?;
    Ok((grid, seed))
}

/// `workload metric value unit`, the line format of every number printed.
fn print_metric(workload: &str, name: &str, value: f64, unit: &str) {
    println!("{workload} {name} {} {unit}", report::num(value));
}

/// One workload in this process (`--trace 0`): prints its metrics, writes
/// `out/e2e-<workload>.json`, ends with the contract's JSON line.
fn run_one(args: &Args) -> Result<bool, String> {
    let name = args.value("workload").ok_or("--workload needs a name")?;
    let (grid, seed) = grid_for(args, name)?;
    let out = e2e::out_dir();
    let m = e2e::measure(&grid, seed, args.budget()?, &out.join("tmp"));
    for (metric, value, unit) in m.metrics() {
        print_metric(m.workload, metric, value, unit);
    }
    // Not gated: what the clock read, and how disturbed the host was.
    let info = |samples: &[f64], pick: fn(&[f64]) -> Option<f64>| pick(samples).unwrap_or(f64::NAN);
    print_metric(
        m.workload,
        "raw_fastest_pass",
        info(&m.wall_raw, stats::min),
        "s",
    );
    print_metric(
        m.workload,
        "raw_median_pass",
        info(&m.wall_raw, stats::median),
        "s",
    );
    print_metric(
        m.workload,
        "host_index_median",
        info(&m.host_index, stats::median),
        "ratio",
    );
    print_metric(m.workload, "passes", m.wall_samples.len() as f64, "count");
    print_metric(m.workload, "runs", m.runs as f64, "count");
    print_metric(m.workload, "runs_failed", m.runs_failed as f64, "count");
    println!("{} sim_digest {:016x} fnv1a64", m.workload, m.digest_first);
    let values_ok = m
        .metrics()
        .iter()
        .all(|(_, v, _)| v.is_finite() && *v > 0.0);
    let correct = m.correct() && values_ok;
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let detail = out.join(format!("e2e-{}.json", m.workload));
    std::fs::write(&detail, report::detail_json(&m) + "\n")
        .map_err(|e| format!("{}: {e}", detail.display()))?;
    println!(
        "{}",
        report::contract_line(correct, m.runs, m.runs_failed, &m.metrics())
    );
    Ok(correct)
}

/// The whole suite: each workload in its own child process (so `VmHWM` is
/// per workload), one at a time; writes `out/results.json`. The flag says
/// whether every child reported its outputs correct.
fn suite(args: &Args) -> Result<(Vec<WorkloadResult>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = e2e::out_dir();
    let seed = args.number("seed", 1u64)?;
    let mut details = Vec::new();
    let mut ok = true;
    for name in workloads::NAMES {
        let detail = out.join(format!("e2e-{name}.json"));
        // A child that dies early must not be reported with an older run's file.
        let _ = std::fs::remove_file(&detail);
        let mut child = Command::new(&exe);
        child
            .args(["run", "--workload", name, "--seed", &seed.to_string()])
            .stdout(Stdio::piped());
        if args.has("quick") {
            child.arg("--quick");
        }
        let output = child.output().map_err(|e| format!("{name}: {e}"))?;
        ok &= output.status.success();
        let text = String::from_utf8_lossy(&output.stdout);
        // Everything but the machine-readable last line is for the reader.
        let lines: Vec<&str> = text.lines().collect();
        for line in &lines[..lines.len().saturating_sub(1)] {
            println!("{line}");
        }
        let json = std::fs::read_to_string(&detail).map_err(|e| {
            format!(
                "{name}: child exited with {} and left no {}: {e}",
                output.status,
                detail.display()
            )
        })?;
        details.push(json.trim().to_string());
    }
    let results = format!(
        "{{\"seed\": {seed}, \"quick\": {}, \"env\": {}, \"workloads\": [\n{}\n]}}\n",
        args.has("quick"),
        report::env_json(),
        details.join(",\n")
    );
    let path = out.join("results.json");
    std::fs::write(&path, &results).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# results written to {}", path.display());
    Ok((report::parse_results(&results)?, ok))
}

/// `ledger aa`: the suite `--sets` times back to back; per (workload,
/// metric) the relative spread `(max − min) / median` against its bound.
fn aa(args: &Args) -> Result<bool, String> {
    let sets: usize = args.number("sets", 2)?;
    if sets < 2 {
        return Err("--sets must be at least 2".into());
    }
    let mut runs: Vec<Vec<WorkloadResult>> = Vec::new();
    let mut ok = true;
    for set in 1..=sets {
        println!("# aa: set {set} of {sets}");
        let (results, correct) = suite(args)?;
        ok &= correct;
        runs.push(results);
    }
    let mut rows = Vec::new();
    println!("# aa: workload metric spread bound verdict values...");
    for (wi, w) in runs[0].iter().enumerate() {
        ok &= runs.iter().all(|r| r[wi].digest == w.digest);
        for m in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r[wi].metrics.iter().find(|(n, _, _)| n == m.name))
                .map(|(_, v, _)| *v)
                .collect();
            let spread = match (
                stats::min(&values),
                stats::max(&values),
                stats::median(&values),
            ) {
                (Some(lo), Some(hi), Some(med)) if values.len() == sets => (hi - lo) / med,
                _ => f64::NAN,
            };
            let within = spread <= m.bound;
            ok &= within;
            let shown: Vec<String> = values.iter().map(|&v| report::num(v)).collect();
            println!(
                "{} {} {:.4} {} {} {}",
                w.name,
                m.name,
                spread,
                m.bound,
                if within { "within" } else { "EXCESS" },
                shown.join(" ")
            );
            rows.push(format!(
                "    {{\"workload\": {}, \"metric\": {}, \"spread\": {}, \"bound\": {}, \
                 \"values\": [{}]}}",
                report::quote(&w.name),
                report::quote(m.name),
                report::num(spread),
                m.bound,
                shown.join(", ")
            ));
        }
    }
    let path = e2e::out_dir().join("aa.json");
    let noise = format!(
        "{{\"sets\": {sets}, \"spread\": \"(max - min) / median over the sets\", \
         \"env\": {}, \"rows\": [\n{}\n]}}\n",
        report::env_json(),
        rows.join(",\n")
    );
    std::fs::write(&path, noise).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "# aa: {} — written to {}",
        if ok { "all within bounds" } else { "EXCESS" },
        path.display()
    );
    Ok(ok)
}

/// The verdict on one (workload, metric) pair. `worse` is the change's
/// value relative to the parent's, positive when worse. Unresolved: a
/// side's own samples spread wider than the bound while the two sides'
/// sample ranges overlap — the data cannot tell the sides apart.
fn verdict(worse: f64, bound: f64, parent: &[f64], change: &[f64]) -> &'static str {
    let wide = [parent, change]
        .iter()
        .any(|s| stats::quartile_spread(s).is_some_and(|q| q > bound));
    let range = |s: &[f64]| Some((stats::min(s)?, stats::max(s)?));
    let overlap = match (range(parent), range(change)) {
        (Some((plo, phi)), Some((clo, chi))) => plo <= chi && clo <= phi,
        _ => false,
    };
    if !worse.is_finite() || (wide && overlap) {
        "unresolved"
    } else if worse > bound {
        "regressed"
    } else if worse < -bound {
        "improved"
    } else {
        "unchanged"
    }
}

/// `ledger compare A.json B.json`: parent vs change, one row per
/// (workload, metric); every ratio has the parent as its base.
fn compare(args: &Args) -> Result<bool, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("usage: ledger compare PARENT.json CHANGE.json".into());
    };
    let load = |p: &String| {
        let text = std::fs::read_to_string(Path::new(p)).map_err(|e| format!("{p}: {e}"))?;
        report::parse_results(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (parent, change) = (load(a)?, load(b)?);
    let mut regressed = false;
    println!("workload metric parent change delta_pct_of_parent bound_pct verdict");
    for p in &parent {
        let Some(c) = change.iter().find(|c| c.name == p.name) else {
            println!("{} - missing from {b}", p.name);
            regressed = true;
            continue;
        };
        for m in &END_TO_END {
            let find = |w: &WorkloadResult| w.metrics.iter().find(|(n, _, _)| n == m.name).cloned();
            let (Some((_, pv, ps)), Some((_, cv, cs))) = (find(p), find(c)) else {
                continue;
            };
            let delta = (cv - pv) / pv;
            let worse = if m.better == "lower" { delta } else { -delta };
            let verdict = verdict(worse, m.bound, &ps, &cs);
            regressed |= verdict == "regressed";
            println!(
                "{} {} {} {} {:+.2} {:.0} {verdict}",
                p.name,
                m.name,
                report::num(pv),
                report::num(cv),
                delta * 100.0,
                m.bound * 100.0
            );
        }
        println!(
            "{} sim_digest {} {} {}",
            p.name,
            p.digest,
            c.digest,
            if p.digest == c.digest {
                "equal"
            } else {
                "DIFFERENT"
            }
        );
        println!(
            "{} runs_failed/runs {}/{} {}/{}",
            p.name, p.runs_failed, p.runs, c.runs_failed, c.runs
        );
        regressed |= c.runs_failed > p.runs_failed;
    }
    Ok(!regressed)
}

/// `ledger trace` and `run --workload W --trace 1`: the staged passes of
/// each requested workload, then the probes once; writes `out/layers.json`
/// (probe values do not depend on the workload and are stored once).
fn trace_command(args: &Args) -> Result<bool, String> {
    let out = e2e::out_dir();
    std::fs::create_dir_all(out.join("tmp")).map_err(|e| format!("{}: {e}", out.display()))?;
    let contract = args.has("trace");
    let names: Vec<&str> = match args.value("workload") {
        Some(w) => vec![w],
        None if contract => return Err("--trace 1 needs --workload".into()),
        None => workloads::NAMES.to_vec(),
    };
    let object = |values: &probes::Out| {
        let fields: Vec<String> = values
            .iter()
            .map(|(n, v)| format!("{}: {}", report::quote(n), report::num(*v)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    };
    let mut staged = Vec::new();
    let mut objects = Vec::new();
    for name in names {
        let (grid, _) = grid_for(args, name)?;
        let traced = trace::workload(&grid, &out)?;
        for &(metric, value) in &traced.values {
            print_metric(grid.name, metric, value, catalog::unit_of(metric));
        }
        print_metric(grid.name, "runs", traced.runs as f64, "count");
        print_metric(grid.name, "runs_failed", traced.failed as f64, "count");
        println!("{} sim_digest {:016x} fnv1a64", grid.name, traced.digest);
        objects.push(format!(
            "{}: {}",
            report::quote(grid.name),
            object(&traced.values)
        ));
        staged.push(traced);
    }
    let probes = probes::run_all(&out.join("tmp"))?;
    for &(metric, value) in &probes {
        print_metric("probes", metric, value, catalog::unit_of(metric));
    }
    let path = out.join("layers.json");
    let layers = format!(
        "{{\"probes\": {},\n\"workloads\": {{\n{}\n}}}}\n",
        object(&probes),
        objects.join(",\n")
    );
    std::fs::write(&path, layers).map_err(|e| format!("{}: {e}", path.display()))?;
    let failed: u64 = staged.iter().map(|t| t.failed).sum();
    if let (true, [traced]) = (contract, staged.as_slice()) {
        // The contract's traced run reports the whole catalogue.
        let mut values = traced.values.clone();
        values.extend(probes);
        println!(
            "{}",
            report::contract_line(
                failed == 0,
                traced.runs,
                failed,
                &trace::in_catalogue_order(&values)?
            )
        );
    }
    Ok(failed == 0)
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts_follow_the_bound_and_the_samples() {
        let tight = [1.00, 1.01, 1.02, 1.01];
        let slower = [1.30, 1.31, 1.32, 1.31];
        let noisy = [1.0, 1.4, 0.9, 1.5];
        assert_eq!(verdict(0.02, 0.08, &tight, &tight), "unchanged");
        assert_eq!(verdict(0.30, 0.08, &tight, &slower), "regressed");
        assert_eq!(verdict(-0.30, 0.08, &slower, &tight), "improved");
        // Wide samples that overlap cannot carry any verdict...
        assert_eq!(verdict(0.30, 0.08, &noisy, &slower), "unresolved");
        assert_eq!(verdict(0.00, 0.08, &noisy, &noisy), "unresolved");
        // ...but wide samples that do not overlap can.
        assert_eq!(
            verdict(1.0, 0.08, &noisy, &[2.0, 2.9, 2.1, 3.0]),
            "regressed"
        );
        // No samples (peak_rss_mib): the values decide alone.
        assert_eq!(verdict(0.06, 0.05, &[], &[]), "regressed");
        assert_eq!(verdict(f64::NAN, 0.05, &[], &[]), "unresolved");
    }
}
