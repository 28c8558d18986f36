//! Result files: writing a workload's measurement as JSON, reading it
//! back for `compare` / `aa`, and the environment fingerprint.

use crate::e2e::Measurement;
use crate::stats;
use mesh_topology::json::{self, Value};

/// A finite number as JSON, `null` otherwise (`{}` prints every digit a
/// round trip needs).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    format!("\"{}\"", json::escape(s))
}

fn array(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|&x| num(x)).collect();
    format!("[{}]", items.join(", "))
}

/// `{"value", "unit"}` plus, when there are samples, their median,
/// quartiles and the samples themselves (information, not gated).
fn metric_json(value: f64, unit: &str, samples: &[f64]) -> String {
    let mut s = format!("{{\"value\": {}, \"unit\": {}", num(value), quote(unit));
    if let (Some(med), Some([q1, _, q3])) = (stats::median(samples), stats::quartiles(samples)) {
        s.push_str(&format!(
            ", \"median\": {}, \"q1\": {}, \"q3\": {}, \"samples\": {}",
            num(med),
            num(q1),
            num(q3),
            array(samples)
        ));
    }
    s.push('}');
    s
}

/// Samples that are information only: their fastest, median and all of them.
fn info_json(samples: &[f64]) -> String {
    format!(
        "{{\"fastest\": {}, \"median\": {}, \"samples\": {}}}",
        num(stats::min(samples).unwrap_or(f64::NAN)),
        num(stats::median(samples).unwrap_or(f64::NAN)),
        array(samples)
    )
}

/// The full record of one workload's measurement (one JSON object). The
/// gated metrics are host-speed-normalized; `raw` holds the host seconds
/// they were computed from and the index they were divided by.
pub fn detail_json(m: &Measurement) -> String {
    let tx_samples: Vec<f64> = m
        .wall_samples
        .iter()
        .map(|w| m.pass_tx as f64 / w)
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"correct\": {}, \"passes\": {}, \"runs\": {}, \
         \"runs_failed\": {}, \"pass_tx\": {}, \"sim_digest\": \"{:016x}\", \
         \"sim_digest_last_pass\": \"{:016x}\", \"metrics\": {{\"wall_s\": {}, \
         \"sim_tx_per_s\": {}, \"peak_rss_mib\": {}, \"setup_s\": {}}}, \
         \"raw\": {{\"wall_s\": {}, \"setup_s\": {}, \"host_index\": {}}}}}",
        quote(m.workload),
        m.seed,
        m.correct(),
        m.wall_samples.len(),
        m.runs,
        m.runs_failed,
        m.pass_tx,
        m.digest_first,
        m.digest_last,
        metric_json(m.wall_s(), "s", &m.wall_samples),
        metric_json(m.sim_tx_per_s(), "tx/s", &tx_samples),
        metric_json(m.peak_rss_mib, "MiB", &[]),
        metric_json(m.setup_s(), "s", &m.setup_samples),
        info_json(&m.wall_raw),
        info_json(&m.setup_raw),
        info_json(&m.host_index),
    )
}

/// The last stdout line the benchmark contract asks for.
pub fn contract_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(*value),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        items.join(", ")
    )
}

/// Where and on what the numbers were taken.
pub fn env_json() -> String {
    let shell = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\": {}, \"cpu\": {}, \"gf256_kernel\": {}, \"rustc\": {}, \"commit\": {}}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        quote(&cpu),
        quote(gf256::wide::backend()),
        quote(&shell("rustc", &["--version"])),
        quote(&shell("git", &["rev-parse", "HEAD"])),
    )
}

/// One workload of a results file, as `compare` and `aa` need it.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Runs attempted.
    pub runs: u64,
    /// Runs failed.
    pub runs_failed: u64,
    /// Digest of the first timed pass, hex.
    pub digest: String,
    /// `(metric, value, samples)`; samples empty when none were stored.
    pub metrics: Vec<(String, f64, Vec<f64>)>,
}

/// Parses one [`detail_json`] object.
fn parse_workload(v: &Value) -> Result<WorkloadResult, String> {
    let field = |k: &str| v.get(k).ok_or_else(|| format!("missing key {k:?}"));
    let count = |k: &str| Ok::<u64, String>(field(k)?.as_f64().ok_or(k)? as u64);
    let Value::Obj(metrics) = field("metrics")? else {
        return Err("\"metrics\" is not an object".into());
    };
    Ok(WorkloadResult {
        name: field("workload")?.as_str().ok_or("workload")?.to_string(),
        runs: count("runs")?,
        runs_failed: count("runs_failed")?,
        digest: field("sim_digest")?
            .as_str()
            .ok_or("sim_digest")?
            .to_string(),
        metrics: metrics
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                let samples = m
                    .get("samples")
                    .and_then(Value::as_arr)
                    .map(|a| a.iter().filter_map(Value::as_f64).collect())
                    .unwrap_or_default();
                (name.clone(), value, samples)
            })
            .collect(),
    })
}

/// Parses a `results.json` into its workloads.
pub fn parse_results(text: &str) -> Result<Vec<WorkloadResult>, String> {
    let v = json::parse(text).map_err(|e| format!("{e:?}"))?;
    v.get("workloads")
        .and_then(Value::as_arr)
        .ok_or("no \"workloads\" array")?
        .iter()
        .map(parse_workload)
        .collect()
}
