//! Streaming result sinks: where [`RunRecord`]s go as the grid runs.
//!
//! `Scenario::run` historically materialized every record in memory and
//! serialized after the whole grid finished — a million-run sweep was
//! memory-bound and all-or-nothing. A [`RunSink`] receives each record
//! **as its grid cell completes** (in deterministic grid order, restored
//! from the executor's completion-order drain by a bounded reorder
//! buffer), so results can stream to disk, fold into bounded-memory
//! summaries, or fan out to several destinations at once:
//!
//! * [`Collect`] — today's `Vec<RunRecord>`; the default behind
//!   [`crate::ScenarioBuilder::try_run`], byte-identical output.
//! * [`JsonLines`] — one [`RunRecord::to_json_line`] object per line,
//!   appended incrementally.
//! * [`CsvAppend`] — [`RunRecord::CSV_HEADER`] + one row per flow,
//!   appended incrementally; byte-identical to [`crate::record::to_csv`].
//! * [`Aggregate`] — per-cell streaming summaries (count, mean, min/max,
//!   P²-estimated quantiles) that never hold a raw record.
//! * [`Tee`] — forwards to any number of child sinks.
//!
//! File sinks participate in checkpoint/resume (see
//! [`crate::ScenarioBuilder::checkpoint`]) through [`RunSink::offsets`]
//! and [`RunSink::rewind_to`]: the manifest records a durable byte offset
//! per owned file after every completed cell, and a resumed sweep trims
//! any torn tail past the last checkpoint before appending.

#![expect(
    clippy::indexing_slicing,
    reason = "rows are built to the header arity in this same module before any column is indexed, and the P^2 quantile state uses exactly five markers by construction"
)]

use crate::record::{to_csv, to_json, RunRecord};
use std::collections::BTreeMap;
use std::io::{self, Seek, SeekFrom, Write};

/// A streaming consumer of [`RunRecord`]s.
///
/// The scenario engine calls [`RunSink::record`] once per run in
/// deterministic grid order — `(protocol, sweep point, seed, traffic
/// index)`, the exact order `Scenario::run` returns — then
/// [`RunSink::flush`] after each completed grid cell and
/// [`RunSink::finish`] once after the last record. Implementations
/// should hold as little as the format allows: the engine reports its
/// peak records-in-memory ([`crate::RunSummary::records_high_water`])
/// as `reorder-buffer + `[`RunSink::held`].
pub trait RunSink {
    /// Consumes one run record.
    fn record(&mut self, r: &RunRecord) -> io::Result<()>;

    /// Makes everything recorded so far durable (called after each
    /// completed grid cell).
    fn flush(&mut self) -> io::Result<()>;

    /// Called once after the final record of a successful run; writers
    /// emit trailers/summaries here.
    fn finish(&mut self) -> io::Result<()> {
        self.flush()
    }

    /// Records currently buffered in memory (the engine's peak-RSS
    /// proxy). `0` for sinks that stream everything out.
    fn held(&self) -> usize {
        0
    }

    /// Flushes and reports `(path, durable byte offset)` for every file
    /// this sink owns — the checkpoint manifest stores these after each
    /// grid cell. In-memory sinks own no files.
    fn offsets(&mut self) -> io::Result<Vec<(String, u64)>> {
        Ok(Vec::new())
    }

    /// Rewinds every owned file to its checkpointed offset (missing
    /// entry = 0) before a resumed sweep appends. Trims torn tails left
    /// by a mid-write kill.
    fn rewind_to(&mut self, offsets: &BTreeMap<String, u64>) -> io::Result<()> {
        let _ = offsets;
        Ok(())
    }
}

/// Forwarding impl so borrowed sinks compose (e.g. a [`Tee`] over
/// `&mut Collect` the caller keeps inspecting afterwards).
impl<S: RunSink + ?Sized> RunSink for &mut S {
    fn record(&mut self, r: &RunRecord) -> io::Result<()> {
        (**self).record(r)
    }
    fn flush(&mut self) -> io::Result<()> {
        (**self).flush()
    }
    fn finish(&mut self) -> io::Result<()> {
        (**self).finish()
    }
    fn held(&self) -> usize {
        (**self).held()
    }
    fn offsets(&mut self) -> io::Result<Vec<(String, u64)>> {
        (**self).offsets()
    }
    fn rewind_to(&mut self, offsets: &BTreeMap<String, u64>) -> io::Result<()> {
        (**self).rewind_to(offsets)
    }
}

/// The legacy shape: collects every record into a `Vec`. Default sink of
/// [`crate::ScenarioBuilder::try_run`], byte-identical to the
/// pre-streaming engine.
#[derive(Debug, Default)]
#[must_use]
pub struct Collect {
    records: Vec<RunRecord>,
}

impl Collect {
    /// An empty collector.
    pub fn new() -> Self {
        Collect::default()
    }

    /// The records collected so far, in grid order.
    pub fn records(&self) -> &[RunRecord] {
        &self.records
    }

    /// Consumes the collector, yielding the records.
    pub fn into_records(self) -> Vec<RunRecord> {
        self.records
    }

    /// Serializes the collected records exactly like
    /// [`crate::record::to_json`].
    pub fn to_json(&self) -> String {
        to_json(&self.records)
    }

    /// Serializes the collected records exactly like
    /// [`crate::record::to_csv`].
    pub fn to_csv(&self) -> String {
        to_csv(&self.records)
    }
}

impl RunSink for Collect {
    fn record(&mut self, r: &RunRecord) -> io::Result<()> {
        self.records.push(r.clone());
        Ok(())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
    fn held(&self) -> usize {
        self.records.len()
    }
}

/// Opens `path` for writing, creating parent directories.
fn open_file(path: &str, fresh: bool) -> io::Result<std::fs::File> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut opts = std::fs::OpenOptions::new();
    opts.read(true).write(true).create(true);
    if fresh {
        opts.truncate(true);
    }
    let mut file = opts.open(path)?;
    if !fresh {
        file.seek(SeekFrom::End(0))?;
    }
    Ok(file)
}

/// Shared body of the two incremental file sinks: a buffered file whose
/// durable length is tracked for checkpointing.
#[derive(Debug)]
struct FileSink {
    path: String,
    file: io::BufWriter<std::fs::File>,
    /// Bytes known to be on disk *and* in the buffer — the offset the
    /// next write lands at.
    written: u64,
}

impl FileSink {
    fn open(path: &str, fresh: bool) -> io::Result<Self> {
        let file = open_file(path, fresh)?;
        let written = file.metadata()?.len();
        Ok(FileSink {
            path: path.to_string(),
            file: io::BufWriter::new(file),
            written,
        })
    }

    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all(bytes)?;
        self.written += bytes.len() as u64;
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }

    fn offset(&mut self) -> io::Result<(String, u64)> {
        self.flush()?;
        Ok((self.path.clone(), self.written))
    }

    fn rewind_to(&mut self, offsets: &BTreeMap<String, u64>) -> io::Result<()> {
        self.flush()?;
        let target = offsets.get(&self.path).copied().unwrap_or(0);
        // A file shorter than its checkpointed offset means the caller
        // reopened it with a truncating constructor (or the file was
        // deleted while the manifest survived); set_len would silently
        // zero-extend and corrupt the resumed output, so refuse instead.
        if self.written < target {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{} is {} bytes but its checkpoint manifest recorded {target}; \
                     reopen resumable sinks with the `append` constructors (or \
                     delete the manifest to restart the sweep)",
                    self.path, self.written,
                ),
            ));
        }
        let file = self.file.get_mut();
        file.set_len(target)?;
        file.seek(SeekFrom::Start(target))?;
        self.written = target;
        Ok(())
    }
}

/// Incremental JSON-Lines writer: one [`RunRecord::to_json_line`] object
/// per line. The lines are exactly the elements [`crate::record::to_json`]
/// would emit, so a JSONL file carries the same bytes per record as the
/// legacy array format.
#[derive(Debug)]
pub struct JsonLines {
    inner: FileSink,
}

impl JsonLines {
    /// Creates (truncating) `path` and streams records into it.
    pub fn create(path: &str) -> io::Result<Self> {
        Ok(JsonLines {
            inner: FileSink::open(path, true)?,
        })
    }

    /// Opens `path` for appending (creating it if missing) — the mode
    /// resumable sweeps need.
    pub fn append(path: &str) -> io::Result<Self> {
        Ok(JsonLines {
            inner: FileSink::open(path, false)?,
        })
    }

    /// The file this sink writes.
    pub fn path(&self) -> &str {
        &self.inner.path
    }
}

impl RunSink for JsonLines {
    fn record(&mut self, r: &RunRecord) -> io::Result<()> {
        let mut line = r.to_json_line();
        line.push('\n');
        self.inner.write_all(line.as_bytes())
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
    fn offsets(&mut self) -> io::Result<Vec<(String, u64)>> {
        Ok(vec![self.inner.offset()?])
    }
    fn rewind_to(&mut self, offsets: &BTreeMap<String, u64>) -> io::Result<()> {
        self.inner.rewind_to(offsets)
    }
}

/// Incremental CSV writer: [`RunRecord::CSV_HEADER`] once, then one row
/// per flow — byte-identical to [`crate::record::to_csv`] over the same
/// records.
#[derive(Debug)]
pub struct CsvAppend {
    inner: FileSink,
}

impl CsvAppend {
    /// Creates (truncating) `path`; the header is written before the
    /// first row.
    pub fn create(path: &str) -> io::Result<Self> {
        Ok(CsvAppend {
            inner: FileSink::open(path, true)?,
        })
    }

    /// Opens `path` for appending (creating it if missing); the header
    /// is only written when the file is empty.
    pub fn append(path: &str) -> io::Result<Self> {
        Ok(CsvAppend {
            inner: FileSink::open(path, false)?,
        })
    }

    /// The file this sink writes.
    pub fn path(&self) -> &str {
        &self.inner.path
    }

    fn header_if_empty(&mut self) -> io::Result<()> {
        if self.inner.written == 0 {
            self.inner
                .write_all(format!("{}\n", RunRecord::CSV_HEADER).as_bytes())?;
        }
        Ok(())
    }
}

impl RunSink for CsvAppend {
    fn record(&mut self, r: &RunRecord) -> io::Result<()> {
        self.header_if_empty()?;
        for row in r.to_csv_rows() {
            self.inner.write_all(row.as_bytes())?;
            self.inner.write_all(b"\n")?;
        }
        Ok(())
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
    fn offsets(&mut self) -> io::Result<Vec<(String, u64)>> {
        Ok(vec![self.inner.offset()?])
    }
    fn rewind_to(&mut self, offsets: &BTreeMap<String, u64>) -> io::Result<()> {
        self.inner.rewind_to(offsets)
    }
}

/// P² streaming quantile estimator (Jain & Chlamtac 1985): tracks one
/// quantile of an unbounded stream with five markers and O(1) memory —
/// what lets [`Aggregate`] report p50/p90 without holding raw samples.
#[derive(Clone, Debug)]
#[must_use]
pub struct P2Quantile {
    q: f64,
    /// Marker heights (estimates), ascending.
    heights: [f64; 5],
    /// Marker positions, 1-based.
    positions: [f64; 5],
    desired: [f64; 5],
    increments: [f64; 5],
    /// Samples seen; the first five initialize the markers.
    n: usize,
}

impl P2Quantile {
    /// An estimator for the `q`-quantile (0 < q < 1).
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "P² tracks interior quantiles");
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            n: 0,
        }
    }

    /// Feeds one sample.
    pub fn observe(&mut self, x: f64) {
        if self.n < 5 {
            self.heights[self.n] = x;
            self.n += 1;
            if self.n == 5 {
                self.heights.sort_by(f64::total_cmp);
            }
            return;
        }
        self.n += 1;
        // Locate the cell and bump the extreme markers.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            // x < heights[4] here, so the find always succeeds.
            (1..5).find(|&i| x < self.heights[i]).unwrap_or(4) - 1
        };
        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments) {
            *d += inc;
        }
        // Adjust the three interior markers toward their desired
        // positions with the parabolic (P²) formula, falling back to
        // linear interpolation when the parabola would cross a neighbor.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right = self.positions[i + 1] - self.positions[i];
            let left = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0) {
                let d = d.signum();
                let parabolic = {
                    let (hp, h, hm) = (self.heights[i + 1], self.heights[i], self.heights[i - 1]);
                    h + d / (right - left)
                        * ((self.positions[i] - self.positions[i - 1] + d) * (hp - h) / right
                            + (self.positions[i + 1] - self.positions[i] - d) * (h - hm) / -left)
                };
                self.heights[i] =
                    if self.heights[i - 1] < parabolic && parabolic < self.heights[i + 1] {
                        parabolic
                    } else if d > 0.0 {
                        self.heights[i] + (self.heights[i + 1] - self.heights[i]) / right
                    } else {
                        self.heights[i] - (self.heights[i - 1] - self.heights[i]) / left
                    };
                self.positions[i] += d;
            }
        }
    }

    /// The current estimate (exact for ≤ 5 samples; `0.0` before any).
    pub fn estimate(&self) -> f64 {
        match self.n {
            0 => 0.0,
            n @ 1..=5 => {
                let mut v = self.heights[..n.min(5)].to_vec();
                v.sort_by(f64::total_cmp);
                let idx = ((self.q * (v.len() - 1) as f64).round() as usize).min(v.len() - 1);
                v[idx]
            }
            _ => self.heights[2],
        }
    }

    /// Samples observed.
    pub fn count(&self) -> usize {
        self.n
    }
}

/// One grid cell's bounded-memory summary — see [`Aggregate`].
#[derive(Clone, Debug)]
pub struct CellSummary {
    /// Protocol registry name.
    pub protocol: String,
    /// Sweep parameter name, when swept.
    pub param: Option<&'static str>,
    /// Sweep value at this cell.
    pub value: Option<f64>,
    /// Channel label of the cell's runs.
    pub channel: String,
    /// Runs folded into this cell.
    pub runs: usize,
    /// Flows across those runs.
    pub flows: usize,
    /// Flows that completed before the deadline.
    pub completed_flows: usize,
    /// Mean per-flow throughput, packets/s.
    pub mean_throughput_pps: f64,
    /// Smallest per-flow throughput seen.
    pub min_throughput_pps: f64,
    /// Largest per-flow throughput seen.
    pub max_throughput_pps: f64,
    /// P²-estimated median per-flow throughput.
    pub p50_throughput_pps: f64,
    /// P²-estimated 90th-percentile per-flow throughput.
    pub p90_throughput_pps: f64,
    /// Total data-frame transmissions across the cell's runs.
    pub total_tx: u64,
}

#[derive(Clone, Debug)]
struct CellAgg {
    runs: usize,
    flows: usize,
    completed: usize,
    sum_tput: f64,
    min_tput: f64,
    max_tput: f64,
    p50: P2Quantile,
    p90: P2Quantile,
    total_tx: u64,
}

impl CellAgg {
    fn new() -> Self {
        CellAgg {
            runs: 0,
            flows: 0,
            completed: 0,
            sum_tput: 0.0,
            min_tput: f64::INFINITY,
            max_tput: f64::NEG_INFINITY,
            p50: P2Quantile::new(0.5),
            p90: P2Quantile::new(0.9),
            total_tx: 0,
        }
    }
}

/// Bounded-memory per-cell summaries: mean/min/max/quantile of per-flow
/// throughput plus run and completion counts, keyed by `(protocol,
/// sweep point, channel)`. Never holds a raw [`RunRecord`]
/// ([`RunSink::held`] stays 0), so a million-run sweep aggregates in
/// O(cells) memory.
#[derive(Debug, Default)]
#[must_use]
pub struct Aggregate {
    cells: BTreeMap<(String, Option<&'static str>, String, String), CellAgg>,
}

impl Aggregate {
    /// An in-memory aggregator; read it back with
    /// [`Aggregate::summaries`] or [`Aggregate::summary_json`].
    pub fn new() -> Self {
        Aggregate::default()
    }

    /// The summaries accumulated so far, in key order.
    pub fn summaries(&self) -> Vec<CellSummary> {
        self.cells
            .iter()
            .map(|((proto, param, value, channel), agg)| CellSummary {
                protocol: proto.clone(),
                param: *param,
                value: if value.is_empty() {
                    None
                } else {
                    value.parse().ok()
                },
                channel: channel.clone(),
                runs: agg.runs,
                flows: agg.flows,
                completed_flows: agg.completed,
                mean_throughput_pps: if agg.flows == 0 {
                    0.0
                } else {
                    agg.sum_tput / agg.flows as f64
                },
                min_throughput_pps: if agg.flows == 0 { 0.0 } else { agg.min_tput },
                max_throughput_pps: if agg.flows == 0 { 0.0 } else { agg.max_tput },
                p50_throughput_pps: agg.p50.estimate(),
                p90_throughput_pps: agg.p90.estimate(),
                total_tx: agg.total_tx,
            })
            .collect()
    }

    /// The summaries as a JSON array (hand-rolled, like [`crate::record`]).
    pub fn summary_json(&self) -> String {
        let rows: Vec<String> = self
            .summaries()
            .iter()
            .map(|s| {
                format!(
                    "  {{\"protocol\": \"{}\", \"param\": {}, \"value\": {}, \
                     \"channel\": \"{}\", \"runs\": {}, \"flows\": {}, \
                     \"completed_flows\": {}, \"mean_throughput_pps\": {:.3}, \
                     \"min_throughput_pps\": {:.3}, \"max_throughput_pps\": {:.3}, \
                     \"p50_throughput_pps\": {:.3}, \"p90_throughput_pps\": {:.3}, \
                     \"total_tx\": {}}}",
                    mesh_topology::json::escape(&s.protocol),
                    s.param
                        .map(|p| format!("\"{p}\""))
                        .unwrap_or_else(|| "null".into()),
                    s.value
                        .map(|v| format!("{v}"))
                        .unwrap_or_else(|| "null".into()),
                    mesh_topology::json::escape(&s.channel),
                    s.runs,
                    s.flows,
                    s.completed_flows,
                    s.mean_throughput_pps,
                    s.min_throughput_pps,
                    s.max_throughput_pps,
                    s.p50_throughput_pps,
                    s.p90_throughput_pps,
                    s.total_tx,
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

impl RunSink for Aggregate {
    fn record(&mut self, r: &RunRecord) -> io::Result<()> {
        let key = (
            r.protocol.clone(),
            r.param,
            r.value.map(|v| format!("{v}")).unwrap_or_default(),
            r.channel.clone(),
        );
        let agg = self.cells.entry(key).or_insert_with(CellAgg::new);
        agg.runs += 1;
        agg.total_tx += r.total_tx;
        for f in &r.flows {
            agg.flows += 1;
            if f.completed {
                agg.completed += 1;
            }
            agg.sum_tput += f.throughput_pps;
            agg.min_tput = agg.min_tput.min(f.throughput_pps);
            agg.max_tput = agg.max_tput.max(f.throughput_pps);
            agg.p50.observe(f.throughput_pps);
            agg.p90.observe(f.throughput_pps);
        }
        Ok(())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Fans every record out to several child sinks, in order. Children can
/// be owned boxes or `&mut` borrows (so a caller can keep a [`Collect`]
/// to read back while files stream beside it).
#[derive(Default)]
#[must_use]
pub struct Tee<'a> {
    children: Vec<Box<dyn RunSink + 'a>>,
}

impl<'a> Tee<'a> {
    /// An empty tee; add children with [`Tee::with`].
    pub fn new() -> Self {
        Tee {
            children: Vec::new(),
        }
    }

    /// Adds a child sink (builder style).
    pub fn with(mut self, sink: impl RunSink + 'a) -> Self {
        self.children.push(Box::new(sink));
        self
    }
}

impl RunSink for Tee<'_> {
    fn record(&mut self, r: &RunRecord) -> io::Result<()> {
        for c in &mut self.children {
            c.record(r)?;
        }
        Ok(())
    }
    fn flush(&mut self) -> io::Result<()> {
        for c in &mut self.children {
            c.flush()?;
        }
        Ok(())
    }
    fn finish(&mut self) -> io::Result<()> {
        for c in &mut self.children {
            c.finish()?;
        }
        Ok(())
    }
    fn held(&self) -> usize {
        self.children.iter().map(|c| c.held()).sum()
    }
    fn offsets(&mut self) -> io::Result<Vec<(String, u64)>> {
        let mut all = Vec::new();
        for c in &mut self.children {
            all.extend(c.offsets()?);
        }
        Ok(all)
    }
    fn rewind_to(&mut self, offsets: &BTreeMap<String, u64>) -> io::Result<()> {
        for c in &mut self.children {
            c.rewind_to(offsets)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod test {
    use super::*;

    #[test]
    fn p2_tracks_quantiles_of_a_known_stream() {
        // 0..=999 uniformly: p50 ≈ 500, p90 ≈ 900. P² is an estimator,
        // so allow a few percent.
        let mut p50 = P2Quantile::new(0.5);
        let mut p90 = P2Quantile::new(0.9);
        // A fixed LCG permutation so the stream isn't sorted.
        let mut x: u64 = 1;
        for _ in 0..1000 {
            x = (x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407))
                >> 1;
            let v = (x % 1000) as f64;
            p50.observe(v);
            p90.observe(v);
        }
        assert!((p50.estimate() - 500.0).abs() < 50.0, "{}", p50.estimate());
        assert!((p90.estimate() - 900.0).abs() < 50.0, "{}", p90.estimate());
    }

    #[test]
    fn p2_small_samples_are_exact() {
        let mut p = P2Quantile::new(0.5);
        assert_eq!(p.estimate(), 0.0);
        for v in [5.0, 1.0, 3.0] {
            p.observe(v);
        }
        assert_eq!(p.estimate(), 3.0, "exact median of 3 samples");
    }

    #[test]
    fn tee_fans_out_and_sums_held() {
        let mut a = Collect::new();
        let mut b = Collect::new();
        {
            let mut tee = Tee::new().with(&mut a).with(&mut b);
            let r = crate::record::test_support::sample_record();
            tee.record(&r).unwrap();
            tee.record(&r).unwrap();
            assert_eq!(tee.held(), 4);
            tee.finish().unwrap();
        }
        assert_eq!(a.records().len(), 2);
        assert_eq!(b.records().len(), 2);
    }
}
