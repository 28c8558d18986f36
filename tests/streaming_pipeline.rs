//! The streaming results pipeline, end to end: sink equivalence against
//! the legacy collect-then-serialize path, bounded-memory aggregation,
//! kill-and-resume determinism (manifest + torn-tail trim), executor
//! ordering/panic behavior at scale, and the results-math edge cases the
//! redesign fixed (zero-width active windows, misbehaving custom
//! schedules).

use more_repro::scenario::sink::{Aggregate, Collect, CsvAppend, JsonLines, RunSink, Tee};
use more_repro::scenario::{
    exec, record, BuildError, ExpConfig, FlowEvent, FlowSpec, ProtocolFactory, ProtocolRegistry,
    RunRecord, Scenario, ScenarioBuilder, TrafficModel, TrafficModelSpec, TrafficSpec,
};
use more_repro::sim::{ErasedFlowAgent, Time, SEC};
use more_repro::topology::{NodeId, Topology};
use std::io;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A fresh scratch directory under the target-adjacent temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("more_streaming_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The golden scenario the equivalence tests run: small but exercises
/// protocols × seeds × several traffic indices.
fn golden(name: &str) -> ScenarioBuilder {
    Scenario::named(name)
        .testbed(1)
        .traffic(TrafficSpec::RandomPairs { count: 2, seed: 7 })
        .protocols(["MORE", "Srcr"])
        .seeds([1, 2])
        .k(8)
        .packets(16)
        .deadline(120)
}

#[test]
fn file_sinks_are_byte_identical_to_the_legacy_serializers() {
    // The "before" path: materialize, then serialize.
    let records = golden("sink_equivalence").run();
    assert_eq!(records.len(), 2 * 2 * 2);
    let legacy_json = record::to_json(&records);
    let legacy_csv = record::to_csv(&records);

    // The "after" path: stream into Collect + JsonLines + CsvAppend at
    // once through a Tee of borrowed sinks.
    let dir = scratch("equivalence");
    let jsonl_path = dir.join("runs.jsonl");
    let csv_path = dir.join("runs.csv");
    let mut collect = Collect::new();
    let mut jsonl = JsonLines::create(jsonl_path.to_str().unwrap()).unwrap();
    let mut csv = CsvAppend::create(csv_path.to_str().unwrap()).unwrap();
    let summary = {
        let mut tee = Tee::new()
            .with(&mut collect)
            .with(&mut jsonl)
            .with(&mut csv);
        golden("sink_equivalence")
            .try_run_with_sink(&mut tee)
            .expect("streamed run")
    };
    assert_eq!(summary.records, records.len());
    assert_eq!(summary.cells_skipped, 0);

    // Collect reproduces the legacy records (and therefore bytes).
    assert_eq!(collect.records(), &records[..]);
    assert_eq!(collect.to_json(), legacy_json);

    // The CSV file is byte-identical to the legacy serializer.
    let csv_file = std::fs::read_to_string(&csv_path).unwrap();
    assert_eq!(csv_file, legacy_csv);

    // Each JSONL line is byte-identical to the matching array element of
    // the legacy JSON (so the whole array reassembles exactly).
    let jsonl_file = std::fs::read_to_string(&jsonl_path).unwrap();
    let lines: Vec<&str> = jsonl_file.lines().collect();
    assert_eq!(lines.len(), records.len());
    for (line, r) in lines.iter().zip(&records) {
        assert_eq!(*line, r.to_json_line());
    }
    let reassembled = format!(
        "[\n{}\n]\n",
        lines
            .iter()
            .map(|l| format!("  {l}"))
            .collect::<Vec<_>>()
            .join(",\n")
    );
    assert_eq!(reassembled, legacy_json);
    let _ = std::fs::remove_dir_all(&dir);
}

/// How many grid cells a [`CellCounting`] sink has taken, and a condvar
/// to wait on it.
#[derive(Default)]
struct Taken {
    cells: Mutex<usize>,
    grown: Condvar,
}

/// A sink that forwards to `inner` and counts the grid cells it has
/// taken: the engine flushes once after each cell's records.
struct CellCounting<'a, S> {
    inner: &'a mut S,
    taken: Arc<Taken>,
}

impl<S: RunSink> RunSink for CellCounting<'_, S> {
    fn record(&mut self, r: &RunRecord) -> io::Result<()> {
        self.inner.record(r)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()?;
        *self.taken.cells.lock().unwrap() += 1;
        self.taken.grown.notify_all();
        Ok(())
    }

    fn held(&self) -> usize {
        self.inner.held()
    }
}

/// A built-in protocol under its own name whose `build` for grid cell
/// `first_cell + seed − 1` waits until the sink has taken every earlier
/// cell. Cells then reach the drain in grid order whatever the workers'
/// scheduling, so the reorder buffer holds one cell at most. The wait
/// gives up after a minute, so a pipeline that never hands a cell on
/// fails the test's bound instead of hanging it.
struct InGridOrder {
    inner: Arc<dyn ProtocolFactory>,
    first_cell: usize,
    taken: Arc<Taken>,
}

impl ProtocolFactory for InGridOrder {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn supports_multicast(&self) -> bool {
        self.inner.supports_multicast()
    }

    fn build(
        &self,
        topo: &Topology,
        flows: &[FlowSpec],
        cfg: &ExpConfig,
    ) -> Result<Box<dyn ErasedFlowAgent>, BuildError> {
        let cell = self.first_cell + cfg.seed as usize - 1;
        let cells = self.taken.cells.lock().unwrap();
        let minute = Duration::from_secs(60);
        let wait = self
            .taken
            .grown
            .wait_timeout_while(cells, minute, |taken| *taken < cell);
        drop(wait.unwrap());
        self.inner.build(topo, flows, cfg)
    }
}

#[test]
fn aggregate_summarizes_without_holding_records() {
    let records = golden("aggregate").run();
    let mut agg = Aggregate::new();
    // The grid is protocol-major over seeds 1 and 2: MORE's cells are 0
    // and 1, Srcr's 2 and 3.
    let taken = Arc::new(Taken::default());
    let defaults = ProtocolRegistry::with_defaults();
    let in_order = |name: &str, first_cell: usize| InGridOrder {
        inner: defaults.resolve(name).unwrap(),
        first_cell,
        taken: Arc::clone(&taken),
    };
    let mut sink = CellCounting {
        inner: &mut agg,
        taken: Arc::clone(&taken),
    };
    let summary = golden("aggregate")
        .register(in_order("MORE", 0))
        .register(in_order("Srcr", 2))
        .threads(2)
        .try_run_with_sink(&mut sink)
        .expect("aggregate run");
    assert_eq!(agg.held(), 0, "Aggregate must never hold raw records");
    let one_cell = summary.records / summary.cells_run;
    assert!(
        summary.records_high_water <= one_cell,
        "streaming high-water {} must stay within one cell ({one_cell} records) \
         of the {}-record grid",
        summary.records_high_water,
        summary.records
    );
    // The folded means match a recomputation over the materialized runs.
    let summaries = agg.summaries();
    assert_eq!(summaries.len(), 2, "one cell per protocol");
    for s in &summaries {
        let flows: Vec<f64> = records
            .iter()
            .filter(|r| r.protocol == s.protocol)
            .flat_map(|r| r.throughputs())
            .collect();
        assert_eq!(s.flows, flows.len());
        let mean = flows.iter().sum::<f64>() / flows.len() as f64;
        assert!((s.mean_throughput_pps - mean).abs() < 1e-9, "{s:?}");
        assert!(s.min_throughput_pps <= s.p50_throughput_pps + 1e-9);
        assert!(s.p50_throughput_pps <= s.max_throughput_pps + 1e-9);
    }
    // The JSON summary parses.
    let parsed = more_repro::topology::json::parse(&agg.summary_json()).expect("valid JSON");
    assert_eq!(parsed.as_arr().unwrap().len(), 2);
}

/// A sink wrapper that fails its Nth `record` call — the in-process
/// stand-in for a mid-sweep `SIGTERM`.
struct FailAfter<S> {
    inner: S,
    remaining: usize,
}

impl<S: RunSink> RunSink for FailAfter<S> {
    fn record(&mut self, r: &record::RunRecord) -> io::Result<()> {
        if self.remaining == 0 {
            return Err(io::Error::other("injected mid-sweep failure"));
        }
        self.remaining -= 1;
        self.inner.record(r)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
    fn finish(&mut self) -> io::Result<()> {
        self.inner.finish()
    }
    fn held(&self) -> usize {
        self.inner.held()
    }
    fn offsets(&mut self) -> io::Result<Vec<(String, u64)>> {
        self.inner.offsets()
    }
    fn rewind_to(&mut self, offsets: &std::collections::BTreeMap<String, u64>) -> io::Result<()> {
        self.inner.rewind_to(offsets)
    }
}

#[test]
fn killed_sweep_resumes_byte_identical_to_an_uninterrupted_run() {
    // Reference: one uninterrupted checkpointed run.
    let dir_a = scratch("resume_a");
    let jsonl_a = dir_a.join("runs.jsonl");
    let csv_a = dir_a.join("runs.csv");
    {
        let mut tee = Tee::new()
            .with(JsonLines::append(jsonl_a.to_str().unwrap()).unwrap())
            .with(CsvAppend::append(csv_a.to_str().unwrap()).unwrap());
        golden("resume")
            .checkpoint(dir_a.to_str().unwrap())
            .try_run_with_sink(&mut tee)
            .expect("uninterrupted run");
    }

    // Interrupted: the sink dies after 3 records, mid-grid.
    let dir_b = scratch("resume_b");
    let jsonl_b = dir_b.join("runs.jsonl");
    let csv_b = dir_b.join("runs.csv");
    {
        let mut failing = FailAfter {
            inner: Tee::new()
                .with(JsonLines::append(jsonl_b.to_str().unwrap()).unwrap())
                .with(CsvAppend::append(csv_b.to_str().unwrap()).unwrap()),
            remaining: 3,
        };
        let err = golden("resume")
            .checkpoint(dir_b.to_str().unwrap())
            .try_run_with_sink(&mut failing)
            .expect_err("injected failure must surface");
        assert!(matches!(err, BuildError::Sink(_)), "{err}");
    }
    // Simulate the torn tail a hard kill can leave past the last
    // durable checkpoint.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&jsonl_b)
            .unwrap();
        write!(f, "{{\"truncated mid-wri").unwrap();
    }

    // Resume with fresh append-mode sinks: completed cells are skipped,
    // the torn tail is trimmed, the rest appends.
    let summary = {
        let mut tee = Tee::new()
            .with(JsonLines::append(jsonl_b.to_str().unwrap()).unwrap())
            .with(CsvAppend::append(csv_b.to_str().unwrap()).unwrap());
        golden("resume")
            .checkpoint(dir_b.to_str().unwrap())
            .try_run_with_sink(&mut tee)
            .expect("resumed run")
    };
    assert!(
        summary.cells_skipped > 0,
        "resume must skip checkpointed cells: {summary:?}"
    );
    assert!(summary.cells_run > 0, "something was left to do");

    let a = std::fs::read_to_string(&jsonl_a).unwrap();
    let b = std::fs::read_to_string(&jsonl_b).unwrap();
    assert_eq!(a, b, "JSONL must be byte-identical after kill + resume");
    let a = std::fs::read_to_string(&csv_a).unwrap();
    let b = std::fs::read_to_string(&csv_b).unwrap();
    assert_eq!(a, b, "CSV must be byte-identical after kill + resume");

    // A reconfigured sweep must refuse the stale manifest — whether the
    // grid shape changed (extra seed) or only a parameter the cell keys
    // cannot see (packets).
    for reconfigured in [
        golden("resume").seeds([1, 2, 3]),
        golden("resume").packets(32),
    ] {
        let err = {
            let mut tee = Tee::new()
                .with(JsonLines::append(jsonl_b.to_str().unwrap()).unwrap())
                .with(CsvAppend::append(csv_b.to_str().unwrap()).unwrap());
            reconfigured
                .checkpoint(dir_b.to_str().unwrap())
                .try_run_with_sink(&mut tee)
                .expect_err("scenario changed under the manifest")
        };
        match err {
            BuildError::Sink(msg) => assert!(msg.contains("manifest"), "{msg}"),
            other => panic!("expected Sink error, got {other}"),
        }
    }

    // Resuming into an in-memory sink would silently miss the completed
    // prefix; the engine must refuse.
    let err = golden("resume")
        .checkpoint(dir_b.to_str().unwrap())
        .try_run()
        .expect_err("Collect cannot resume a checkpointed sweep");
    match err {
        BuildError::Sink(msg) => assert!(msg.contains("in-memory"), "{msg}"),
        other => panic!("expected Sink error, got {other}"),
    }

    // A truncating reopen (`create` instead of `append`) leaves the file
    // shorter than its checkpointed offset; zero-extending it would
    // corrupt the output, so the resume must refuse.
    let err = {
        let mut sink = JsonLines::create(jsonl_b.to_str().unwrap()).unwrap();
        golden("resume")
            .checkpoint(dir_b.to_str().unwrap())
            .try_run_with_sink(&mut sink)
            .expect_err("truncated file vs manifest offset")
    };
    match err {
        BuildError::Sink(msg) => assert!(msg.contains("append"), "{msg}"),
        other => panic!("expected Sink error, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// Every result of a streamed map, filed under its input index.
fn par_map_indexed(threads: usize, f: impl Fn(&u64) -> u64 + Sync) -> Vec<Option<u64>> {
    let mut out = vec![None; 10_000];
    exec::par_map_streaming((0..10_000).collect(), threads, f, |i, r| {
        assert!(out[i].replace(r).is_none(), "index {i} drained twice");
        ControlFlow::Continue(())
    });
    out
}

#[test]
fn par_map_at_10k_items_preserves_order_across_thread_counts() {
    for threads in [1, 3, 8, 32] {
        for (i, v) in par_map_indexed(threads, |&x| x * x).iter().enumerate() {
            assert_eq!(*v, Some((i * i) as u64), "threads={threads} index={i}");
        }
    }
}

#[test]
#[should_panic(expected = "scoped thread panicked")]
fn par_map_at_10k_items_propagates_worker_panics() {
    par_map_indexed(8, |&x| {
        assert!(x != 9_137, "poisoned item");
        x
    });
}

/// A custom workload whose schedule is handed in verbatim.
struct FixedSchedule(Vec<FlowEvent>);

impl TrafficModel for FixedSchedule {
    fn schedules(
        &self,
        _topo: &Topology,
        _run_seed: u64,
        _packets: usize,
        _horizon: Time,
    ) -> Vec<Vec<FlowEvent>> {
        vec![self.0.clone()]
    }
}

fn custom(events: Vec<FlowEvent>) -> TrafficModelSpec {
    TrafficModelSpec::Custom(Arc::new(FixedSchedule(events)))
}

fn line_builder(name: &str, traffic: TrafficModelSpec) -> ScenarioBuilder {
    Scenario::named(name)
        .topology(more_repro::scenario::TopologySpec::Line {
            hops: 2,
            p_adj: 0.9,
            skip_decay: 0.3,
            spacing: 25.0,
        })
        .traffic_model(traffic)
        .protocol("MORE")
        .packets(8)
        .deadline(60)
}

#[test]
fn zero_width_active_window_reports_finite_zero_throughput() {
    // One normal flow from t = 0 plus a flow that starts and stops at
    // the same instant — a Poisson arrival squeezed against the horizon
    // edge. The zero-width window used to risk a 0-width division whose
    // non-finite throughput poisons NaN-intolerant stats downstream.
    let flow = |src, dst| FlowSpec::unicast(NodeId(src), NodeId(dst), 8);
    let records = line_builder(
        "zero_width",
        custom(vec![
            FlowEvent::Start {
                flow: flow(0, 2),
                at: 0,
            },
            FlowEvent::Start {
                flow: flow(1, 2),
                at: 10 * SEC,
            },
            FlowEvent::Stop {
                flow: 1,
                at: 10 * SEC,
            },
        ]),
    )
    .run();
    assert_eq!(records.len(), 1);
    let flows = &records[0].flows;
    assert_eq!(flows.len(), 2);
    assert!(flows[0].completed, "the real flow runs normally: {flows:?}");
    let ghost = &flows[1];
    assert_eq!(ghost.delivered, 0, "never-active flow moved nothing");
    assert_eq!(ghost.throughput_pps, 0.0, "zero, not NaN/inf: {ghost:?}");
    assert!(ghost.throughput_pps.is_finite());
    // The historical failure mode: sorting throughputs through
    // partial_cmp (how bench::stats orders every metric) must not see a
    // NaN.
    let mut tputs: Vec<f64> = records.iter().flat_map(|r| r.throughputs()).collect();
    tputs.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in metrics"));
}

#[test]
fn misbehaving_custom_schedules_error_instead_of_panicking() {
    let flow = || FlowSpec::unicast(NodeId(0), NodeId(2), 8);
    // Stop for a flow that never started.
    let err = line_builder(
        "stop_unknown",
        custom(vec![
            FlowEvent::Start {
                flow: flow(),
                at: 0,
            },
            FlowEvent::Stop {
                flow: 7,
                at: 2 * SEC,
            },
        ]),
    )
    .try_run()
    .expect_err("unknown flow index");
    assert!(matches!(err, BuildError::InvalidSchedule(_)), "{err}");

    // Stop ordered before its Start.
    let err = line_builder(
        "stop_before_start",
        custom(vec![
            FlowEvent::Stop { flow: 0, at: 0 },
            FlowEvent::Start {
                flow: flow(),
                at: SEC,
            },
        ]),
    )
    .try_run()
    .expect_err("Stop precedes Start");
    assert!(matches!(err, BuildError::InvalidSchedule(_)), "{err}");

    // Events past the run horizon (deadline is 60 s).
    let err = line_builder(
        "past_horizon",
        custom(vec![FlowEvent::Start {
            flow: flow(),
            at: 61 * SEC,
        }]),
    )
    .try_run()
    .expect_err("event beyond horizon");
    assert!(matches!(err, BuildError::InvalidSchedule(_)), "{err}");

    // An unsorted event list.
    let err = line_builder(
        "unsorted",
        custom(vec![
            FlowEvent::Start {
                flow: flow(),
                at: 2 * SEC,
            },
            FlowEvent::Start {
                flow: flow(),
                at: SEC,
            },
        ]),
    )
    .try_run()
    .expect_err("unsorted events");
    assert!(matches!(err, BuildError::InvalidSchedule(_)), "{err}");
}
