//! `more-scenario` outside the simulator: record serialization, file
//! sinks, manifest commits, the executor.

use super::{Bench, Out};
use mesh_topology::NodeId;
use more_scenario::manifest::{cell_key, Manifest};
use more_scenario::sink::{CsvAppend, JsonLines, Tee};
use more_scenario::{exec, FlowRecord, RunRecord, RunSink};
use std::hint::black_box;
use std::ops::ControlFlow;
use std::path::Path;

/// A record shaped like the testbed sweep's: one completed unicast flow.
fn sample_record() -> RunRecord {
    RunRecord {
        scenario: "testbed_sweep".into(),
        protocol: "MORE".into(),
        topology: "testbed-s1".into(),
        channel: "static".into(),
        queue: "unbounded".into(),
        param: None,
        value: None,
        seed: 1,
        traffic_index: 17,
        flows: vec![FlowRecord {
            src: NodeId(3),
            dsts: vec![NodeId(14)],
            delivered: 384,
            throughput_pps: 181.372_549_019_607_85,
            queue_drops: 0,
            completed: true,
            completed_at_s: Some(2.117_204),
            started_at_s: None,
            stopped_at_s: None,
            latency_s: None,
        }],
        total_tx: 1_873,
        queue_drops: 0,
        fairness: 1.0,
        concurrency: 0.071_428_571_428_571_43,
        sim_time_s: 2.117_204,
    }
}

pub fn probe(b: &Bench, scratch: &Path, out: &mut Out) -> Result<(), String> {
    let record = sample_record();
    let ns = b.ns(|| {
        black_box(record.to_json_line());
    });
    out.push(("scenario.record_json_ns", ns));
    let ns = b.ns(|| {
        black_box(record.to_csv_rows());
    });
    out.push(("scenario.record_csv_ns", ns));

    let dir = scratch.join(format!("probe-{}", std::process::id()));
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    std::fs::create_dir_all(&dir).map_err(io)?;
    let file = |name: &str| dir.join(name).display().to_string();
    {
        let mut tee = Tee::new()
            .with(JsonLines::create(&file("probe.jsonl")).map_err(io)?)
            .with(CsvAppend::create(&file("probe.csv")).map_err(io)?);
        let mut failed = None;
        let ns = b.ns(|| {
            if let Err(e) = tee.record(&record).and_then(|()| tee.flush()) {
                failed = Some(e);
            }
        });
        if let Some(e) = failed {
            return Err(io(e));
        }
        out.push(("scenario.sink_us_per_record", ns / 1e3));
    }

    // A manifest with 60 completed cells, rewritten whole on every commit.
    let path = file("probe.manifest.json");
    let mut manifest = Manifest::new("probe", "fingerprint");
    for seed in 0..60 {
        manifest.cells.push(cell_key("MORE", None, seed));
    }
    let offsets = vec![(file("probe.jsonl"), 123_456), (file("probe.csv"), 98_765)];
    let mut failed = None;
    let ns = b.ns(|| {
        manifest.cells.truncate(60);
        if let Err(e) = manifest.commit(&path, cell_key("MORE", None, 60), offsets.clone()) {
            failed = Some(e);
        }
    });
    if let Some(e) = failed {
        return Err(io(e));
    }
    out.push(("scenario.manifest_commit_us", ns / 1e3));
    // Best effort: leftovers only waste disk.
    let _ = std::fs::remove_dir_all(&dir);

    const ITEMS: usize = 1024;
    let ns = b.ns(|| {
        let mut sum = 0usize;
        exec::par_map_streaming(
            (0..ITEMS).collect(),
            1,
            |&i| black_box(i),
            |_, r| {
                sum += r;
                ControlFlow::Continue(())
            },
        );
        black_box(sum);
    });
    out.push(("scenario.exec_us_per_item", ns / ITEMS as f64 / 1e3));
    Ok(())
}
