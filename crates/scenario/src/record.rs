//! Structured run results with hand-rolled JSON and CSV writers.

use mesh_sim::SEC;
use mesh_topology::NodeId;
use std::borrow::Cow;
use std::fmt::Write;

/// One flow's outcome within a run.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowRecord {
    /// Source node.
    pub src: NodeId,
    /// First (or only) destination; multicast flows list all in `dsts`.
    pub dsts: Vec<NodeId>,
    /// Packets delivered end-to-end.
    pub delivered: usize,
    /// Delivered packets / elapsed seconds (deadline-limited runs use
    /// the deadline as the denominator — the Figs 4-2…4-7 convention).
    pub throughput_pps: f64,
    /// Frames of this flow dropped by transmit queues anywhere in the
    /// mesh. Always 0 for the unbounded default, whose one-frame slots
    /// never drop.
    pub queue_drops: u64,
    /// The transfer finished before the deadline.
    pub completed: bool,
    /// Completion time in simulated seconds, when completed.
    pub completed_at_s: Option<f64>,
    /// When the flow arrived, simulated seconds. `None` for static
    /// workloads (every flow starts at 0).
    pub started_at_s: Option<f64>,
    /// When the traffic model withdrew the flow mid-run, simulated
    /// seconds; `None` when it ran to completion or deadline.
    pub stopped_at_s: Option<f64>,
    /// Completion latency: `completed_at_s − started_at_s`, for completed
    /// flows of dynamic workloads.
    pub latency_s: Option<f64>,
}

/// One simulator run: a (scenario, protocol, sweep point, seed,
/// flow set) coordinate and everything measured there.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Scenario name (the builder's `named`).
    pub scenario: String,
    /// Protocol registry name.
    pub protocol: String,
    /// Topology the run used.
    pub topology: String,
    /// Channel-model label ([`mesh_sim::ChannelSpec::label`]); `"static"`
    /// for the default §5.3.1 air.
    pub channel: String,
    /// Queue-discipline label ([`mesh_sim::QueueSpec::label`]);
    /// `"unbounded"` for the default one-frame slot.
    pub queue: String,
    /// Sweep parameter name, when the scenario sweeps one.
    pub param: Option<&'static str>,
    /// Sweep parameter value at this point.
    pub value: Option<f64>,
    /// Run seed.
    pub seed: u64,
    /// Index of the flow set within the traffic expansion (e.g. which
    /// random pair).
    pub traffic_index: usize,
    /// Per-flow outcomes, in flow order.
    pub flows: Vec<FlowRecord>,
    /// Whole-run data-frame transmissions.
    pub total_tx: u64,
    /// Whole-run transmit-queue drops, all causes (overflow, early
    /// marking, CHOKe flow matches). 0 under the unbounded default.
    pub queue_drops: u64,
    /// Jain's fairness index over the per-flow throughputs
    /// ([`mesh_metrics::fairness::jain`]): 1.0 when every flow gets an
    /// equal share, `1/n` when one flow monopolizes the medium.
    pub fairness: f64,
    /// [`mesh_sim::SimStats::concurrent_airtime`] over all airtime, MAC
    /// ACKs included: overlap µs per µs on the air. It is not a fraction
    /// of time and can exceed 1 — `k` frames on the air together read
    /// `(k − 1)/2` — and it is 0 when no transmissions overlap.
    pub concurrency: f64,
    /// Simulated time at exit, seconds.
    pub sim_time_s: f64,
}

impl RunRecord {
    /// Throughputs of all flows in the run.
    pub fn throughputs(&self) -> impl Iterator<Item = f64> + '_ {
        self.flows.iter().map(|f| f.throughput_pps)
    }

    /// Mean per-flow throughput of the run.
    pub fn mean_throughput(&self) -> f64 {
        if self.flows.is_empty() {
            return 0.0;
        }
        self.throughputs().sum::<f64>() / self.flows.len() as f64
    }

    /// All flows completed before the deadline.
    pub fn all_completed(&self) -> bool {
        self.flows.iter().all(|f| f.completed)
    }

    /// The record as a single JSON object — one JSON-Lines line, exactly
    /// the array element [`to_json`] emits (the contract the
    /// [`crate::sink::JsonLines`] sink streams under). Every key is
    /// always written, `null` where a value does not apply — the same
    /// fixed shape as [`RunRecord::CSV_HEADER`].
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(320 + 240 * self.flows.len());
        // Writing to a `String` cannot fail.
        let _ = write!(
            out,
            "{{\"scenario\": {}, \"protocol\": {}, \"topology\": {}, \"channel\": {}, \
             \"queue\": {}, \"queue_drops\": {}, \"fairness\": {}, \"param\": {}, \
             \"value\": {}, \"seed\": {}, \"traffic_index\": {}, \"total_tx\": {}, \
             \"concurrency\": {}, \"sim_time_s\": {}, \"flows\": [",
            esc(&self.scenario),
            esc(&self.protocol),
            esc(&self.topology),
            esc(&self.channel),
            esc(&self.queue),
            self.queue_drops,
            fmt_f64(self.fairness),
            self.param.map_or_else(|| "null".to_string(), esc),
            fmt_opt(self.value),
            self.seed,
            self.traffic_index,
            self.total_tx,
            fmt_f64(self.concurrency),
            fmt_f64(self.sim_time_s),
        );
        for (i, f) in self.flows.iter().enumerate() {
            let dsts: Vec<String> = f.dsts.iter().map(|d| d.0.to_string()).collect();
            let _ = write!(
                out,
                "{}{{\"src\": {}, \"dsts\": [{}], \"delivered\": {}, \"throughput_pps\": {}, \
                 \"completed\": {}, \"completed_at_s\": {}, \"started_at_s\": {}, \
                 \"stopped_at_s\": {}, \"latency_s\": {}, \"queue_drops\": {}}}",
                if i == 0 { "" } else { ", " },
                f.src.0,
                dsts.join(", "),
                f.delivered,
                fmt_f64(f.throughput_pps),
                f.completed,
                fmt_opt(f.completed_at_s),
                fmt_opt(f.started_at_s),
                fmt_opt(f.stopped_at_s),
                fmt_opt(f.latency_s),
                f.queue_drops,
            );
        }
        out.push_str("]}");
        out
    }

    /// The CSV header matching [`RunRecord::to_csv_rows`]. One CSV row
    /// per flow (runs with several flows emit several rows).
    pub const CSV_HEADER: &'static str = "scenario,protocol,topology,channel,queue,param,value,\
         seed,traffic_index,flow_index,src,dst,delivered,throughput_pps,queue_drops,completed,\
         completed_at_s,started_at_s,stopped_at_s,latency_s,total_tx,total_queue_drops,fairness,\
         concurrency,sim_time_s";

    /// One CSV row per flow, matching [`RunRecord::CSV_HEADER`]; absent
    /// values are empty fields.
    pub fn to_csv_rows(&self) -> Vec<String> {
        self.flows
            .iter()
            .enumerate()
            .map(|(i, f)| {
                format!(
                    "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                    csv_field(&self.scenario),
                    csv_field(&self.protocol),
                    csv_field(&self.topology),
                    csv_field(&self.channel),
                    csv_field(&self.queue),
                    // `param` and the joined `dsts` go through the same
                    // quoting as every other string column: a
                    // comma-bearing sweep-parameter name must not shear
                    // the row (built-in labels never quote, so ordinary
                    // output is byte-identical).
                    csv_field(self.param.unwrap_or("")),
                    self.value.map(fmt_f64).unwrap_or_default(),
                    self.seed,
                    self.traffic_index,
                    i,
                    f.src.0,
                    csv_field(
                        &f.dsts
                            .iter()
                            .map(|d| d.0.to_string())
                            .collect::<Vec<_>>()
                            .join("|")
                    ),
                    f.delivered,
                    fmt_f64(f.throughput_pps),
                    f.queue_drops,
                    f.completed,
                    f.completed_at_s.map(fmt_f64).unwrap_or_default(),
                    f.started_at_s.map(fmt_f64).unwrap_or_default(),
                    f.stopped_at_s.map(fmt_f64).unwrap_or_default(),
                    f.latency_s.map(fmt_f64).unwrap_or_default(),
                    self.total_tx,
                    self.queue_drops,
                    fmt_f64(self.fairness),
                    fmt_f64(self.concurrency),
                    fmt_f64(self.sim_time_s),
                )
            })
            .collect()
    }
}

/// Serializes a record set to a JSON array.
pub fn to_json(records: &[RunRecord]) -> String {
    let objs: Vec<String> = records
        .iter()
        .map(|r| format!("  {}", r.to_json_line()))
        .collect();
    format!("[\n{}\n]\n", objs.join(",\n"))
}

/// Serializes a record set to CSV (header + one row per flow).
pub fn to_csv(records: &[RunRecord]) -> String {
    let mut out = String::from(RunRecord::CSV_HEADER);
    out.push('\n');
    for r in records {
        for row in r.to_csv_rows() {
            out.push_str(&row);
            out.push('\n');
        }
    }
    out
}

/// Converts a completion time to seconds.
pub fn time_to_s(t: mesh_sim::Time) -> f64 {
    t as f64 / SEC as f64
}

fn fmt_f64(v: f64) -> Cow<'static, str> {
    if v.is_finite() {
        v.to_string().into()
    } else {
        "null".into()
    }
}

/// `null` for an absent (or non-finite) value — borrowed, since a static
/// run writes several per flow.
fn fmt_opt(v: Option<f64>) -> Cow<'static, str> {
    v.map_or("null".into(), fmt_f64)
}

fn esc(s: &str) -> String {
    format!("\"{}\"", mesh_topology::json::escape(s))
}

fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// A representative record for unit tests across the crate.
    pub(crate) fn sample_record() -> RunRecord {
        RunRecord {
            scenario: "test".into(),
            protocol: "MORE".into(),
            topology: "testbed".into(),
            channel: "static".into(),
            queue: "unbounded".into(),
            param: Some("k"),
            value: Some(32.0),
            seed: 1,
            traffic_index: 0,
            flows: vec![FlowRecord {
                src: NodeId(0),
                dsts: vec![NodeId(19)],
                delivered: 384,
                throughput_pps: 151.25,
                queue_drops: 0,
                completed: true,
                completed_at_s: Some(2.54),
                started_at_s: None,
                stopped_at_s: None,
                latency_s: None,
            }],
            total_tx: 900,
            queue_drops: 0,
            fairness: 1.0,
            concurrency: 0.12,
            sim_time_s: 2.54,
        }
    }
}

#[cfg(test)]
mod test {
    use super::*;

    fn sample() -> RunRecord {
        test_support::sample_record()
    }

    #[test]
    fn json_is_parseable() {
        let json = to_json(&[sample(), sample()]);
        let v = mesh_topology::json::parse(&json).expect("valid JSON");
        let arr = v.as_arr().expect("array");
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("protocol").unwrap().as_str(), Some("MORE"));
        assert_eq!(
            arr[0].get("flows").unwrap().as_arr().unwrap()[0]
                .get("delivered")
                .unwrap()
                .as_f64(),
            Some(384.0)
        );
    }

    #[test]
    fn json_escapes_control_characters() {
        let mut r = sample();
        r.scenario = "line1\nline2\ttabbed".into();
        let json = to_json(&[r]);
        let v = mesh_topology::json::parse(&json).expect("control chars must be escaped");
        assert_eq!(
            v.as_arr().unwrap()[0].get("scenario").unwrap().as_str(),
            Some("line1\nline2\ttabbed")
        );
    }

    #[test]
    fn channel_key_is_written_for_every_channel() {
        let mut r = sample();
        for label in [
            "static",
            "ge(good=1.25;bad=0;to_bad=0.05;to_good=0.2;epoch=10ms)",
        ] {
            r.channel = label.into();
            let v = mesh_topology::json::parse(&to_json(&[r.clone()])).expect("valid JSON");
            assert_eq!(
                v.as_arr().unwrap()[0].get("channel").unwrap().as_str(),
                Some(label)
            );
            assert!(to_csv(&[r.clone()]).contains(label));
        }
        assert!(RunRecord::CSV_HEADER.contains(",channel,"));
    }

    #[test]
    fn queue_keys_are_written_for_every_discipline() {
        // Unbounded: the label, zero drops and the fairness index.
        let v = mesh_topology::json::parse(&to_json(&[sample()])).expect("valid JSON");
        let obj = &v.as_arr().unwrap()[0];
        assert_eq!(obj.get("queue").unwrap().as_str(), Some("unbounded"));
        assert_eq!(obj.get("queue_drops").unwrap().as_f64(), Some(0.0));
        assert_eq!(obj.get("fairness").unwrap().as_f64(), Some(1.0));
        // Bounded: label, drop counts, and the fairness index surface at
        // both the run and flow level.
        let mut r = sample();
        r.queue = "droptail(cap=16)".into();
        r.queue_drops = 7;
        r.fairness = 0.5;
        r.flows[0].queue_drops = 7;
        let json = to_json(&[r.clone()]);
        let v = mesh_topology::json::parse(&json).expect("valid JSON");
        let obj = &v.as_arr().unwrap()[0];
        assert_eq!(obj.get("queue").unwrap().as_str(), Some(r.queue.as_str()));
        assert_eq!(obj.get("queue_drops").unwrap().as_f64(), Some(7.0));
        assert_eq!(obj.get("fairness").unwrap().as_f64(), Some(0.5));
        let flow = &obj.get("flows").unwrap().as_arr().unwrap()[0];
        assert_eq!(flow.get("queue_drops").unwrap().as_f64(), Some(7.0));
        for col in [
            ",queue,",
            ",queue_drops,",
            ",total_queue_drops,",
            ",fairness,",
        ] {
            assert!(RunRecord::CSV_HEADER.contains(col), "missing {col}");
        }
        let csv = to_csv(&[r.clone()]);
        assert!(csv.contains(&r.queue));
    }

    #[test]
    fn lifecycle_keys_are_null_for_static_flows_and_valued_otherwise() {
        let flow_of = |r: RunRecord| {
            let v = mesh_topology::json::parse(&to_json(&[r])).expect("valid JSON");
            v.as_arr().unwrap()[0]
                .get("flows")
                .unwrap()
                .as_arr()
                .unwrap()[0]
                .clone()
        };
        // Static flow (started_at_s = None): the keys exist and are null.
        let flow = flow_of(sample());
        for key in ["started_at_s", "stopped_at_s", "latency_s"] {
            assert_eq!(flow.get(key), Some(&mesh_topology::json::Value::Null));
        }
        // Dynamic flow: all three carry their values.
        let mut r = sample();
        r.flows[0].started_at_s = Some(1.5);
        r.flows[0].stopped_at_s = Some(9.0);
        r.flows[0].latency_s = Some(1.04);
        let flow = flow_of(r);
        assert_eq!(flow.get("started_at_s").unwrap().as_f64(), Some(1.5));
        assert_eq!(flow.get("stopped_at_s").unwrap().as_f64(), Some(9.0));
        assert_eq!(flow.get("latency_s").unwrap().as_f64(), Some(1.04));
        for col in ["started_at_s", "stopped_at_s", "latency_s"] {
            assert!(RunRecord::CSV_HEADER.contains(col), "missing {col}");
        }
    }

    #[test]
    fn csv_rows_match_header_arity() {
        let csv = to_csv(&[sample()]);
        let mut lines = csv.lines();
        let header_cols = lines.next().unwrap().split(',').count();
        for line in lines {
            assert_eq!(line.split(',').count(), header_cols, "line {line:?}");
        }
    }

    /// Splits one CSV row respecting double-quoted fields (what any CSV
    /// reader does) — the arity oracle for the quoting tests below.
    fn csv_split(line: &str) -> Vec<String> {
        let mut fields = vec![String::new()];
        let mut quoted = false;
        for c in line.chars() {
            match c {
                '"' => quoted = !quoted,
                ',' if !quoted => fields.push(String::new()),
                c => fields.last_mut().unwrap().push(c),
            }
        }
        fields
    }

    #[test]
    fn comma_bearing_param_is_quoted_not_sheared() {
        // A sweep-parameter name with a comma previously went out
        // unquoted and shifted every later column by one.
        let mut r = sample();
        r.param = Some("k,variant");
        let row = &r.to_csv_rows()[0];
        assert!(row.contains("\"k,variant\""), "param must be quoted: {row}");
        let header_cols = RunRecord::CSV_HEADER.split(',').count();
        assert_eq!(csv_split(row).len(), header_cols, "sheared row: {row}");
        assert_eq!(csv_split(row)[5], "k,variant");
    }

    #[test]
    fn multicast_dsts_ride_the_same_quoting_path() {
        let mut r = sample();
        r.flows[0].dsts = vec![NodeId(3), NodeId(7)];
        let row = &r.to_csv_rows()[0];
        // '|'-joined destinations carry no comma, so the field stays
        // unquoted — but it must flow through csv_field like every other
        // string column (arity stays fixed either way).
        assert_eq!(csv_split(row)[11], "3|7");
        assert_eq!(
            csv_split(row).len(),
            RunRecord::CSV_HEADER.split(',').count()
        );
    }
}
