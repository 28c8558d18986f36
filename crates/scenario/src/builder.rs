//! The fluent [`ScenarioBuilder`] and the parallel scenario engine.
//!
//! A scenario is the cross product
//!
//! ```text
//! protocols × sweep points × seeds × flow sets
//! ```
//!
//! over one declared topology and traffic shape. Each coordinate is one
//! deterministic simulator run producing one [`RunRecord`]; the grid is
//! executed on a worker pool ([`crate::exec::par_map_streaming`]) because
//! runs are independent by construction.

#![expect(
    clippy::indexing_slicing,
    clippy::panic,
    reason = "run()/run_with_sink() panic on configuration errors as their documented contract (the try_* forms are the fallible API); sweep-grid indices are bounded by the arity computed in the same function"
)]

use crate::cell::Cells;
use crate::exec;
use crate::manifest::{cell_key, Manifest};
use crate::record::RunRecord;
use crate::registry::{BuildError, ProtocolRegistry};
use crate::sink::{Collect, RunSink};
use crate::spec::{ExpConfig, Point, Sweep, TopologySpec, TrafficSpec};
use crate::traffic::TrafficModelSpec;
use mesh_sim::{AimdConfig, Bitrate, ChannelSpec, QueueSpec, SEC};
use mesh_topology::estimator::LinkEstimator;
use mesh_topology::{NodeId, Topology};
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::Mutex;

/// What a streamed run did — returned by
/// [`ScenarioBuilder::try_run_with_sink`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Records emitted to the sink.
    pub records: usize,
    /// Grid cells executed by this process.
    pub cells_run: usize,
    /// Grid cells skipped because a checkpoint manifest already had them.
    pub cells_skipped: usize,
    /// Peak records in memory at once: the executor's reorder buffer
    /// plus [`RunSink::held`] — the streaming pipeline's RSS proxy.
    /// O(workers) for streaming sinks, O(grid) for [`Collect`].
    pub records_high_water: usize,
}

/// Entry point: `Scenario::named("fig4_2")` starts a builder.
pub struct Scenario;

impl Scenario {
    /// Starts a fluent [`ScenarioBuilder`] for a named experiment.
    ///
    /// A scenario declares *what* to compare; [`ScenarioBuilder::run`]
    /// executes the full protocol × sweep × seed × flow-set grid and
    /// returns one [`RunRecord`] per simulator run:
    ///
    /// ```
    /// use mesh_topology::NodeId;
    /// use more_scenario::{Scenario, TopologySpec};
    ///
    /// let records = Scenario::named("doc")
    ///     .topology(TopologySpec::Line {
    ///         hops: 1,
    ///         p_adj: 0.9,
    ///         skip_decay: 0.0,
    ///         spacing: 20.0,
    ///     })
    ///     .pair(NodeId(0), NodeId(1))
    ///     .protocol("MORE")
    ///     .packets(16)
    ///     .deadline(60)
    ///     .run();
    /// assert_eq!(records.len(), 1);
    /// assert!(records[0].all_completed());
    /// ```
    pub fn named(name: impl Into<String>) -> ScenarioBuilder {
        ScenarioBuilder::new(name)
    }
}

/// Fluent scenario construction; see the crate docs for a worked
/// example. Finish with [`ScenarioBuilder::run`] (or
/// [`ScenarioBuilder::try_run`] to surface configuration errors as
/// values), or stream records into a [`RunSink`] with
/// [`ScenarioBuilder::try_run_with_sink`].
#[must_use]
pub struct ScenarioBuilder {
    name: String,
    topology: TopologySpec,
    traffic: TrafficModelSpec,
    protocols: Vec<String>,
    sweep: Option<Sweep>,
    seeds: Vec<u64>,
    base: ExpConfig,
    channel: ChannelSpec,
    queue: QueueSpec,
    congestion: Option<AimdConfig>,
    probe: Option<(LinkEstimator, u64)>,
    threads: Option<usize>,
    registry: ProtocolRegistry,
    checkpoint_dir: Option<String>,
}

impl std::fmt::Debug for ScenarioBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioBuilder")
            .field("name", &self.name)
            .field("topology", &self.topology)
            .field("traffic", &self.traffic)
            .field("protocols", &self.protocols)
            .field("sweep", &self.sweep)
            .field("seeds", &self.seeds)
            .field("channel", &self.channel)
            .field("queue", &self.queue)
            .field("congestion", &self.congestion)
            .field("checkpoint_dir", &self.checkpoint_dir)
            .finish_non_exhaustive()
    }
}

impl ScenarioBuilder {
    /// A builder with the crate's defaults (testbed topology, one unicast
    /// pair, static traffic, static channel, seed 1).
    pub fn new(name: impl Into<String>) -> Self {
        ScenarioBuilder {
            name: name.into(),
            topology: TopologySpec::Testbed { seed: 1 },
            traffic: TrafficModelSpec::default(),
            protocols: Vec::new(),
            sweep: None,
            seeds: vec![ExpConfig::default().seed],
            base: ExpConfig::default(),
            channel: ChannelSpec::Static,
            queue: QueueSpec::Unbounded,
            congestion: None,
            probe: None,
            threads: None,
            registry: ProtocolRegistry::with_defaults(),
            checkpoint_dir: None,
        }
    }

    /// Sets the topology family.
    pub fn topology(mut self, spec: TopologySpec) -> Self {
        self.topology = spec;
        self
    }

    /// Shorthand for the paper's 20-node testbed.
    pub fn testbed(self, seed: u64) -> Self {
        self.topology(TopologySpec::Testbed { seed })
    }

    /// Sets a static traffic shape (the legacy [`TrafficSpec`]): every
    /// flow starts at t = 0 and runs to completion. Shorthand for
    /// `.traffic_model(TrafficModelSpec::Static(spec))`.
    pub fn traffic(mut self, spec: TrafficSpec) -> Self {
        self.traffic = TrafficModelSpec::Static(spec);
        self
    }

    /// Sets the traffic model — how flows arrive and depart over the run
    /// (default: the static [`TrafficSpec`] expansion). Dynamic models
    /// inject flows mid-run through the protocol's
    /// [`mesh_sim::FlowAgent::add_flow`] lifecycle hook and withdraw them
    /// via [`mesh_sim::FlowAgent::end_flow`]; per-flow arrival, departure,
    /// and completion latency land in each record's flow rows.
    ///
    /// ```
    /// use more_scenario::{PoissonModel, Scenario, TopologySpec, TrafficModelSpec};
    ///
    /// let records = Scenario::named("arrivals-doc")
    ///     .topology(TopologySpec::Line {
    ///         hops: 2,
    ///         p_adj: 0.9,
    ///         skip_decay: 0.3,
    ///         spacing: 25.0,
    ///     })
    ///     .traffic_model(TrafficModelSpec::Poisson(PoissonModel {
    ///         rate_per_s: 0.5,
    ///         mean_hold_s: 30.0,
    ///         max_active: 2,
    ///     }))
    ///     .protocol("MORE")
    ///     .packets(8)
    ///     .deadline(60)
    ///     .run();
    /// let flows = &records[0].flows;
    /// assert!(!flows.is_empty());
    /// // Every flow carries its arrival instant, and the arrivals ramp up.
    /// let arrivals: Vec<f64> = flows.iter().filter_map(|f| f.started_at_s).collect();
    /// assert_eq!(arrivals.len(), flows.len());
    /// assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
    /// ```
    pub fn traffic_model(mut self, spec: TrafficModelSpec) -> Self {
        self.traffic = spec;
        self
    }

    /// Shorthand for one unicast pair.
    pub fn pair(self, src: NodeId, dst: NodeId) -> Self {
        self.traffic(TrafficSpec::SinglePair { src, dst })
    }

    /// Adds a protocol by registry name.
    pub fn protocol(mut self, name: impl Into<String>) -> Self {
        self.protocols.push(name.into());
        self
    }

    /// Adds several protocols in order.
    pub fn protocols<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.protocols.extend(names.into_iter().map(Into::into));
        self
    }

    /// Registers a custom factory into this scenario's registry *and*
    /// selects it, so external protocols are one call away.
    pub fn register(mut self, factory: impl crate::registry::ProtocolFactory + 'static) -> Self {
        let name = factory.name().to_string();
        self.registry.register(factory);
        // Overriding an already-selected name must not run it twice.
        if !self.protocols.iter().any(|p| p.eq_ignore_ascii_case(&name)) {
            self.protocols.push(name);
        }
        self
    }

    /// Replaces the whole registry (defaults: the paper's four).
    pub fn registry(mut self, registry: ProtocolRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Sweeps a parameter grid.
    pub fn sweep(mut self, sweep: Sweep) -> Self {
        self.sweep = Some(sweep);
        self
    }

    /// Run seeds; the grid runs every seed (default: just seed 1).
    pub fn seeds<I: IntoIterator<Item = u64>>(mut self, seeds: I) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Packets per transfer.
    pub fn packets(mut self, packets: usize) -> Self {
        self.base.packets = packets;
        self
    }

    /// Batch size K.
    pub fn k(mut self, k: usize) -> Self {
        self.base.k = k;
        self
    }

    /// Fixed data bit-rate.
    pub fn bitrate(mut self, bitrate: Bitrate) -> Self {
        self.base.bitrate = bitrate;
        self
    }

    /// Per-run simulated-time budget, seconds.
    pub fn deadline(mut self, seconds: u64) -> Self {
        self.base.deadline_s = seconds;
        self
    }

    /// Overrides the full experiment parameter block.
    pub fn exp_config(mut self, cfg: ExpConfig) -> Self {
        self.base = cfg;
        self
    }

    /// Sets the channel model every run's air follows (default:
    /// [`ChannelSpec::Static`], the paper's §5.3.1 model). Non-static
    /// channels are surfaced in each record's `channel` key.
    ///
    /// ```
    /// use mesh_sim::ChannelSpec;
    /// use mesh_topology::NodeId;
    /// use more_scenario::{Scenario, TopologySpec};
    ///
    /// let records = Scenario::named("bursty-doc")
    ///     .topology(TopologySpec::Line {
    ///         hops: 1,
    ///         p_adj: 0.9,
    ///         skip_decay: 0.0,
    ///         spacing: 20.0,
    ///     })
    ///     .pair(NodeId(0), NodeId(1))
    ///     .protocol("MORE")
    ///     .channel(ChannelSpec::bursty_matched(0.0, 0.05, 0.2, 10))
    ///     .packets(16)
    ///     .deadline(60)
    ///     .run();
    /// assert!(records[0].channel.starts_with("ge("));
    /// ```
    pub fn channel(mut self, spec: ChannelSpec) -> Self {
        self.channel = spec;
        self
    }

    /// Sets the per-node transmit queue discipline every run uses
    /// (default: [`QueueSpec::Unbounded`], a one-frame slot: one poll per
    /// transmit opportunity, never a drop).
    /// Bounded disciplines surface per-flow drops and whole-run drop
    /// totals in each record.
    ///
    /// ```
    /// use mesh_sim::QueueSpec;
    /// use mesh_topology::NodeId;
    /// use more_scenario::{Scenario, TopologySpec};
    ///
    /// let records = Scenario::named("queue-doc")
    ///     .topology(TopologySpec::Line {
    ///         hops: 1,
    ///         p_adj: 0.9,
    ///         skip_decay: 0.0,
    ///         spacing: 20.0,
    ///     })
    ///     .pair(NodeId(0), NodeId(1))
    ///     .protocol("MORE")
    ///     .queue(QueueSpec::drop_tail(16))
    ///     .packets(16)
    ///     .deadline(60)
    ///     .run();
    /// assert_eq!(records[0].queue, "droptail(cap=16)");
    /// assert!(records[0].fairness >= 0.0 && records[0].fairness <= 1.0);
    /// ```
    pub fn queue(mut self, spec: QueueSpec) -> Self {
        self.queue = spec;
        self
    }

    /// Enables AIMD source congestion control for every flow of every
    /// run: each source paces its injections at an additive-increase
    /// rate that halves (by [`AimdConfig::decrease`]) whenever the local
    /// queue drops one of the flow's frames. The pacer reacts to queue
    /// losses, and the unbounded slot has none, so some point of the grid
    /// must run a bounded queue: the [`ScenarioBuilder::queue`], or under
    /// a [`Sweep::Queue`], which replaces it, one of the swept points.
    /// Runs at unbounded points are not paced.
    pub fn congestion(mut self, cfg: AimdConfig) -> Self {
        self.congestion = Some(cfg);
        self
    }

    /// Routes on *measured* beliefs instead of the truth matrix: before
    /// each run, the channel is probed for [`LinkEstimator::probes`]
    /// rounds spaced `interval_us` apart (the paper's §4.1.2 warm-up),
    /// and the estimated topology — not the truth — is handed to the
    /// protocol factories. The medium still follows the live channel, so
    /// scenarios can separate what routing believes from what the air
    /// does.
    pub fn probe_routing(mut self, estimator: LinkEstimator, interval_us: u64) -> Self {
        self.probe = Some((estimator, interval_us));
        self
    }

    /// Worker threads (default: machine parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Makes the sweep resumable: after every completed grid cell the
    /// engine persists `<dir>/<scenario>.manifest.json` — the completed
    /// cell keys plus a durable byte offset for every file the sink owns
    /// (atomic temp-file + rename). When the manifest already exists,
    /// the run **resumes**: completed cells are skipped, sink files are
    /// trimmed to their last checkpoint (dropping any torn tail from a
    /// mid-write kill), and the remaining cells append — ending
    /// byte-identical to an uninterrupted run. Use the `append`
    /// constructors of the file sinks ([`crate::sink::JsonLines::append`],
    /// [`crate::sink::CsvAppend::append`]) so an earlier attempt's bytes
    /// survive the reopen. Resuming into a purely in-memory sink
    /// ([`Collect`], [`crate::sink::Aggregate`]) is rejected — it would
    /// silently hold only the cells this process ran, not the resumed
    /// prefix.
    pub fn checkpoint(mut self, dir: impl Into<String>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Executes the grid, panicking on configuration errors (unknown
    /// protocol, unsupported traffic). Records arrive sorted by
    /// (protocol, sweep point, seed, traffic index).
    pub fn run(self) -> Vec<RunRecord> {
        match self.try_run() {
            Ok(records) => records,
            Err(e) => panic!("scenario failed: {e}"),
        }
    }

    /// Executes the grid, streaming every record into `sink` (in
    /// deterministic grid order) and panicking on configuration errors.
    pub fn run_with_sink(self, sink: &mut dyn RunSink) -> RunSummary {
        match self.try_run_with_sink(sink) {
            Ok(summary) => summary,
            Err(e) => panic!("scenario failed: {e}"),
        }
    }

    /// The grid's points: the builder's settings, or one per swept value
    /// with that value substituted.
    fn points(&self) -> Result<Vec<Point>, BuildError> {
        let base = Point {
            k: self.base.k,
            channel: self.channel.clone(),
            queue: self.queue.clone(),
            traffic: self.traffic.clone(),
            param: None,
            value: None,
        };
        match &self.sweep {
            None => Ok(vec![base]),
            Some(sweep) => sweep.points(&base),
        }
    }

    /// Checks every setting the grid's `points` run with over the sweep's
    /// topology `topo`, so a bad or infeasible point fails before any
    /// worker thread spawns — not after the cells before it were sunk and
    /// checkpointed. In order: the channel model; the packet count, batch
    /// size and deadline, without which a worker panics on an agent's
    /// empty-transfer assert, on `div_ceil(0)` for the batch count, or on
    /// the µs product; the traffic model's parameters and whether `topo`
    /// can host its flows; the queue discipline and congestion control;
    /// the probe window.
    fn validate(&self, points: &[Point], topo: &Topology) -> Result<(), BuildError> {
        for p in points {
            p.channel
                .validate_params()
                .map_err(BuildError::Unsupported)?;
        }
        let problem = if self.base.packets == 0 {
            Some("a transfer needs at least one packet")
        } else if points.iter().any(|p| p.k == 0) {
            Some("batch size K must be at least 1")
        } else if self.base.deadline_s.checked_mul(SEC).is_none() {
            Some("the deadline overflows the simulator's µs clock")
        } else {
            None
        };
        if let Some(problem) = problem {
            return Err(BuildError::Unsupported(problem.into()));
        }
        for p in points {
            p.traffic
                .validate_for(topo)
                .map_err(BuildError::Unsupported)?;
        }
        for p in points {
            p.queue.validate().map_err(BuildError::InvalidQueue)?;
        }
        if let Some(cc) = &self.congestion {
            cc.validate().map_err(BuildError::InvalidQueue)?;
            // The pacer is keyed to queue losses; a grid with no bounded
            // queue at any point would silently never pace.
            if points.iter().all(|p| p.queue.is_unbounded()) {
                return Err(BuildError::InvalidQueue(
                    "congestion control requires a bounded queue discipline \
                     (set ScenarioBuilder::queue or sweep Sweep::Queue with a \
                     bounded point); the unbounded slot has no queue \
                     losses to react to"
                        .to_string(),
                ));
            }
        }
        self.validate_probe()
    }

    /// Checks the [`ScenarioBuilder::probe_routing`] window: a window
    /// needs a probe, `min_delivery` must be a probability, and the last
    /// probe, at `interval_us · (probes − 1)`, must fit the µs clock.
    /// Otherwise a worker panics in the estimator, the probe instants
    /// wrap, or a NaN threshold drops every link and reads as an
    /// unreachable destination.
    fn validate_probe(&self) -> Result<(), BuildError> {
        let Some((est, interval_us)) = &self.probe else {
            return Ok(());
        };
        let problem = if est.probes == 0 {
            "probe routing needs at least one probe".to_string()
        } else if !(0.0..=1.0).contains(&est.min_delivery) {
            format!(
                "probe routing's min_delivery = {} must be in [0, 1]",
                est.min_delivery
            )
        } else if interval_us.checked_mul(u64::from(est.probes - 1)).is_none() {
            "the probe window overflows the simulator's µs clock".to_string()
        } else {
            return Ok(());
        };
        Err(BuildError::Unsupported(problem))
    }

    /// Executes the grid, surfacing configuration errors: a [`Collect`]
    /// sink handed to [`ScenarioBuilder::try_run_with_sink`].
    pub fn try_run(self) -> Result<Vec<RunRecord>, BuildError> {
        let mut collect = Collect::new();
        self.try_run_with_sink(&mut collect)?;
        Ok(collect.into_records())
    }

    /// The streaming core under every `run` flavor: executes the grid on
    /// the sharded executor, restores deterministic grid order with a
    /// bounded reorder buffer, and feeds `sink` one record at a time (the
    /// order [`ScenarioBuilder::run`] returns them in), surfacing
    /// configuration and I/O errors — checkpointing each completed cell
    /// when [`ScenarioBuilder::checkpoint`] is set.
    ///
    /// ```
    /// use mesh_topology::NodeId;
    /// use more_scenario::sink::Aggregate;
    /// use more_scenario::{Scenario, TopologySpec};
    ///
    /// let mut sink = Aggregate::new();
    /// let summary = Scenario::named("sink-doc")
    ///     .topology(TopologySpec::Line {
    ///         hops: 1,
    ///         p_adj: 0.9,
    ///         skip_decay: 0.0,
    ///         spacing: 20.0,
    ///     })
    ///     .pair(NodeId(0), NodeId(1))
    ///     .protocol("MORE")
    ///     .packets(16)
    ///     .deadline(60)
    ///     .try_run_with_sink(&mut sink)
    ///     .expect("valid scenario");
    /// assert_eq!(summary.records, 1, "the record streamed into the sink");
    /// ```
    pub fn try_run_with_sink(self, sink: &mut dyn RunSink) -> Result<RunSummary, BuildError> {
        let points = self.points()?;
        // No topology variant depends on the run seed, so the whole grid
        // borrows one instance, and every point is checked against it.
        let topo = self.topology.instantiate(0);
        if topo.n() == 0 {
            return Err(BuildError::Unsupported(format!(
                "topology {} has no nodes; nothing can be scheduled or routed",
                topo.name
            )));
        }
        self.validate(&points, &topo)?;
        let protocols = if self.protocols.is_empty() {
            // No explicit selection: run everything registered.
            self.registry
                .names()
                .iter()
                .map(|s| s.to_string())
                .collect()
        } else {
            self.protocols.clone()
        };
        // Resolve every factory up front so typos fail before any work.
        let factories: Vec<_> = protocols
            .iter()
            .map(|name| self.registry.resolve(name))
            .collect::<Result<Vec<_>, _>>()?;

        // Work grid: protocol × sweep point × seed (flow sets expand inside
        // the worker because RandomConcurrent traffic depends on the seed).
        let mut grid = Vec::new();
        for pi in 0..factories.len() {
            for point in 0..points.len() {
                for &seed in &self.seeds {
                    grid.push((pi, point, seed));
                }
            }
        }
        let keys: Vec<String> = grid
            .iter()
            .map(|&(pi, point, seed)| {
                cell_key(&protocols[pi], self.sweep.as_ref().map(|_| point), seed)
            })
            .collect();

        // Checkpoint/resume: load (or start) the manifest, trim the sink
        // files to their last durable offsets, and skip the completed
        // prefix of the grid. The fingerprint covers everything the cell
        // keys don't: resuming after changing packets, the swept values,
        // the channel, etc. must be rejected, not silently mixed into
        // one output file. (`Custom(..)` traffic fingerprints opaquely —
        // two different custom models are indistinguishable here.)
        let fingerprint = format!(
            "topo={:?} traffic={:?} sweep={:?} base={:?} channel={} probe={:?} queue={} cc={:?}",
            self.topology,
            self.traffic,
            self.sweep,
            self.base,
            self.channel.label(),
            self.probe,
            self.queue.label(),
            self.congestion.map(|cc| cc.label()),
        );
        let sink_err = |e: std::io::Error| BuildError::Sink(e.to_string());
        let (mut manifest, manifest_path, skipped) = match &self.checkpoint_dir {
            None => (None, String::new(), 0),
            Some(dir) => {
                let path = Manifest::path_for(dir, &self.name);
                match Manifest::load(&path).map_err(sink_err)? {
                    None => {
                        // Fresh checkpointed sweep: claim the sink files
                        // (drop bytes from any earlier un-manifested
                        // attempt so append-mode sinks start clean).
                        sink.rewind_to(&BTreeMap::new()).map_err(sink_err)?;
                        (Some(Manifest::new(&self.name, &fingerprint)), path, 0)
                    }
                    Some(m) => {
                        // Records are emitted in grid order, so a valid
                        // manifest is always an exact prefix of this
                        // grid with the same configuration; anything
                        // else means the scenario changed under the
                        // checkpoint.
                        if m.scenario != self.name
                            || m.config != fingerprint
                            || m.cells.len() > keys.len()
                            || m.cells[..] != keys[..m.cells.len()]
                        {
                            return Err(BuildError::Sink(format!(
                                "manifest {path} does not match this scenario's grid \
                                 or configuration (was the sweep reconfigured \
                                 mid-resume?); delete it to restart the sweep"
                            )));
                        }
                        // Resuming only makes sense into file-backed
                        // sinks: an in-memory sink (Collect, Aggregate)
                        // would silently hold just the non-skipped tail.
                        if !m.cells.is_empty() && sink.offsets().map_err(sink_err)?.is_empty() {
                            return Err(BuildError::Sink(format!(
                                "manifest {path} has {} completed cell(s), but the \
                                 attached sink owns no files to resume into — an \
                                 in-memory sink would silently miss the completed \
                                 prefix; use JsonLines/CsvAppend (append mode), or \
                                 delete the manifest to restart the sweep",
                                m.cells.len()
                            )));
                        }
                        sink.rewind_to(&m.sink_offsets).map_err(sink_err)?;
                        let skipped = m.cells.len();
                        (Some(m), path, skipped)
                    }
                }
            }
        };
        let todo: Vec<(usize, usize, u64)> = grid[skipped..].to_vec();

        let threads = self.threads.unwrap_or_else(exec::default_threads);
        let cells = Cells {
            scenario: &self.name,
            topo: &topo,
            base: self.base,
            congestion: self.congestion,
            probe: self.probe.as_ref(),
            probe_cache: Mutex::new(BTreeMap::new()),
        };
        let (cells, factories, protocols, points) = (&cells, &factories, &protocols, &points);

        // Drain state: workers report cells in completion order; the
        // reorder buffer holds out-of-order cells until their turn, so
        // the sink always sees deterministic grid order while memory
        // stays bounded by how far completion runs ahead of emission.
        let mut pending: BTreeMap<usize, Vec<RunRecord>> = BTreeMap::new();
        let mut pending_records = 0usize;
        let mut next_emit = 0usize;
        let mut emitted = 0usize;
        let mut high_water = 0usize;
        let mut failure: Option<BuildError> = None;

        exec::par_map_streaming(
            todo,
            threads,
            |&(pi, point, seed)| {
                let factory = factories[pi].as_ref();
                cells.run_cell(&protocols[pi], factory, point, &points[point], seed)
            },
            |j, result| {
                let records = match result {
                    Ok(records) => records,
                    Err(e) => {
                        failure = Some(e);
                        return ControlFlow::Break(());
                    }
                };
                pending_records += records.len();
                pending.insert(j, records);
                high_water = high_water.max(pending_records + sink.held());
                while let Some(records) = pending.remove(&next_emit) {
                    pending_records -= records.len();
                    for r in &records {
                        if let Err(e) = sink.record(r) {
                            failure = Some(BuildError::Sink(e.to_string()));
                            return ControlFlow::Break(());
                        }
                        emitted += 1;
                        high_water = high_water.max(pending_records + sink.held());
                    }
                    // Durability boundary: flush — and checkpoint — per
                    // completed grid cell.
                    let committed = match &mut manifest {
                        Some(m) => sink.offsets().and_then(|offsets| {
                            m.commit(&manifest_path, keys[skipped + next_emit].clone(), offsets)
                        }),
                        None => sink.flush(),
                    };
                    if let Err(e) = committed {
                        failure = Some(BuildError::Sink(e.to_string()));
                        return ControlFlow::Break(());
                    }
                    next_emit += 1;
                }
                ControlFlow::Continue(())
            },
        );
        if let Some(e) = failure {
            return Err(e);
        }
        sink.finish().map_err(sink_err)?;
        Ok(RunSummary {
            records: emitted,
            cells_run: next_emit,
            cells_skipped: skipped,
            records_high_water: high_water,
        })
    }
}

#[cfg(test)]
mod test {
    use super::*;
    use crate::registry::ProtocolFactory;
    use crate::spec::FlowSpec;
    use crate::traffic::{FlowEvent, PoissonModel, TrafficModel};
    use mesh_sim::Time;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// An `n`-node topology from `(from, to, p)` triples.
    fn topo(name: &str, n: usize, links: &[(usize, usize, f64)]) -> mesh_topology::Topology {
        let links = links
            .iter()
            .map(|&(from, to, delivery)| mesh_topology::Link {
                from: mesh_topology::NodeId(from),
                to: mesh_topology::NodeId(to),
                delivery,
            });
        mesh_topology::Topology::from_links(name, n, links.collect())
    }

    #[test]
    fn unknown_protocol_fails_before_running() {
        let err = Scenario::named("bad")
            .protocol("NotARealProtocol")
            .try_run()
            .expect_err("must fail");
        assert!(matches!(err, BuildError::UnknownProtocol(_)));
    }

    #[test]
    fn flows_sweep_without_random_concurrent_is_an_error_not_a_panic() {
        let err = Scenario::named("bad-sweep")
            .pair(NodeId(0), NodeId(19))
            .protocol("MORE")
            .sweep(Sweep::Flows(vec![1, 2]))
            .packets(8)
            .try_run()
            .expect_err("mismatched sweep/traffic must surface as a value");
        assert!(matches!(err, BuildError::Unsupported(_)));
    }

    #[test]
    fn load_sweep_without_poisson_is_an_error_before_running() {
        let err = Scenario::named("bad-load")
            .pair(NodeId(0), NodeId(19))
            .protocol("MORE")
            .sweep(Sweep::Load(vec![0.1, 0.5]))
            .packets(8)
            .try_run()
            .expect_err("Sweep::Load needs Poisson traffic");
        assert!(matches!(err, BuildError::Unsupported(_)));
    }

    #[test]
    fn load_sweep_runs_dynamic_arrivals_across_protocols() {
        // The acceptance scenario: a Poisson arrival-rate sweep for MORE,
        // ExOR, and Srcr, with flows starting (and possibly stopping)
        // mid-run, surfaced per flow in the records.
        let records = Scenario::named("load")
            .testbed(1)
            .traffic_model(TrafficModelSpec::Poisson(PoissonModel {
                rate_per_s: 0.1,
                mean_hold_s: 20.0,
                max_active: 2,
            }))
            .protocols(["MORE", "ExOR", "Srcr"])
            .sweep(Sweep::Load(vec![0.1, 0.3]))
            .k(8)
            .packets(16)
            .deadline(90)
            .run();
        assert_eq!(records.len(), 3 * 2);
        assert!(records.iter().all(|r| r.param == Some("load")));
        assert!(records.iter().any(|r| r.value == Some(0.3)));
        // Every flow of a dynamic run carries its arrival time, and at
        // least one flow genuinely arrived mid-run.
        for r in &records {
            for f in &r.flows {
                assert!(f.started_at_s.is_some(), "missing arrival: {r:?}");
            }
        }
        assert!(
            records
                .iter()
                .flat_map(|r| &r.flows)
                .any(|f| f.started_at_s.is_some_and(|s| s > 0.0)),
            "no mid-run arrival in the whole sweep"
        );
        // The same rate point sees the same arrival process for every
        // protocol (the fairness property the comparison rests on).
        let arrivals = |proto: &str| -> Vec<Vec<Option<f64>>> {
            records
                .iter()
                .filter(|r| r.protocol == proto)
                .map(|r| r.flows.iter().map(|f| f.started_at_s).collect())
                .collect()
        };
        assert_eq!(arrivals("MORE"), arrivals("Srcr"));
        assert_eq!(arrivals("MORE"), arrivals("ExOR"));
    }

    #[test]
    fn bad_traffic_parameters_fail_at_build_time() {
        // A zero arrival rate must be rejected before any worker thread
        // could panic on it — whether set directly or via the sweep.
        let poisson = |rate| {
            TrafficModelSpec::Poisson(PoissonModel {
                rate_per_s: rate,
                mean_hold_s: 10.0,
                max_active: 2,
            })
        };
        let direct = Scenario::named("bad-rate")
            .traffic_model(poisson(0.0))
            .protocol("MORE")
            .packets(8)
            .try_run()
            .expect_err("zero arrival rate");
        assert!(matches!(direct, BuildError::Unsupported(_)));
        let swept = Scenario::named("bad-swept-rate")
            .traffic_model(poisson(0.1))
            .protocol("MORE")
            .sweep(Sweep::Load(vec![0.1, 0.0]))
            .packets(8)
            .try_run()
            .expect_err("zero swept arrival rate");
        assert!(matches!(swept, BuildError::Unsupported(_)));
        // A schedule reaching past the deadline would silently drop its
        // tail; reject it instead.
        let late = Scenario::named("bad-schedule")
            .traffic_model(schedule(&[(0, 19, 0, None), (0, 19, 60 * SEC, None)]))
            .protocol("MORE")
            .packets(8)
            .deadline(60)
            .try_run()
            .expect_err("an arrival at the deadline");
        assert!(matches!(late, BuildError::InvalidSchedule(_)), "{late}");
    }

    /// A fixed schedule, as a [`TrafficModelSpec::Custom`] model: flow *i*
    /// goes `src → dst` (the builder's packet budget) from `start` until
    /// `stop`, µs, listed in start order.
    fn schedule(flows: &[(usize, usize, Time, Option<Time>)]) -> TrafficModelSpec {
        struct Fixed(Vec<(usize, usize, Time, Option<Time>)>);
        impl TrafficModel for Fixed {
            fn schedules(
                &self,
                _: &Topology,
                _: u64,
                packets: usize,
                _: Time,
            ) -> Vec<Vec<FlowEvent>> {
                let starts = self.0.iter().map(|&(src, dst, at, _)| FlowEvent::Start {
                    flow: FlowSpec::unicast(NodeId(src), NodeId(dst), packets),
                    at,
                });
                let stops = (self.0.iter().enumerate())
                    .filter_map(|(flow, &(.., stop))| Some(FlowEvent::Stop { flow, at: stop? }));
                let mut events: Vec<FlowEvent> = starts.chain(stops).collect();
                events.sort_by_key(FlowEvent::at); // stable: a Start precedes its Stop
                vec![events]
            }
        }
        TrafficModelSpec::Custom(Arc::new(Fixed(flows.to_vec())))
    }

    #[test]
    fn degenerate_parameters_are_build_errors_not_worker_panics() {
        let line = || {
            Scenario::named("degenerate")
                .topology(TopologySpec::Line {
                    hops: 2,
                    p_adj: 0.9,
                    skip_decay: 0.3,
                    spacing: 25.0,
                })
                .pair(NodeId(0), NodeId(2))
                .protocols(["MORE", "ExOR"])
                .packets(8)
                .deadline(60)
        };
        // An empty transfer (the agents assert), K = 0 (`div_ceil(0)` on
        // the batch count), and µs products past `u64::MAX`.
        let past_the_clock = u64::MAX / SEC + 1;
        // Matched bursty air with no stationary mix to match: `(0, 0)`,
        // an absorbing bad state, NaN rates (`good_scale` is not finite).
        let matched = |to_bad, to_good| ChannelSpec::bursty_matched(0.0, to_bad, to_good, 10);
        for builder in [
            line().packets(0),
            line().k(0),
            line().sweep(Sweep::K(vec![8, 0])),
            line().deadline(past_the_clock),
            line()
                .traffic_model(schedule(&[(0, 2, 0, None), (0, 2, SEC, None)]))
                .deadline(past_the_clock),
            line().channel(matched(0.0, 0.0)),
            line().channel(matched(0.05, 0.0)),
            line().channel(matched(f64::NAN, 0.25)),
            line().channel(matched(0.05, f64::NAN)),
        ] {
            let err = builder.try_run().expect_err("degenerate parameter");
            assert!(matches!(err, BuildError::Unsupported(_)), "{err}");
        }
        // An arrival at the end of the µs clock lies past any deadline.
        let err = line()
            .traffic_model(schedule(&[(0, 2, 0, None), (0, 2, Time::MAX, None)]))
            .try_run()
            .expect_err("an arrival past the deadline");
        assert!(matches!(err, BuildError::InvalidSchedule(_)), "{err}");
        // `(0, b)` is a chain that is never bad: it runs.
        let records = line().channel(matched(0.0, 0.25)).try_run().expect("valid");
        assert_eq!(records.len(), 2);
        // Probe windows without a probe (the estimator asserts), with a
        // threshold that is not a probability (NaN drops every link and
        // reads as "unreachable"), and whose last probe is past the clock
        // (the instants wrap).
        let estimator = |probes, min_delivery| LinkEstimator {
            probes,
            min_delivery,
        };
        let bursty = ChannelSpec::bursty_matched(0.0, 0.05, 0.25, 10);
        for (probe, interval_us) in [
            (estimator(0, 0.05), 1_000),
            (estimator(10, f64::NAN), 1_000),
            (estimator(10, f64::INFINITY), 1_000),
            (estimator(10, 1.5), 1_000),
            (estimator(10, -0.1), 1_000),
            (LinkEstimator::default(), u64::MAX / 4),
            (estimator(3, 0.05), u64::MAX / 2 + 1),
        ] {
            for channel in [ChannelSpec::Static, bursty.clone()] {
                let err = line()
                    .channel(channel)
                    .probe_routing(probe, interval_us)
                    .try_run()
                    .expect_err("degenerate probe window");
                match err {
                    BuildError::Unsupported(msg) => assert!(msg.contains("probe"), "{msg}"),
                    other => panic!("expected Unsupported, got {other:?}"),
                }
            }
        }
        // One probe at instant 0 is a window, however long its interval,
        // and so is a last probe at the end of the clock — under bursty
        // air too, where a probe costs its links, not the epochs since
        // the last one (≈ 1.8·10¹⁵ here).
        for (probe, interval_us) in [(estimator(1, 0.0), u64::MAX), (estimator(2, 0.0), u64::MAX)] {
            for channel in [ChannelSpec::Static, bursty.clone()] {
                let records = line()
                    .channel(channel)
                    .probe_routing(probe, interval_us)
                    .try_run()
                    .expect("valid");
                assert_eq!(records.len(), 2);
            }
        }
        // A departure past `u64::MAX` µs (a lifetime that saturates the
        // clock) lies beyond any horizon: the flows run and never depart.
        let immortal = TrafficModelSpec::Poisson(PoissonModel {
            rate_per_s: 1.0,
            mean_hold_s: 1e300,
            max_active: 2,
        });
        let records = line().traffic_model(immortal).try_run().expect("valid");
        for r in &records {
            assert!(!r.flows.is_empty(), "{r:?}");
            assert!(r.flows.iter().all(|f| f.stopped_at_s.is_none()), "{r:?}");
        }
    }

    #[test]
    fn swept_parameter_is_validated_instead_of_the_base_placeholder() {
        // The base n_flows (0, which no run could host) never runs —
        // Sweep::Flows replaces it per point — so only the swept values
        // may be validated.
        let records = random_concurrent(0, true)
            .sweep(Sweep::Flows(vec![1, 2]))
            .run();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].flows.len(), 2);
        // And an invalid *swept* value is still rejected up front.
        let err = random_concurrent(1, true)
            .sweep(Sweep::Flows(vec![1, 0]))
            .try_run()
            .expect_err("a swept point of zero flows");
        assert!(matches!(err, BuildError::Unsupported(_)), "{err}");
    }

    /// `n_flows` concurrent random flows on the 20-node testbed.
    fn random_concurrent(n_flows: usize, distinct_sources: bool) -> ScenarioBuilder {
        Scenario::named("too-many-flows")
            .testbed(1)
            .traffic(TrafficSpec::RandomConcurrent {
                n_flows,
                seed_offset: 0,
                distinct_sources,
            })
            .protocol("Srcr")
            .packets(8)
    }

    #[test]
    fn infeasible_random_concurrent_is_an_error_not_a_worker_panic() {
        // 20 nodes cannot source 30 distinct-source flows.
        // Nor 500 flows out of at most 20 x 19 ordered pairs, and the
        // flow-set expansion cannot stop at a count of zero.
        for (n_flows, distinct_sources) in [(30, true), (500, false), (0, true)] {
            let err = random_concurrent(n_flows, distinct_sources)
                .try_run()
                .expect_err("infeasible flow count");
            assert!(matches!(err, BuildError::Unsupported(_)), "{err}");
        }
    }

    #[test]
    fn oversized_flows_sweep_point_is_an_error_not_a_worker_panic() {
        // Point 0 can be hosted, point 1 cannot. On one worker, point 0's
        // cell used to be sunk and checkpointed before point 1 failed.
        let dir = std::env::temp_dir().join(format!("more_oversized_{}", std::process::id()));
        let dir = dir.to_str().expect("a UTF-8 temp dir").to_string();
        let mut sink = Collect::new();
        let err = random_concurrent(1, true)
            .sweep(Sweep::Flows(vec![2, 30]))
            .threads(1)
            .checkpoint(dir.as_str())
            .try_run_with_sink(&mut sink)
            .expect_err("the second sweep point cannot be hosted");
        assert!(matches!(err, BuildError::Unsupported(_)), "{err}");
        assert!(sink.into_records().is_empty(), "nothing may be sunk");
        let manifest = Manifest::load(&Manifest::path_for(&dir, "too-many-flows"));
        let _ = std::fs::remove_dir_all(&dir);
        let cells = manifest
            .expect("a readable manifest, if any")
            .map(|m| m.cells);
        assert!(
            cells.unwrap_or_default().is_empty(),
            "no cell was checkpointed"
        );
    }

    #[test]
    fn pending_departure_does_not_inflate_run_time() {
        // The flow finishes its budget in well under a second; the
        // scheduled 60 s departure must not keep the run alive (a Stop
        // cannot un-resolve a flow) nor be reported as a departure.
        let records = Scenario::named("early-finish")
            .topology(TopologySpec::Line {
                hops: 2,
                p_adj: 0.9,
                skip_decay: 0.3,
                spacing: 25.0,
            })
            .traffic_model(schedule(&[(0, 2, 0, Some(60 * SEC))]))
            .protocol("MORE")
            .packets(16)
            .deadline(120)
            .run();
        let r = &records[0];
        assert!(r.all_completed(), "{r:?}");
        assert!(
            r.sim_time_s < 5.0,
            "run lingered until the moot departure: {r:?}"
        );
        assert_eq!(r.flows[0].stopped_at_s, None, "completed before the stop");
        assert!(r.flows[0].latency_s.is_some());
    }

    #[test]
    fn scheduled_departures_cut_flows_short() {
        let ms = mesh_sim::MS;
        let records = Scenario::named("departures")
            .testbed(1)
            .traffic_model(schedule(&[
                (0, 19, 0, Some(1_000 * ms)),
                (5, 12, 500 * ms, Some(1_500 * ms)),
            ]))
            .protocol("Srcr")
            .packets(100_000) // far more than 1 s can carry
            .deadline(30)
            .run();
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.flows.len(), 2);
        for (i, f) in r.flows.iter().enumerate() {
            let start = i as f64 * 0.5;
            assert_eq!(f.started_at_s, Some(start));
            assert_eq!(f.stopped_at_s, Some(start + 1.0));
            assert!(!f.completed, "a truncated flow cannot complete");
            assert!(f.delivered > 0, "flow {i} moved nothing while active");
            assert_eq!(f.latency_s, None);
        }
        // end_flow really halts the flows: the run ends at the last
        // departure, not at the 30 s deadline.
        assert!(r.sim_time_s < 5.0, "halted flows kept the run alive: {r:?}");
    }

    #[test]
    fn registering_over_a_selected_name_does_not_duplicate_runs() {
        use crate::protocols::MoreFactory;
        let records = Scenario::named("override")
            .topology(TopologySpec::Line {
                hops: 2,
                p_adj: 0.9,
                skip_decay: 0.3,
                spacing: 25.0,
            })
            .pair(NodeId(0), NodeId(2))
            .protocols(["MORE", "Srcr"])
            .register(MoreFactory::named("MORE", more_core::MoreConfig::default()))
            .packets(8)
            .deadline(60)
            .run();
        assert_eq!(records.len(), 2, "override must not double-run MORE");
    }

    #[test]
    fn channel_sweep_labels_every_record() {
        let ge = ChannelSpec::bursty_matched(0.0, 0.05, 0.2, 10);
        let records = Scenario::named("air")
            .topology(TopologySpec::Line {
                hops: 2,
                p_adj: 0.9,
                skip_decay: 0.3,
                spacing: 25.0,
            })
            .pair(NodeId(0), NodeId(2))
            .protocols(["MORE", "Srcr"])
            .sweep(Sweep::Channel(vec![ChannelSpec::Static, ge.clone()]))
            .seeds(1..=2)
            .packets(8)
            .deadline(60)
            .run();
        assert_eq!(records.len(), 2 * 2 * 2);
        assert!(records.iter().all(|r| r.param == Some("channel")));
        // Sweep value is the point index; the label names the model.
        assert!(records
            .iter()
            .any(|r| r.value == Some(0.0) && r.channel == "static"));
        assert!(records
            .iter()
            .any(|r| r.value == Some(1.0) && r.channel == ge.label()));
    }

    #[test]
    fn bad_channel_sweep_point_fails_before_any_record_is_sunk() {
        // Point 0 is fine; point 1 has a zero epoch. On one worker, point
        // 0's cell used to be sunk (and checkpointed) before point 1 failed.
        let bad = ChannelSpec::GilbertElliott(mesh_sim::channel::GilbertElliott {
            good_scale: 1.0,
            bad_scale: 0.0,
            to_bad: 0.05,
            to_good: 0.2,
            epoch_ms: 0,
        });
        let mut sink = Collect::new();
        let err = Scenario::named("bad-channel-point")
            .topology(TopologySpec::Line {
                hops: 1,
                p_adj: 0.9,
                skip_decay: 0.0,
                spacing: 20.0,
            })
            .pair(NodeId(0), NodeId(1))
            .protocol("Srcr")
            .sweep(Sweep::Channel(vec![ChannelSpec::Static, bad]))
            .packets(4)
            .threads(1)
            .try_run_with_sink(&mut sink)
            .expect_err("a zero epoch is invalid");
        assert!(matches!(err, BuildError::Unsupported(_)), "{err:?}");
        assert!(sink.into_records().is_empty(), "nothing may be sunk");
    }

    /// Srcr over one hop of line, 4 packets.
    fn one_hop() -> ScenarioBuilder {
        Scenario::named("one-hop")
            .topology(TopologySpec::Line {
                hops: 1,
                p_adj: 0.9,
                skip_decay: 0.0,
                spacing: 20.0,
            })
            .pair(NodeId(0), NodeId(1))
            .protocol("Srcr")
            .packets(4)
            .deadline(60)
    }

    #[test]
    fn congestion_needs_a_bounded_queue_at_a_point_that_runs() {
        // The bounded base queue never runs: the sweep replaces it with
        // unbounded points only, so no run would ever be paced.
        let err = one_hop()
            .queue(QueueSpec::drop_tail(8))
            .sweep(Sweep::Queue(vec![QueueSpec::Unbounded]))
            .congestion(AimdConfig::default())
            .try_run()
            .expect_err("no point that runs is bounded");
        assert!(matches!(err, BuildError::InvalidQueue(_)), "{err}");
        // One bounded point is enough; the unbounded one runs unpaced.
        let records = one_hop()
            .sweep(Sweep::Queue(vec![
                QueueSpec::Unbounded,
                QueueSpec::drop_tail(8),
            ]))
            .congestion(AimdConfig::default())
            .try_run()
            .expect("a bounded point paces");
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn an_empty_sweep_is_an_error() {
        let err = one_hop()
            .sweep(Sweep::K(vec![]))
            .try_run()
            .expect_err("no point to run");
        assert!(matches!(err, BuildError::Unsupported(_)), "{err}");
        // Not blamed on the bounded base queue, which no point runs.
        let err = one_hop()
            .queue(QueueSpec::drop_tail(8))
            .sweep(Sweep::Queue(vec![]))
            .congestion(AimdConfig::default())
            .try_run()
            .expect_err("no point to run");
        assert!(matches!(err, BuildError::Unsupported(_)), "{err}");
    }

    #[test]
    fn a_swept_base_channel_or_queue_is_a_placeholder_never_validated() {
        let zero_epoch = ChannelSpec::GilbertElliott(mesh_sim::channel::GilbertElliott {
            good_scale: 1.0,
            bad_scale: 0.0,
            to_bad: 0.05,
            to_good: 0.2,
            epoch_ms: 0,
        });
        let no_room = QueueSpec::DropTail { capacity: 0 };
        // Unswept, each is an error ...
        let err = one_hop().channel(zero_epoch.clone()).try_run();
        assert!(matches!(err, Err(BuildError::Unsupported(_))), "{err:?}");
        let err = one_hop().queue(no_room.clone()).try_run();
        assert!(matches!(err, Err(BuildError::InvalidQueue(_))), "{err:?}");
        // ... but a sweep over the same axis replaces it at every point.
        let records = one_hop()
            .channel(zero_epoch)
            .sweep(Sweep::Channel(vec![ChannelSpec::Static]))
            .try_run()
            .expect("the base channel never runs");
        assert_eq!(records[0].channel, "static");
        let records = one_hop()
            .queue(no_room)
            .sweep(Sweep::Queue(vec![QueueSpec::drop_tail(8)]))
            .try_run()
            .expect("the base queue never runs");
        assert_eq!(records[0].queue, "droptail(cap=8)");
    }

    #[test]
    fn probed_routing_runs_on_believed_links() {
        // Probing a bursty channel still completes the transfer: routing
        // acts on window-mean beliefs while the air keeps flapping.
        let records = Scenario::named("probed")
            .topology(TopologySpec::Line {
                hops: 2,
                p_adj: 0.9,
                skip_decay: 0.3,
                spacing: 25.0,
            })
            .pair(NodeId(0), NodeId(2))
            .protocol("MORE")
            .channel(ChannelSpec::bursty_matched(0.2, 0.05, 0.3, 10))
            .probe_routing(
                LinkEstimator {
                    probes: 300,
                    min_delivery: 0.05,
                },
                1_000,
            )
            .packets(8)
            .deadline(120)
            .run();
        assert_eq!(records.len(), 1);
        assert!(records[0].all_completed(), "{records:?}");
    }

    #[test]
    fn grid_shape_is_protocols_by_sweep_by_seeds() {
        let records = Scenario::named("grid")
            .topology(TopologySpec::Line {
                hops: 2,
                p_adj: 0.9,
                skip_decay: 0.3,
                spacing: 25.0,
            })
            .pair(NodeId(0), NodeId(2))
            .protocols(["MORE", "Srcr"])
            .sweep(Sweep::K(vec![8, 16]))
            .seeds(1..=3)
            .packets(16)
            .deadline(60)
            .run();
        assert_eq!(records.len(), 2 * 2 * 3);
        // Each record carries its sweep coordinate.
        assert!(records.iter().all(|r| r.param == Some("k")));
        assert!(records
            .iter()
            .any(|r| r.protocol == "Srcr" && r.value == Some(16.0) && r.seed == 2));
    }

    /// Two disconnected 2-cliques.
    fn split_topology() -> Topology {
        topo(
            "split",
            4,
            &[(0, 1, 0.9), (1, 0, 0.9), (2, 3, 0.9), (3, 2, 0.9)],
        )
    }

    #[test]
    fn unreachable_pair_is_a_build_error_not_a_panic() {
        let err = Scenario::named("partitioned")
            .topology(TopologySpec::Fixed(std::sync::Arc::new(split_topology())))
            .pair(NodeId(0), NodeId(3))
            .protocol("Srcr")
            .packets(4)
            .try_run()
            .expect_err("a cross-partition pair must surface as a BuildError");
        match err {
            BuildError::Unsupported(msg) => assert!(msg.contains("unreachable"), "{msg}"),
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn single_node_self_flow_is_a_build_error_not_a_panic() {
        let lone = topo("lone", 1, &[]);
        let err = Scenario::named("lone")
            .topology(TopologySpec::Fixed(std::sync::Arc::new(lone)))
            .pair(NodeId(0), NodeId(0))
            .protocol("MORE")
            .packets(4)
            .try_run()
            .expect_err("a single-node mesh cannot host a flow");
        match err {
            BuildError::Unsupported(msg) => assert!(msg.contains("own source"), "{msg}"),
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn empty_topology_is_a_build_error_not_a_panic() {
        /// Srcr, counting the agents it builds.
        struct Counting(Arc<AtomicUsize>);
        impl ProtocolFactory for Counting {
            fn name(&self) -> &str {
                "Counting"
            }
            fn build(
                &self,
                topo: &Topology,
                flows: &[FlowSpec],
                cfg: &ExpConfig,
            ) -> Result<Box<dyn mesh_sim::ErasedFlowAgent>, BuildError> {
                self.0.fetch_add(1, Ordering::Relaxed);
                crate::SrcrFactory::fixed_rate().build(topo, flows, cfg)
            }
        }
        let built = Arc::new(AtomicUsize::new(0));
        let none = topo("none", 0, &[]);
        let mut sink = Collect::new();
        let err = Scenario::named("empty")
            .topology(TopologySpec::Fixed(Arc::new(none)))
            .pair(NodeId(0), NodeId(1))
            .register(Counting(Arc::clone(&built)))
            .seeds(1..=3)
            .packets(4)
            .try_run_with_sink(&mut sink)
            .expect_err("an empty mesh must be rejected up front");
        assert_eq!(
            err.to_string(),
            "unsupported scenario: topology none has no nodes; nothing can be \
             scheduled or routed"
        );
        assert_eq!(built.load(Ordering::Relaxed), 0, "no cell ran");
        assert!(sink.into_records().is_empty(), "nothing was sunk");
    }

    fn multicast_error(dsts: Vec<NodeId>) -> String {
        let err = Scenario::named("bad-dsts")
            .testbed(1)
            .traffic(TrafficSpec::Multicast {
                src: NodeId(0),
                dsts,
            })
            .protocol("MORE")
            .packets(4)
            .try_run()
            .expect_err("a degenerate destination list must be rejected");
        match err {
            BuildError::Unsupported(msg) => msg,
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn empty_destination_list_is_a_build_error_not_a_panic() {
        let msg = multicast_error(Vec::new());
        assert!(msg.contains("no destination"), "{msg}");
    }

    #[test]
    fn duplicate_destination_is_a_build_error_not_a_stall() {
        let msg = multicast_error(vec![NodeId(5), NodeId(5)]);
        assert!(msg.contains("twice"), "{msg}");
    }

    #[test]
    fn out_of_range_endpoint_is_a_build_error_not_a_panic() {
        let err = Scenario::named("oob")
            .topology(TopologySpec::Line {
                hops: 2,
                p_adj: 0.9,
                skip_decay: 0.3,
                spacing: 25.0,
            })
            .pair(NodeId(0), NodeId(9))
            .protocol("Srcr")
            .packets(4)
            .try_run()
            .expect_err("an endpoint past n must be rejected");
        match err {
            BuildError::Unsupported(msg) => assert!(msg.contains("outside topology"), "{msg}"),
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }
}
