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
//! executed on a worker pool ([`crate::exec::par_map`]) because runs are
//! independent by construction.

// xtask: allow(panic_path, file) -- run()/run_with_sink() panic on configuration errors as their documented contract (the try_* forms are the fallible API); sweep-grid indices are bounded by the arity computed in the same function.

use crate::exec;
use crate::manifest::{cell_key, Manifest};
use crate::pairs::symmetric_components;
use crate::protocols::reject_multicast;
use crate::record::{time_to_s, FlowRecord, RunRecord};
use crate::registry::{BuildError, ProtocolRegistry};
use crate::sink::{Collect, RunSink};
use crate::spec::{
    scale_loss, swept_traffic, ExpConfig, FlowSpec, Sweep, TopologySpec, TrafficSpec,
};
use crate::traffic::{flow_windows, validate_schedule, FlowWindow, TrafficModelSpec};
use mesh_sim::{
    AimdConfig, Bitrate, ChannelSpec, ErasedFlowAgent, FlowAgent, QueueSpec, SimConfig, Simulator,
    TrafficAction, SEC, TICK,
};
use mesh_topology::estimator::LinkEstimator;
use mesh_topology::{NodeId, Topology};
use std::collections::BTreeMap;
use std::ops::ControlFlow;

/// A progress callback as stored by [`ScenarioBuilder::on_run_complete`].
pub type ProgressFn = Box<dyn FnMut(&RunRecord, Progress) + Send + Sync>;

/// Progress snapshot handed to [`ScenarioBuilder::on_run_complete`] as
/// each record is emitted (in deterministic grid order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Progress {
    /// Records emitted to the sink so far (this process; resumed cells
    /// skipped from a manifest are not re-emitted).
    pub records: usize,
    /// Grid cells fully completed, including cells skipped on resume.
    pub cells_done: usize,
    /// Total grid cells of the sweep.
    pub cells_total: usize,
}

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
    sim: SimConfig,
    channel: ChannelSpec,
    queue: QueueSpec,
    congestion: Option<AimdConfig>,
    probe: Option<(LinkEstimator, u64)>,
    threads: Option<usize>,
    registry: ProtocolRegistry,
    on_complete: Option<ProgressFn>,
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
            sim: SimConfig::default(),
            channel: ChannelSpec::Static,
            queue: QueueSpec::Unbounded,
            congestion: None,
            probe: None,
            threads: None,
            registry: ProtocolRegistry::with_defaults(),
            on_complete: None,
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
    /// use more_scenario::{Scenario, TopologySpec, TrafficModelSpec};
    ///
    /// let records = Scenario::named("ramp-doc")
    ///     .topology(TopologySpec::Line {
    ///         hops: 2,
    ///         p_adj: 0.9,
    ///         skip_decay: 0.3,
    ///         spacing: 25.0,
    ///     })
    ///     .traffic_model(TrafficModelSpec::Staggered {
    ///         n_flows: 2,
    ///         gap_ms: 1_000,
    ///         hold_ms: None,
    ///     })
    ///     .protocol("MORE")
    ///     .packets(8)
    ///     .deadline(60)
    ///     .run();
    /// assert_eq!(records[0].flows.len(), 2);
    /// // The second flow of the ramp arrived one second in.
    /// assert_eq!(records[0].flows[1].started_at_s, Some(1.0));
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

    /// Overrides MAC/PHY parameters.
    pub fn sim_config(mut self, cfg: SimConfig) -> Self {
        self.sim = cfg;
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
    /// (default: [`QueueSpec::Unbounded`], the pull-on-demand engine).
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
    /// queue drops one of the flow's frames. Requires a bounded
    /// [`ScenarioBuilder::queue`] — the pacer reacts to queue losses, and
    /// the unbounded legacy path has none. At `Sweep::Queue` points that
    /// are unbounded, pacing is skipped for that point.
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

    /// Registers a progress callback invoked once per emitted record, in
    /// deterministic grid order, with a [`Progress`] snapshot — the hook
    /// long sweeps use for live status lines.
    pub fn on_run_complete(
        mut self,
        cb: impl FnMut(&RunRecord, Progress) + Send + Sync + 'static,
    ) -> Self {
        self.on_complete = Some(Box::new(cb));
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

    /// Checks that the declared sweep can be applied to the declared
    /// traffic model and that the model's parameters (at every sweep
    /// point) are valid, so mismatches fail at build time — before any
    /// worker thread spawns — like channel-spec validation does.
    fn validate_sweep_traffic(&self) -> Result<(), BuildError> {
        let deadline_s = self.base.deadline_s;
        match &self.sweep {
            // Only the substituted configurations run, so only they are
            // validated: the swept parameter's base value is a placeholder
            // (e.g. an n_flows too large for the deadline).
            Some(sweep @ (Sweep::Flows(_) | Sweep::Load(_))) => {
                for i in 0..sweep.len() {
                    swept_traffic(sweep, i, &self.traffic)?
                        .validate(deadline_s)
                        .map_err(BuildError::Unsupported)?;
                }
                Ok(())
            }
            _ => self
                .traffic
                .validate(deadline_s)
                .map_err(BuildError::Unsupported),
        }
    }

    /// Checks the queue discipline and congestion-control parameters (at
    /// every sweep point) so bad configurations fail at build time, like
    /// channel-spec and traffic validation do.
    fn validate_queue(&self) -> Result<(), BuildError> {
        self.queue.validate().map_err(BuildError::InvalidQueue)?;
        if let Some(Sweep::Queue(points)) = &self.sweep {
            for spec in points {
                spec.validate().map_err(BuildError::InvalidQueue)?;
            }
        }
        if let Some(cc) = &self.congestion {
            cc.validate().map_err(BuildError::InvalidQueue)?;
            // The pacer is keyed to queue losses; a grid with no bounded
            // queue anywhere would silently never pace.
            let any_bounded = !self.queue.is_unbounded()
                || matches!(&self.sweep, Some(Sweep::Queue(points))
                    if points.iter().any(|q| !q.is_unbounded()));
            if !any_bounded {
                return Err(BuildError::InvalidQueue(
                    "congestion control requires a bounded queue discipline \
                     (set ScenarioBuilder::queue or sweep Sweep::Queue with a \
                     bounded point); the unbounded legacy path has no queue \
                     losses to react to"
                        .to_string(),
                ));
            }
        }
        Ok(())
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
    pub fn try_run_with_sink(mut self, sink: &mut dyn RunSink) -> Result<RunSummary, BuildError> {
        self.validate_sweep_traffic()?;
        self.validate_queue()?;
        let mut on_complete = self.on_complete.take();
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

        let sweep_points: Vec<Option<usize>> = match &self.sweep {
            None => vec![None],
            Some(s) => (0..s.len()).map(Some).collect(),
        };

        // Work grid: protocol × sweep × seed (flow sets expand inside the
        // worker because RandomConcurrent traffic depends on the seed).
        let mut grid = Vec::new();
        for (pi, _) in factories.iter().enumerate() {
            for &sp in &sweep_points {
                for &seed in &self.seeds {
                    grid.push((pi, sp, seed));
                }
            }
        }
        let keys: Vec<String> = grid
            .iter()
            .map(|&(pi, sp, seed)| cell_key(&protocols[pi], sp, seed))
            .collect();

        // Checkpoint/resume: load (or start) the manifest, trim the sink
        // files to their last durable offsets, and skip the completed
        // prefix of the grid. The fingerprint covers everything the cell
        // keys don't: resuming after changing packets, the swept values,
        // the channel, etc. must be rejected, not silently mixed into
        // one output file. (`Custom(..)` topologies/traffic fingerprint
        // opaquely — two different custom closures are indistinguishable
        // here.)
        let mut fingerprint = format!(
            "topo={:?} traffic={:?} sweep={:?} base={:?} sim={:?} channel={} probe={:?}",
            self.topology,
            self.traffic,
            self.sweep,
            self.base,
            self.sim,
            self.channel.label(),
            self.probe,
        );
        // Appended only when configured, so manifests written before the
        // queueing subsystem existed still resume.
        if !self.queue.is_unbounded() {
            fingerprint.push_str(&format!(" queue={}", self.queue.label()));
        }
        if let Some(cc) = &self.congestion {
            fingerprint.push_str(&format!(" cc={}", cc.label()));
        }
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
        let todo: Vec<(usize, Option<usize>, u64)> = grid[skipped..].to_vec();
        let cells_total = grid.len();

        let threads = self.threads.unwrap_or_else(exec::default_threads);
        let this = &self;
        let factories = &factories;
        let protocols_ref = &protocols;
        // Probed routing beliefs depend only on (sweep point, seed), never
        // on the protocol — share one probe window across the whole grid.
        let probe_cache: std::sync::Mutex<BTreeMap<(Option<usize>, u64), Topology>> =
            std::sync::Mutex::new(BTreeMap::new());
        let probe_cache = &probe_cache;

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
            |&(pi, sp, seed)| {
                this.run_cell(
                    &protocols_ref[pi],
                    factories[pi].as_ref(),
                    sp,
                    seed,
                    probe_cache,
                )
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
                        if let Some(cb) = on_complete.as_mut() {
                            cb(
                                r,
                                Progress {
                                    records: emitted,
                                    cells_done: skipped + next_emit,
                                    cells_total,
                                },
                            );
                        }
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

    /// Runs every flow set of one (protocol, sweep point, seed) cell.
    fn run_cell(
        &self,
        proto_name: &str,
        factory: &dyn crate::registry::ProtocolFactory,
        sweep_point: Option<usize>,
        seed: u64,
        probe_cache: &std::sync::Mutex<std::collections::BTreeMap<(Option<usize>, u64), Topology>>,
    ) -> Result<Vec<RunRecord>, BuildError> {
        // Apply the sweep point to the parameter block and topology.
        let mut cfg = ExpConfig { seed, ..self.base };
        let mut sim_cfg = self.sim;
        let mut topo = self.topology.instantiate(seed);
        if topo.n() == 0 {
            return Err(BuildError::Unsupported(format!(
                "topology {} has no nodes; nothing can be scheduled or routed",
                topo.name
            )));
        }
        let mut traffic = self.traffic.clone();
        let mut chan = self.channel.clone();
        let mut queue = self.queue.clone();
        let (param, value) = match (&self.sweep, sweep_point) {
            (Some(sweep), Some(i)) => {
                match sweep {
                    Sweep::Packets(v) => cfg.packets = v[i],
                    Sweep::K(v) => cfg.k = v[i],
                    Sweep::Bitrate(v) => cfg.bitrate = v[i],
                    Sweep::LossScale(v) => topo = scale_loss(&topo, v[i]),
                    Sweep::Channel(v) => chan = v[i].clone(),
                    Sweep::Queue(v) => queue = v[i].clone(),
                    Sweep::Flows(_) | Sweep::Load(_) => {
                        traffic = swept_traffic(sweep, i, &self.traffic)?;
                    }
                }
                (Some(sweep.label()), Some(sweep.value(i)))
            }
            _ => (None, None),
        };
        sim_cfg.bitrate = cfg.bitrate;
        chan.validate(&topo).map_err(BuildError::Unsupported)?;
        // Revalidated here — like the channel — for direct run_cell
        // callers that bypass try_run's up-front check.
        queue.validate().map_err(BuildError::InvalidQueue)?;

        // Routing beliefs: the truth matrix, or a probe-window estimate
        // of the live channel when `probe_routing` is set (deterministic
        // per (sweep point, seed), so protocols share one cached window;
        // a losing racer recomputes the identical topology).
        let believed = self.probe.as_ref().map(|(est, interval)| {
            let key = (sweep_point, seed);
            if let Some(t) = probe_cache.lock().expect("probe cache").get(&key) {
                return t.clone();
            }
            let t = mesh_sim::channel::probe_topology(est, &topo, &chan, seed, *interval);
            probe_cache
                .lock()
                .expect("probe cache")
                .entry(key)
                .or_insert(t)
                .clone()
        });
        let routing_topo = believed.as_ref().unwrap_or(&topo);

        let horizon = cfg.deadline_s * SEC;
        // Endpoint feasibility depends on the instantiated topology, so it
        // is checked here — like the channel spec — and surfaces as an
        // error from the grid instead of a worker panic.
        traffic
            .validate_for(&topo)
            .map_err(BuildError::Unsupported)?;
        let model = traffic.build();
        let schedules = model.schedules(&topo, seed, cfg.packets, horizon);
        let mut records = Vec::with_capacity(schedules.len());
        for (ti, schedule) in schedules.into_iter().enumerate() {
            // A misbehaving Custom model (Stop for an unknown flow, Stop
            // before its Start, events past the horizon) must surface as
            // a BuildError from the grid, not a panic inside a worker
            // thread; the built-ins satisfy this by construction.
            validate_schedule(&schedule, horizon).map_err(|e| {
                BuildError::InvalidSchedule(format!("traffic model {:?}: {e}", self.traffic))
            })?;
            let windows = flow_windows(&schedule);
            // Degenerate endpoints — out-of-range nodes, self-flows,
            // unreachable (src, dst) pairs on single-node or partitioned
            // meshes — must surface as grid errors, not ETX/EOTX panics
            // inside the factory.
            validate_endpoints(routing_topo, &windows)?;
            if !factory.supports_multicast() {
                reject_multicast(proto_name, windows.iter().map(|w| &w.spec))?;
            }
            // Flows arriving at t = 0 are installed by the factory before
            // the run, the rest by the simulator's traffic queue mid-run —
            // both through `FlowAgent::add_flow`.
            let initial: Vec<FlowSpec> = windows
                .iter()
                .filter(|w| w.start == 0)
                .map(|w| w.spec.clone())
                .collect();
            let agent = factory.build(routing_topo, &initial, &cfg)?;
            let dynamic = windows.iter().any(|w| w.start > 0 || w.stop.is_some());
            if dynamic && !agent.supports_dynamic_flows() {
                return Err(BuildError::Unsupported(format!(
                    "protocol {proto_name} does not implement the dynamic flow \
                     lifecycle (FlowAgent::add_flow/end_flow) required by \
                     traffic model {:?}",
                    self.traffic
                )));
            }
            let record = run_one(
                &self.name,
                proto_name,
                &topo,
                &windows,
                dynamic,
                &cfg,
                &sim_cfg,
                &chan,
                &queue,
                self.congestion,
                agent,
                param,
                value,
                ti,
            );
            records.push(record);
        }
        Ok(records)
    }
}

/// Rejects flows no protocol can route: empty or repeating destination
/// lists, endpoints outside the topology, self-flows, and (src, dst)
/// pairs with no `p > 0` path in the routing topology. ETX/EOTX table
/// and forwarder-plan extraction assume a finite-cost path; without this
/// check a degenerate single-node mesh, a partitioned city layout, or a
/// probe window that lost the last link to a destination panics deep
/// inside a worker thread instead of surfacing a [`BuildError`] from the
/// grid.
fn validate_endpoints(topo: &Topology, windows: &[FlowWindow]) -> Result<(), BuildError> {
    let n = topo.n();
    let reachable = reachable_destinations(topo, windows);
    for (w, reached) in windows.iter().zip(&reachable) {
        let f = &w.spec;
        if f.src.0 >= n {
            return Err(BuildError::Unsupported(format!(
                "flow source {} is outside topology {} ({n} nodes)",
                f.src, topo.name
            )));
        }
        if f.dsts.is_empty() {
            return Err(BuildError::Unsupported(format!(
                "flow from {} has no destination",
                f.src
            )));
        }
        for (i, (&d, &reached)) in f.dsts.iter().zip(reached).enumerate() {
            if f.dsts[..i].contains(&d) {
                return Err(BuildError::Unsupported(format!(
                    "flow {} -> {:?} lists destination {d} twice",
                    f.src, f.dsts
                )));
            }
            if d.0 >= n {
                return Err(BuildError::Unsupported(format!(
                    "flow destination {d} is outside topology {} ({n} nodes)",
                    topo.name
                )));
            }
            if d == f.src {
                return Err(BuildError::Unsupported(format!(
                    "flow {} -> {d} sends to its own source; routing metrics \
                     are undefined for self-flows",
                    f.src
                )));
            }
            if !reached {
                return Err(BuildError::Unsupported(format!(
                    "destination {d} is unreachable from source {} in topology \
                     {}; no p > 0 path exists for route extraction",
                    f.src, topo.name
                )));
            }
        }
    }
    Ok(())
}

/// Per window, per destination: does a `p > 0` path lead there from the
/// window's source? (Endpoints outside the topology reach nothing.)
///
/// Answered up front so that [`validate_endpoints`] can report in window
/// order while this holds O(n) state however many flows there are — a
/// 10k-node Poisson run has ~375 distinct sources and a hop vector is
/// 160 KB. Symmetric link support (every built-in generator)
/// needs one component labelling; otherwise the windows are visited
/// grouped by source, one BFS buffer alive at a time.
fn reachable_destinations(topo: &Topology, windows: &[FlowWindow]) -> Vec<Vec<bool>> {
    let mut reachable: Vec<Vec<bool>> = vec![Vec::new(); windows.len()];
    let mut pending: Vec<(&FlowSpec, &mut Vec<bool>)> = windows
        .iter()
        .map(|w| &w.spec)
        .zip(&mut reachable)
        .collect();
    if let Some((comp, _)) = symmetric_components(topo) {
        for (f, out) in pending {
            let src = comp.get(f.src.0);
            out.extend(f.dsts.iter().map(|d| src.is_some() && comp.get(d.0) == src));
        }
    } else {
        pending.sort_by_key(|(f, _)| f.src);
        let (mut bfs_src, mut hops) = (None, Vec::new());
        for (f, out) in pending {
            if f.src.0 >= topo.n() {
                continue;
            }
            if bfs_src != Some(f.src) {
                hops = topo.hops_from(f.src);
                bfs_src = Some(f.src);
            }
            out.extend(
                f.dsts
                    .iter()
                    .map(|d| hops.get(d.0).is_some_and(Option::is_some)),
            );
        }
    }
    reachable
}

/// Runs one flow schedule to completion (or deadline) and measures it.
///
/// Flows starting at t = 0 are pre-installed in `agent` and kicked, the
/// rest are injected through the simulator's traffic queue; per-flow
/// arrival/departure/latency is recorded for dynamic schedules (`None`
/// for static ones). A bounded `queue` installs the queueing
/// layer; `congestion` then paces every flow's source (flow ids are
/// `1..=windows.len()` in window order — the factory contract — and
/// dynamically arriving flows are auto-paced via the traffic hook).
#[allow(clippy::too_many_arguments)]
#[allow(clippy::borrowed_box)] // run's stop callback receives &A = &Box<dyn _>
fn run_one(
    scenario: &str,
    protocol: &str,
    topo: &Topology,
    windows: &[FlowWindow],
    dynamic: bool,
    cfg: &ExpConfig,
    sim_cfg: &SimConfig,
    chan: &ChannelSpec,
    queue: &QueueSpec,
    congestion: Option<AimdConfig>,
    agent: Box<dyn ErasedFlowAgent>,
    param: Option<&'static str>,
    value: Option<f64>,
    traffic_index: usize,
) -> RunRecord {
    let deadline = cfg.deadline_s * SEC;
    let mut sim = Simulator::with_queue(topo.clone(), *sim_cfg, chan, queue, agent, cfg.seed);
    if let Some(cc) = congestion.filter(|_| !queue.is_unbounded()) {
        for (i, w) in windows.iter().enumerate() {
            if w.start == 0 {
                sim.pace_flow(i as u32 + 1, w.spec.src, cc);
            }
        }
        // Flows the traffic model injects mid-run are paced as they
        // arrive.
        sim.pace_all_flows(cc);
    }
    for (i, w) in windows.iter().enumerate() {
        if w.start == 0 {
            sim.kick(w.spec.src);
        } else {
            sim.schedule_traffic(w.start, TrafficAction::Start(w.spec.clone()));
        }
        if let Some(stop) = w.stop {
            sim.schedule_traffic(stop, TrafficAction::Stop(i));
        }
    }
    sim.run_with_traffic(deadline, |a: &Box<dyn ErasedFlowAgent>| a.flows_done());

    let concurrency = {
        let total = sim.stats.total_airtime();
        if total == 0 {
            0.0
        } else {
            sim.stats.concurrent_airtime as f64 / total as f64
        }
    };
    let flow_records = windows
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let p = sim.agent.flow_progress(i);
            let start = w.start;
            let (throughput_pps, completed) = match p.completed_at {
                Some(t) if t > start => (p.delivered as f64 / time_to_s(t - start), true),
                _ => {
                    // Ran until departure or deadline without finishing.
                    // A zero-width active window — a Poisson arrival at
                    // the horizon edge, or a departure at the arrival
                    // instant — must report 0.0 (the flow was never
                    // active): a 0-width division would emit a
                    // non-finite value that poisons NaN-intolerant
                    // downstream stats. The TICK clamp is redundant
                    // while `Time` is integer µs (end > start implies
                    // ≥ 1 tick) — it pins the invariant against a
                    // finer-grained Time ever landing.
                    let end = w.stop.unwrap_or(deadline).min(deadline);
                    let tput = if end <= start {
                        0.0
                    } else {
                        p.delivered as f64 / time_to_s((end - start).max(TICK))
                    };
                    (tput, false)
                }
            };
            FlowRecord {
                src: w.spec.src,
                dsts: w.spec.dsts.clone(),
                delivered: p.delivered,
                throughput_pps,
                queue_drops: sim
                    .stats
                    .queue_drops_by_flow
                    .get(&(i as u32 + 1))
                    .copied()
                    .unwrap_or(0),
                completed,
                completed_at_s: p.completed_at.map(time_to_s),
                started_at_s: dynamic.then(|| time_to_s(start)),
                // A departure only counts if the flow had not already
                // completed its budget when it fired.
                stopped_at_s: w
                    .stop
                    .filter(|&s| p.completed_at.is_none_or(|t| t > s))
                    .map(time_to_s),
                latency_s: if dynamic {
                    p.completed_at
                        .filter(|&t| t > start)
                        .map(|t| time_to_s(t - start))
                } else {
                    None
                },
            }
        })
        .collect::<Vec<FlowRecord>>();
    let throughputs: Vec<f64> = flow_records.iter().map(|f| f.throughput_pps).collect();
    RunRecord {
        scenario: scenario.to_string(),
        protocol: protocol.to_string(),
        topology: topo.name.clone(),
        channel: chan.label(),
        queue: queue.label(),
        param,
        value,
        seed: cfg.seed,
        traffic_index,
        flows: flow_records,
        total_tx: sim.stats.total_tx(),
        queue_drops: sim.stats.total_queue_drops(),
        fairness: mesh_metrics::fairness::jain(&throughputs),
        concurrency,
        sim_time_s: time_to_s(sim.now()),
    }
}

#[cfg(test)]
mod test {
    use super::*;

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
            .traffic_model(TrafficModelSpec::Poisson {
                rate_per_s: 0.1,
                mean_hold_s: 20.0,
                max_active: 2,
            })
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
        let poisson = |rate| TrafficModelSpec::Poisson {
            rate_per_s: rate,
            mean_hold_s: 10.0,
            max_active: 2,
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
        // A ramp wanting more distinct sources than the topology has must
        // error from the grid, not panic inside a worker thread.
        let infeasible = Scenario::named("bad-sources")
            .testbed(1)
            .traffic_model(TrafficModelSpec::Staggered {
                n_flows: 25, // testbed has 20 nodes
                gap_ms: 10,
                hold_ms: None,
            })
            .protocol("MORE")
            .packets(8)
            .try_run()
            .expect_err("25 distinct sources on a 20-node mesh");
        assert!(matches!(infeasible, BuildError::Unsupported(_)));
        // A staggered ramp reaching past the deadline would silently drop
        // its tail; reject it instead.
        let ramp = Scenario::named("bad-ramp")
            .traffic_model(TrafficModelSpec::Staggered {
                n_flows: 10,
                gap_ms: 20_000,
                hold_ms: None,
            })
            .protocol("MORE")
            .packets(8)
            .deadline(60)
            .try_run()
            .expect_err("ramp exceeds the deadline");
        assert!(matches!(ramp, BuildError::Unsupported(_)));
    }

    #[test]
    fn swept_parameter_is_validated_instead_of_the_base_placeholder() {
        // The base n_flows (64, whose ramp would blow past the deadline)
        // never runs — Sweep::Flows replaces it per point — so only the
        // swept values may be validated.
        let records = Scenario::named("swept-ramp")
            .testbed(1)
            .traffic_model(TrafficModelSpec::Staggered {
                n_flows: 64,
                gap_ms: 10_000,
                hold_ms: None,
            })
            .protocol("Srcr")
            .sweep(Sweep::Flows(vec![1, 2]))
            .packets(8)
            .deadline(120)
            .run();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].flows.len(), 2);
        // And an invalid *swept* value is still rejected up front.
        let err = Scenario::named("swept-ramp-bad")
            .testbed(1)
            .traffic_model(TrafficModelSpec::Staggered {
                n_flows: 2,
                gap_ms: 10_000,
                hold_ms: None,
            })
            .protocol("Srcr")
            .sweep(Sweep::Flows(vec![1, 64]))
            .packets(8)
            .deadline(120)
            .try_run()
            .expect_err("swept ramp exceeds the deadline");
        assert!(matches!(err, BuildError::Unsupported(_)));
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
        let err = random_concurrent(1, true)
            .sweep(Sweep::Flows(vec![2, 30]))
            .try_run()
            .expect_err("the second sweep point cannot be hosted");
        assert!(matches!(err, BuildError::Unsupported(_)), "{err}");
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
            .traffic_model(TrafficModelSpec::Staggered {
                n_flows: 1,
                gap_ms: 0,
                hold_ms: Some(60_000),
            })
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
    fn staggered_departures_cut_flows_short() {
        let records = Scenario::named("ramp")
            .testbed(1)
            .traffic_model(TrafficModelSpec::Staggered {
                n_flows: 2,
                gap_ms: 500,
                hold_ms: Some(1_000),
            })
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
    fn shadowing_without_positions_is_an_error_not_a_panic() {
        let bare = Topology::from_matrix(
            "bare",
            vec![
                vec![0.0, 0.9, 0.0],
                vec![0.9, 0.0, 0.9],
                vec![0.0, 0.9, 0.0],
            ],
        );
        let err = Scenario::named("no-positions")
            .topology(TopologySpec::Fixed(std::sync::Arc::new(bare)))
            .pair(NodeId(0), NodeId(2))
            .protocol("Srcr")
            .channel(ChannelSpec::Shadowing {
                path_loss_exp: 3.0,
                sigma_db: 6.0,
                midpoint_m: 35.0,
                epoch_ms: 100,
            })
            .packets(4)
            .try_run()
            .expect_err("shadowing needs positions");
        assert!(matches!(err, BuildError::Unsupported(_)));
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
        let mut m = vec![vec![0.0; 4]; 4];
        m[0][1] = 0.9;
        m[1][0] = 0.9;
        m[2][3] = 0.9;
        m[3][2] = 0.9;
        Topology::from_matrix("split", m)
    }

    #[test]
    fn endpoint_errors_come_in_window_order_whatever_the_link_symmetry() {
        // The reachability pass visits windows grouped by source (or not
        // at all, under symmetric support); the error reported must still
        // be the earliest window's, and within it the earliest check's.
        let one_way = {
            // 0 -> 1 -> 2 -> 3, no way back.
            let mut m = vec![vec![0.0; 4]; 4];
            m[0][1] = 0.9;
            m[1][2] = 0.9;
            m[2][3] = 0.9;
            Topology::from_matrix("one-way", m)
        };
        let window = |src: usize, dsts: &[usize]| FlowWindow {
            spec: FlowSpec {
                src: NodeId(src),
                dsts: dsts.iter().map(|&d| NodeId(d)).collect(),
                packets: 4,
            },
            start: 0,
            stop: None,
        };
        let first_error =
            |topo: &Topology, windows: &[FlowWindow]| match validate_endpoints(topo, windows) {
                Err(BuildError::Unsupported(msg)) => msg,
                other => panic!("expected Unsupported, got {other:?}"),
            };
        // Against one BFS per window, the plain reading of the contract.
        let reference = |topo: &Topology, windows: &[FlowWindow]| {
            windows.iter().all(|w| {
                w.spec.src.0 < topo.n()
                    && w.spec.dsts.iter().all(|d| {
                        let hops = topo.hops_from(w.spec.src);
                        *d != w.spec.src && hops.get(d.0).is_some_and(Option::is_some)
                    })
            })
        };
        for topo in [&one_way, &split_topology()] {
            for src in 0..4 {
                for dst in 0..4 {
                    let w = [window(2, &[3]), window(src, &[dst]), window(2, &[3])];
                    assert_eq!(
                        validate_endpoints(topo, &w).is_ok(),
                        reference(topo, &w),
                        "{}: {src} -> {dst}",
                        topo.name
                    );
                }
            }
        }
        // Sources interleaved: 3 sorts last, but its window comes first.
        let w = [
            window(0, &[3]),
            window(3, &[0]),
            window(1, &[0]),
            window(3, &[2]),
        ];
        let msg = first_error(&one_way, &w);
        assert!(
            msg.contains("destination n0 is unreachable from source n3"),
            "{msg}"
        );
        // An unreachable destination listed before an out-of-range one,
        // behind a later window whose source does not exist.
        let w = [window(0, &[1]), window(2, &[0, 9]), window(7, &[0])];
        let msg = first_error(&one_way, &w);
        assert!(
            msg.contains("destination n0 is unreachable from source n2"),
            "{msg}"
        );
        let msg = first_error(&one_way, &w[2..]);
        assert!(msg.contains("flow source n7 is outside"), "{msg}");
        let msg = first_error(&split_topology(), &[window(0, &[1, 9]), window(0, &[2])]);
        assert!(msg.contains("flow destination n9 is outside"), "{msg}");
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
        let lone = Topology::from_matrix("lone", vec![vec![0.0]]);
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
        let none = Topology::from_matrix("none", Vec::new());
        let err = Scenario::named("empty")
            .topology(TopologySpec::Fixed(std::sync::Arc::new(none)))
            .pair(NodeId(0), NodeId(1))
            .protocol("Srcr")
            .packets(4)
            .try_run()
            .expect_err("an empty mesh must be rejected up front");
        match err {
            BuildError::Unsupported(msg) => assert!(msg.contains("no nodes"), "{msg}"),
            other => panic!("expected Unsupported, got {other:?}"),
        }
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
