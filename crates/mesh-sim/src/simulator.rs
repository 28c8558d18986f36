//! The discrete-event engine: event queue, per-node CSMA/CA MAC state
//! machines, and the agent callback plumbing.
//!
//! Everything advances through a binary-heap event queue keyed on
//! `(time, sequence)`, so simultaneous events run in scheduling order and
//! every run is a pure function of `(topology, agent, seed)`.
//!
//! ## MAC model
//!
//! Each node is `Idle`, `Waiting` (a transmit attempt is scheduled),
//! `Transmitting`, or `AwaitAck`. A node that wants the medium samples a
//! backoff of `DIFS + U(0..=cw)·slot`; if the medium is busy (within its
//! carrier-sense set) when the attempt fires, it re-arms at the sensed
//! busy-end plus a fresh backoff — an event-driven approximation of
//! slotted CSMA/CA that preserves what matters here: contention,
//! collisions between simultaneous winners, spatial reuse between
//! non-sensing nodes, and exponential backoff pressure on retries.
//!
//! Unicast frames get SIFS-spaced MAC ACKs (real frames on the medium:
//! they occupy airtime, are lost to the link's loss rate, and can
//! collide); broadcasts are fire-and-forget (802.11 semantics — the basis
//! of both MORE's and ExOR's designs).

// xtask: allow(panic_path, file) -- per-node state vectors are sized to the topology at construction and NodeId indices are validated on ingress; event-heap pops are guarded by the peek directly above.

use crate::channel::{ChannelModel, ChannelSpec};
use crate::erased::{FlowAgent, FlowDesc};
use crate::medium::{Medium, Transmission};
use crate::queue::{
    AimdConfig, AimdPacer, DropCause, QueueDiscipline, QueueSpec, QueueVerdict, QUEUE_STREAM,
};
use crate::stats::SimStats;
use crate::{Frame, NodeAgent, OutFrame, SimConfig, Time, TxOutcome};
use mesh_topology::{NodeId, Topology};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// What the engine schedules.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum EventKind {
    /// A node's MAC attempts to seize the medium.
    TryTx { node: NodeId },
    /// Transmission `id` leaves the air.
    TxEnd { id: u64 },
    /// Unicast ACK wait expired (stale unless `seq` matches).
    AckTimeout { node: NodeId, seq: u64 },
    /// A receiver emits its MAC ACK to the data frame's sender `to`
    /// (SIFS after the data frame).
    StartMacAck { node: NodeId, to: NodeId },
    /// Protocol timer.
    Timer { node: NodeId, token: u64 },
}

/// A dynamic-workload action applied between engine events (see
/// [`Simulator::schedule_traffic`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrafficAction {
    /// A new flow arrives: [`FlowAgent::add_flow`] is called and the
    /// source's MAC is kicked.
    Start(FlowDesc),
    /// The flow at this index (the order flows were added, counting the
    /// ones installed at construction) departs: [`FlowAgent::end_flow`].
    Stop(usize),
}

/// Callback context handed to [`NodeAgent`] methods.
///
/// Mutations (timers, backlog kicks) are queued and applied by the engine
/// when the callback returns.
pub struct Ctx<'a> {
    now: Time,
    rng: &'a mut ChaCha8Rng,
    timers: Vec<(NodeId, Time, u64)>,
    kicks: Vec<NodeId>,
}

impl<'a> Ctx<'a> {
    /// Current simulated time, µs.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The run's deterministic RNG (shared with the MAC and medium).
    pub fn rng(&mut self) -> &mut ChaCha8Rng {
        self.rng
    }

    /// Schedules [`NodeAgent::on_timer`] for `node` after `delay` µs.
    pub fn set_timer(&mut self, node: NodeId, delay: Time, token: u64) {
        self.timers.push((node, delay, token));
    }

    /// Tells the MAC at `node` that the protocol now has frames to send;
    /// an idle MAC will schedule a transmit attempt.
    pub fn mark_backlogged(&mut self, node: NodeId) {
        self.kicks.push(node);
    }
}

/// Node MAC state.
#[derive(Debug)]
enum MacState {
    Idle,
    /// A `TryTx` is scheduled.
    Waiting,
    /// A data frame (or our MAC ACK) is on the air.
    Transmitting,
    /// Unicast sent; waiting for the MAC ACK.
    AwaitAck {
        seq: u64,
    },
}

/// An unacknowledged unicast retained for retransmission.
struct CurrentTx<P> {
    frame: OutFrame<P>,
    retries: u32,
    cw: u32,
}

/// What is on the air under a given transmission id.
enum InFlight<P> {
    Data { frame: Frame<P> },
    MacAck { to: NodeId },
}

/// One node's bounded transmit queue: the engine-side frame FIFO plus
/// the discipline mirroring it (see [`crate::queue`]).
struct NodeQueue<P> {
    frames: VecDeque<OutFrame<P>>,
    disc: Box<dyn QueueDiscipline>,
}

/// The queue subsystem, present only for bounded [`QueueSpec`]s — under
/// [`QueueSpec::Unbounded`] the engine keeps the historical
/// one-poll-per-opportunity path and this struct is never built, which
/// is what makes the default byte-identical to the pre-queue engine.
struct QueueLayer<P> {
    nodes: Vec<NodeQueue<P>>,
    /// AQM randomness, decorrelated from the main stream
    /// (`seed ^ QUEUE_STREAM`).
    rng: ChaCha8Rng,
    /// AIMD pacers for opted-in flows, keyed by protocol flow id.
    pacers: BTreeMap<u32, AimdPacer>,
    /// Each paced flow's source node (pacing gates only the source).
    pacer_src: BTreeMap<u32, NodeId>,
    /// When set, every flow the traffic layer starts mid-run is paced.
    auto_pace: Option<AimdConfig>,
}

/// What the queue layer produced for a transmit opportunity.
enum Pumped<P> {
    /// Head-of-line frame, cleared to transmit.
    Frame(OutFrame<P>),
    /// Nothing queued and the protocol has nothing to say: go idle.
    Empty,
    /// The head frame belongs to a paced flow whose gate is closed;
    /// retry the attempt at this instant.
    Deferred(Time),
}

/// The discrete-event simulator.
///
/// Generic over the protocol agent `A`; see the crate docs for the
/// callback contract.
#[must_use]
pub struct Simulator<A: NodeAgent> {
    topo: Topology,
    cfg: SimConfig,
    /// The protocol under simulation.
    pub agent: A,
    now: Time,
    seq: u64,
    queue: BinaryHeap<Reverse<(Time, u64, EventKind)>>,
    rng: ChaCha8Rng,
    medium: Medium,
    channel: Box<dyn ChannelModel>,
    states: Vec<MacState>,
    current: Vec<Option<CurrentTx<A::Payload>>>,
    /// Generation counters for ACK timeouts.
    ack_seq: Vec<u64>,
    /// What is on the air, by transmission id. Ids are issued in sequence
    /// and a frame leaves when it ends, so this is a ring: its slots are
    /// ids `next_tx_id − len .. next_tx_id`, a slot is emptied when its
    /// frame ends, and empty slots leave from the front.
    in_flight: VecDeque<Option<InFlight<A::Payload>>>,
    next_tx_id: u64,
    /// Pending dynamic-workload actions, kept sorted descending by
    /// `(time, seq)` so the earliest is popped from the back.
    traffic: Vec<(Time, u64, TrafficAction)>,
    traffic_seq: u64,
    /// How many of the pending actions are `Start`s (fast path for the
    /// stop-condition gate: only future *arrivals* can un-resolve a run).
    pending_starts: usize,
    /// Arrival times of pending `Start`s, descending (earliest at the
    /// back), rebuilt by [`Simulator::run_with_traffic`] — the stop gate
    /// peeks the back instead of scanning the whole action list per
    /// event, keeping 500-flow city runs O(1) per event here.
    start_times_desc: Vec<Time>,
    /// Scratch for [`Ctx::set_timer`] requests, reused across callbacks so
    /// the per-event hot path allocates nothing.
    scratch_timers: Vec<(NodeId, Time, u64)>,
    /// Scratch for [`Ctx::mark_backlogged`] requests (see above).
    scratch_kicks: Vec<NodeId>,
    /// Scratch for the per-transmission receiver set.
    scratch_receivers: Vec<NodeId>,
    /// Bounded per-node transmit queues; `None` = unbounded (legacy path).
    queues: Option<QueueLayer<A::Payload>>,
    /// Counters accumulated over the run.
    pub stats: SimStats,
}

impl<A: NodeAgent> Simulator<A> {
    /// Builds a simulator over `topo` for `agent`, deterministic in `seed`,
    /// with the paper's static channel (the topology's delivery matrix).
    pub fn new(topo: Topology, cfg: SimConfig, agent: A, seed: u64) -> Self {
        Simulator::with_channel(topo, cfg, &ChannelSpec::Static, agent, seed)
    }

    /// Builds a simulator whose air follows `spec` (see
    /// [`crate::channel`]). A run is a pure function of
    /// `(topology, agent, seed, channel)`.
    ///
    /// # Panics
    ///
    /// Panics when `spec` is invalid for `topo` (see
    /// [`ChannelSpec::validate`]).
    pub fn with_channel(
        topo: Topology,
        cfg: SimConfig,
        spec: &ChannelSpec,
        agent: A,
        seed: u64,
    ) -> Self {
        let channel = spec.build(&topo, seed);
        let n = topo.n();
        let medium = Medium::new(&topo, &cfg, channel.as_ref());
        Simulator {
            topo,
            cfg,
            agent,
            now: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            rng: ChaCha8Rng::seed_from_u64(seed),
            medium,
            channel,
            states: (0..n).map(|_| MacState::Idle).collect(),
            current: (0..n).map(|_| None).collect(),
            ack_seq: vec![0; n],
            in_flight: VecDeque::new(),
            next_tx_id: 0,
            traffic: Vec::new(),
            traffic_seq: 0,
            pending_starts: 0,
            start_times_desc: Vec::new(),
            scratch_timers: Vec::new(),
            scratch_kicks: Vec::new(),
            scratch_receivers: Vec::new(),
            queues: None,
            stats: SimStats::new(n),
        }
    }

    /// Builds a simulator with both the channel and the transmit-queue
    /// policy configured (see [`crate::queue`]). A run is a pure
    /// function of `(topology, agent, seed, channel, queue)`;
    /// [`QueueSpec::Unbounded`] makes this identical to
    /// [`Simulator::with_channel`].
    ///
    /// # Panics
    ///
    /// Panics when either spec is invalid (see [`ChannelSpec::validate`]
    /// and [`QueueSpec::validate`]).
    pub fn with_queue(
        topo: Topology,
        cfg: SimConfig,
        spec: &ChannelSpec,
        queue: &QueueSpec,
        agent: A,
        seed: u64,
    ) -> Self {
        let mut sim = Simulator::with_channel(topo, cfg, spec, agent, seed);
        sim.install_queue(queue, seed);
        sim
    }

    fn install_queue(&mut self, spec: &QueueSpec, seed: u64) {
        if spec.is_unbounded() {
            return;
        }
        let nodes = (0..self.topo.n())
            .map(|_| NodeQueue {
                frames: VecDeque::new(),
                disc: spec
                    .build_node()
                    .expect("a bounded spec builds a discipline"),
            })
            .collect();
        self.queues = Some(QueueLayer {
            nodes,
            rng: ChaCha8Rng::seed_from_u64(seed ^ QUEUE_STREAM),
            pacers: BTreeMap::new(),
            pacer_src: BTreeMap::new(),
            auto_pace: None,
        });
    }

    /// Opts flow `flow` (the protocol's flow id) into AIMD source
    /// pacing: dequeues of its frames at `src` are rate-limited, and
    /// queue losses of its frames anywhere multiplicatively decrease
    /// the rate (see [`crate::queue::AimdPacer`]).
    ///
    /// # Panics
    ///
    /// Panics when no bounded queue is configured (pacing gates the
    /// transmit queue, so it requires [`Simulator::with_queue`]) or
    /// when `cfg` is invalid.
    pub fn pace_flow(&mut self, flow: u32, src: NodeId, cfg: AimdConfig) {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid AimdConfig: {e}"));
        let Some(layer) = self.queues.as_mut() else {
            panic!("source pacing requires a bounded QueueSpec (use Simulator::with_queue)");
        };
        layer.pacers.insert(flow, AimdPacer::new(cfg));
        layer.pacer_src.insert(flow, src);
    }

    /// Like [`Simulator::pace_flow`], but also paces every flow the
    /// traffic layer starts mid-run (dynamic arrivals are assigned
    /// sequential flow ids, index + 1, matching the registry-built
    /// protocols).
    ///
    /// # Panics
    ///
    /// Same contract as [`Simulator::pace_flow`].
    pub fn pace_all_flows(&mut self, cfg: AimdConfig) {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid AimdConfig: {e}"));
        let Some(layer) = self.queues.as_mut() else {
            panic!("source pacing requires a bounded QueueSpec (use Simulator::with_queue)");
        };
        layer.auto_pace = Some(cfg);
    }

    /// Schedules a dynamic-workload action for simulated time `at`.
    /// Actions fire inside [`Simulator::run_with_traffic`], interleaved
    /// with the event queue; at equal timestamps traffic actions apply
    /// before engine events, and same-instant actions apply in the order
    /// they were scheduled.
    pub fn schedule_traffic(&mut self, at: Time, action: TrafficAction) {
        if matches!(action, TrafficAction::Start(_)) {
            self.pending_starts += 1;
        }
        self.traffic_seq += 1;
        self.traffic.push((at, self.traffic_seq, action));
        // Ordered once per run ([`Simulator::run_with_traffic`]), not per
        // insertion — schedules are built in bulk before the run starts.
    }

    /// The channel model driving this run's losses.
    pub fn channel(&self) -> &dyn ChannelModel {
        self.channel.as_ref()
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The MAC/PHY configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Kick a node's MAC from outside the event loop (e.g. flow start).
    pub fn kick(&mut self, node: NodeId) {
        self.kick_at(node, self.now);
    }

    fn kick_at(&mut self, node: NodeId, at: Time) {
        if matches!(self.states[node.0], MacState::Idle) {
            self.states[node.0] = MacState::Waiting;
            let delay = self.backoff_delay(self.cfg.cw_min);
            self.push(at + delay, EventKind::TryTx { node });
        }
    }

    /// Set a protocol timer from outside the event loop.
    pub fn set_timer(&mut self, node: NodeId, delay: Time, token: u64) {
        self.push(self.now + delay, EventKind::Timer { node, token });
    }

    fn push(&mut self, at: Time, ev: EventKind) {
        debug_assert!(at >= self.now, "scheduling into the past");
        self.seq += 1;
        self.queue.push(Reverse((at, self.seq, ev)));
    }

    fn backoff_delay(&mut self, cw: u32) -> Time {
        let slots = self.rng.gen_range(0..=cw) as Time;
        self.cfg.difs_us + slots * self.cfg.slot_us
    }

    /// Runs until `deadline` or until `stop(&agent)` or event exhaustion.
    ///
    /// Returns the simulated time at exit.
    pub fn run_until(&mut self, deadline: Time, mut stop: impl FnMut(&A) -> bool) -> Time {
        while let Some(Reverse((at, _, ev))) = self.queue.pop() {
            if at > deadline {
                // Leave the event for a future run; time stops at deadline.
                self.push(at, ev);
                self.now = deadline;
                break;
            }
            self.now = at;
            self.stats.events += 1;
            self.dispatch(ev);
            if stop(&self.agent) {
                break;
            }
        }
        self.now
    }

    fn dispatch(&mut self, ev: EventKind) {
        match ev {
            EventKind::TryTx { node } => self.on_try_tx(node),
            EventKind::TxEnd { id } => self.on_tx_end(id),
            EventKind::AckTimeout { node, seq } => self.on_ack_timeout(node, seq),
            EventKind::StartMacAck { node, to } => self.on_start_mac_ack(node, to),
            EventKind::Timer { node, token } => {
                self.callback(|agent, ctx| agent.on_timer(node, token, ctx));
            }
        }
    }

    /// The one gateway into the protocol: runs `call` on the agent with a
    /// fresh [`Ctx`] over the reused scratch vectors, then applies the
    /// timers and kicks it queued before anything else happens.
    fn callback<R>(&mut self, call: impl FnOnce(&mut A, &mut Ctx<'_>) -> R) -> R {
        let mut ctx = Ctx {
            now: self.now,
            rng: &mut self.rng,
            timers: std::mem::take(&mut self.scratch_timers),
            kicks: std::mem::take(&mut self.scratch_kicks),
        };
        let result = call(&mut self.agent, &mut ctx);
        let Ctx { timers, kicks, .. } = ctx;
        self.apply_ctx(timers, kicks);
        result
    }

    /// Applies queued callback mutations, then parks the (now empty)
    /// vectors back in the scratch slots for the next callback.
    fn apply_ctx(&mut self, mut timers: Vec<(NodeId, Time, u64)>, mut kicks: Vec<NodeId>) {
        for (node, delay, token) in timers.drain(..) {
            self.push(self.now + delay, EventKind::Timer { node, token });
        }
        for node in kicks.drain(..) {
            self.kick_at(node, self.now);
        }
        self.scratch_timers = timers;
        self.scratch_kicks = kicks;
    }

    fn on_try_tx(&mut self, node: NodeId) {
        if !matches!(self.states[node.0], MacState::Waiting) {
            return; // stale attempt (e.g. we got an ACK to answer meanwhile)
        }
        // Half-duplex: our own MAC ACK may still be on the air.
        let own_busy = self.medium.own_tx_until(node, self.now);
        // Defer while the medium is sensed busy (or our radio is occupied).
        let sensed_busy = self.medium.busy_until(node, self.now);
        if let Some(busy_end) = own_busy.into_iter().chain(sensed_busy).max() {
            let cw = self.current[node.0]
                .as_ref()
                .map(|c| c.cw)
                .unwrap_or(self.cfg.cw_min);
            let delay = self.backoff_delay(cw);
            self.push(busy_end + delay, EventKind::TryTx { node });
            return;
        }
        // Need a frame: a retained unicast retry, or ask the protocol —
        // directly (unbounded, the historical path) or through the
        // node's bounded transmit queue.
        if self.current[node.0].is_none() {
            let polled = if self.queues.is_some() {
                match self.pump_queue(node) {
                    Pumped::Frame(frame) => Some(frame),
                    Pumped::Empty => None,
                    Pumped::Deferred(at) => {
                        // Pacer gate closed: stay Waiting and retry when
                        // the flow's inter-packet gap elapses.
                        self.push(at, EventKind::TryTx { node });
                        return;
                    }
                }
            } else {
                self.callback(|agent, ctx| agent.poll_tx(node, ctx))
            };
            match polled {
                Some(frame) => {
                    self.current[node.0] = Some(CurrentTx {
                        frame,
                        retries: 0,
                        cw: self.cfg.cw_min,
                    });
                }
                None => {
                    self.states[node.0] = MacState::Idle;
                    return;
                }
            }
        }
        let current = self.current[node.0].as_ref().expect("frame just ensured");
        let rate = current.frame.bitrate.unwrap_or(self.cfg.bitrate);
        let bytes = current.frame.bytes;
        let air = rate.airtime(bytes);
        let frame = Frame {
            from: node,
            dst: current.frame.dst,
            bytes,
            bitrate: rate,
            payload: current.frame.payload.clone(),
        };
        // Spatial-reuse accounting: overlap with other in-air data frames.
        self.account_concurrency(node, air);
        self.states[node.0] = MacState::Transmitting;
        self.stats.tx_frames[node.0] += 1;
        self.begin_tx(node, air, InFlight::Data { frame });
    }

    /// Puts a transmission by `node` on the air for `air` µs: issues its
    /// id, registers it with the medium, and schedules its end.
    fn begin_tx(&mut self, node: NodeId, air: Time, what: InFlight<A::Payload>) {
        let id = self.next_tx_id;
        self.next_tx_id += 1;
        self.in_flight.push_back(Some(what));
        self.medium.begin(Transmission {
            id,
            tx: node,
            start: self.now,
            end: self.now + air,
        });
        self.stats.airtime[node.0] += air;
        self.push(self.now + air, EventKind::TxEnd { id });
    }

    /// Takes what transmission `id` carried off the ring; `None` for an id
    /// never issued or already taken.
    fn end_tx(&mut self, id: u64) -> Option<InFlight<A::Payload>> {
        let oldest = self.next_tx_id - self.in_flight.len() as u64;
        let slot = usize::try_from(id.checked_sub(oldest)?).ok()?;
        let what = self.in_flight.get_mut(slot)?.take();
        while let Some(None) = self.in_flight.front() {
            self.in_flight.pop_front();
        }
        what
    }

    /// Runs one transmit opportunity at `node` through its bounded
    /// queue: pump the protocol's pending frames in, then serve the
    /// head-of-line frame (unless its flow's pacer gate is closed).
    ///
    /// The fill loop stops when the protocol has nothing to send *or*
    /// on the first verdict that discards the arriving frame. Stopping
    /// at a drop is what bounds the loop: a dropped arrival is the
    /// protocol's loss signal for this opportunity, and some sources
    /// (MORE's coder) can otherwise produce frames indefinitely.
    fn pump_queue(&mut self, node: NodeId) -> Pumped<A::Payload> {
        let Some(mut layer) = self.queues.take() else {
            return Pumped::Empty; // caller checked `queues.is_some()`
        };
        let QueueLayer {
            nodes,
            rng: qrng,
            pacers,
            pacer_src,
            ..
        } = &mut layer;
        // One `Ctx` across the whole fill loop, not `callback` per poll:
        // applying kicks between polls would draw their backoffs from the
        // main stream in between MORE's coefficient draws and reorder both.
        let mut ctx = Ctx {
            now: self.now,
            rng: &mut self.rng,
            timers: std::mem::take(&mut self.scratch_timers),
            kicks: std::mem::take(&mut self.scratch_kicks),
        };
        let result = if let Some(q) = nodes.get_mut(node.0) {
            // Fill: move protocol frames into the queue until it has
            // nothing more or the discipline discards an arrival.
            while let Some(frame) = self.agent.poll_tx(node, &mut ctx) {
                let key = q.disc.classify(node, frame.flow);
                match q.disc.offer(key, self.now, qrng) {
                    QueueVerdict::Accept => {
                        q.frames.push_back(frame);
                        if let Some(hw) = self.stats.queue_depth_hw.get_mut(node.0) {
                            *hw = (*hw).max(q.frames.len());
                        }
                    }
                    QueueVerdict::DropIncoming(cause) => {
                        self.stats.count_queue_drop(node.0, frame.flow, cause);
                        if let Some(p) = frame.flow.and_then(|f| pacers.get_mut(&f)) {
                            p.on_loss(self.now);
                        }
                        self.agent
                            .on_queue_drop(node, frame.payload, cause, &mut ctx);
                        break;
                    }
                    QueueVerdict::DropMatched { index } => {
                        // CHOKe: the arrival and the matched queued frame
                        // both go. One congestion event for the pacer (the
                        // matched pair shares a flow key), two drop counts.
                        let cause = DropCause::FlowMatch;
                        self.stats.count_queue_drop(node.0, frame.flow, cause);
                        if let Some(p) = frame.flow.and_then(|f| pacers.get_mut(&f)) {
                            p.on_loss(self.now);
                        }
                        if let Some(victim) = q.frames.remove(index) {
                            self.stats.count_queue_drop(node.0, victim.flow, cause);
                            self.agent
                                .on_queue_drop(node, victim.payload, cause, &mut ctx);
                        }
                        self.agent
                            .on_queue_drop(node, frame.payload, cause, &mut ctx);
                        break;
                    }
                }
            }
            // Serve: head-of-line frame, gated by its flow's pacer when
            // this node is the paced source.
            match q.frames.front().map(|h| h.flow) {
                None => Pumped::Empty,
                Some(flow) => {
                    let mut deferred = None;
                    if let Some(f) = flow {
                        if pacer_src.get(&f) == Some(&node) {
                            if let Some(p) = pacers.get_mut(&f) {
                                match p.gate(self.now) {
                                    Some(release) => deferred = Some(release),
                                    None => p.on_send(self.now),
                                }
                            }
                        }
                    }
                    match deferred {
                        Some(at) => Pumped::Deferred(at),
                        None => {
                            q.disc.dequeue(self.now);
                            match q.frames.pop_front() {
                                Some(frame) => Pumped::Frame(frame),
                                None => Pumped::Empty, // unreachable: front() was Some
                            }
                        }
                    }
                }
            }
        } else {
            Pumped::Empty
        };
        let Ctx { timers, kicks, .. } = ctx;
        self.queues = Some(layer);
        self.apply_ctx(timers, kicks);
        result
    }

    fn account_concurrency(&mut self, node: NodeId, air: Time) {
        let overlap = self.medium.overlap_with(node, self.now, self.now + air);
        self.stats.concurrent_airtime += overlap;
    }

    fn on_tx_end(&mut self, id: u64) {
        let Some(in_flight) = self.end_tx(id) else {
            return;
        };
        // Let the channel evolve to the frame's end before judging it.
        self.channel.tick(self.now);
        let (mut collisions, mut captures) = (0, 0);
        let mut receivers = std::mem::take(&mut self.scratch_receivers);
        self.medium.evaluate_reception_into(
            id,
            self.channel.as_ref(),
            &self.cfg,
            &mut self.rng,
            &mut collisions,
            &mut captures,
            &mut receivers,
        );
        self.stats.collisions += collisions;
        self.stats.captures += captures;

        match in_flight {
            InFlight::Data { frame } => {
                let sender = frame.from;
                // Deliver to the protocol at each receiver. One Ctx per
                // receiver, applied in order: backoff RNG draws triggered
                // by a receiver's kicks must happen before the next
                // receiver's callback, exactly as they always have.
                for &r in &receivers {
                    self.stats.rx_frames[r.0] += 1;
                    self.callback(|agent, ctx| agent.on_receive(r, &frame, ctx));
                }
                match frame.dst {
                    None => {
                        // Broadcast: done immediately. The frame now holds
                        // the last engine-side reference to the payload
                        // (the sender's retained copy was cleared above),
                        // so hand it back to the agent for buffer reuse.
                        self.current[sender.0] = None;
                        self.finish_tx(sender, TxOutcome::Broadcast);
                        self.agent.recycle(frame.payload);
                    }
                    Some(dst) => {
                        if receivers.contains(&dst) {
                            // Receiver answers with a MAC ACK after SIFS.
                            self.push(
                                self.now + self.cfg.sifs_us,
                                EventKind::StartMacAck {
                                    node: dst,
                                    to: sender,
                                },
                            );
                        }
                        // Await the ACK either way; timeout covers loss.
                        self.ack_seq[sender.0] += 1;
                        let seq = self.ack_seq[sender.0];
                        self.states[sender.0] = MacState::AwaitAck { seq };
                        let wait = self.cfg.sifs_us
                            + self.cfg.ack_bitrate.airtime(self.cfg.mac_ack_bytes)
                            + 2 * self.cfg.slot_us;
                        self.push(self.now + wait, EventKind::AckTimeout { node: sender, seq });
                    }
                }
            }
            InFlight::MacAck { to } => {
                // Did the data sender hear the ACK? Accepting a "stale" ACK
                // for a retransmission of the same frame is semantically
                // correct — the receiver did get that frame's contents.
                if receivers.contains(&to) {
                    if let MacState::AwaitAck { .. } = self.states[to.0] {
                        let retries = self.current[to.0].as_ref().map(|c| c.retries).unwrap_or(0);
                        self.current[to.0] = None;
                        self.finish_tx(to, TxOutcome::Acked { retries });
                    }
                }
            }
        }
        self.scratch_receivers = receivers;
    }

    fn on_start_mac_ack(&mut self, node: NodeId, to: NodeId) {
        // Half-duplex: if this node started transmitting in the meantime,
        // the ACK is silently skipped (the sender will retry).
        if matches!(self.states[node.0], MacState::Transmitting) {
            return;
        }
        let air = self.cfg.ack_bitrate.airtime(self.cfg.mac_ack_bytes);
        // The ACK briefly occupies this node's radio. If the node was
        // Waiting, its pending TryTx will see the medium busy (or its own
        // half-duplex conflict resolves against it) and re-defer naturally.
        self.stats.tx_mac_acks[node.0] += 1;
        self.begin_tx(node, air, InFlight::MacAck { to });
    }

    fn on_ack_timeout(&mut self, node: NodeId, seq: u64) {
        let MacState::AwaitAck { seq: cur } = self.states[node.0] else {
            return;
        };
        if cur != seq {
            return; // stale
        }
        let Some(current) = self.current[node.0].as_mut() else {
            // ACK arrived and cleared the frame between events.
            self.states[node.0] = MacState::Waiting;
            let d = self.backoff_delay(self.cfg.cw_min);
            self.push(self.now + d, EventKind::TryTx { node });
            return;
        };
        current.retries += 1;
        self.stats.retries += 1;
        if current.retries > self.cfg.retry_limit {
            let retries = current.retries;
            self.current[node.0] = None;
            self.stats.unicast_failures += 1;
            self.finish_tx(node, TxOutcome::Failed { retries });
        } else {
            current.cw = (current.cw * 2 + 1).min(self.cfg.cw_max);
            let cw = current.cw;
            self.states[node.0] = MacState::Waiting;
            let d = self.backoff_delay(cw);
            self.push(self.now + d, EventKind::TryTx { node });
        }
    }

    /// Reports an outcome and re-arms the MAC for the next frame.
    fn finish_tx(&mut self, node: NodeId, outcome: TxOutcome) {
        self.callback(|agent, ctx| agent.on_tx_done(node, outcome, ctx));
        self.states[node.0] = MacState::Waiting;
        let d = self.backoff_delay(self.cfg.cw_min);
        self.push(self.now + d, EventKind::TryTx { node });
    }
}

impl<A: FlowAgent> Simulator<A> {
    /// [`Simulator::run_until`] with the traffic queue interleaved: each
    /// action scheduled via [`Simulator::schedule_traffic`] fires at its
    /// timestamp, before engine events due at the same instant. `stop` is
    /// only honoured while no traffic action ≤ `deadline` is pending, so a
    /// run cannot end in the quiet gap before the next arrival.
    ///
    /// With an empty traffic queue this **is** `run_until` — same events,
    /// same RNG stream, same exit time — which is what keeps static
    /// workloads byte-identical to the pre-traffic-model engine.
    pub fn run_with_traffic(&mut self, deadline: Time, mut stop: impl FnMut(&A) -> bool) -> Time {
        if self.traffic.is_empty() {
            return self.run_until(deadline, stop);
        }
        // Descending (time, seq): the earliest action sits at the back.
        self.traffic.sort_by_key(|&(t, s, _)| Reverse((t, s)));
        // Starts are applied earliest-first, so their times form a stack.
        self.start_times_desc = self
            .traffic
            .iter()
            .filter(|(_, _, a)| matches!(a, TrafficAction::Start(_)))
            .map(|&(t, _, _)| t)
            .collect();
        loop {
            // Apply every traffic action due before the next engine event.
            let next_engine = self.queue.peek().map(|Reverse((t, _, _))| *t);
            let traffic_due = match (self.traffic.last(), next_engine) {
                (Some(&(t, _, _)), Some(e)) => t <= e && t <= deadline,
                (Some(&(t, _, _)), None) => t <= deadline,
                (None, _) => false,
            };
            if traffic_due {
                let (at, _, action) = self.traffic.pop().expect("traffic_due checked");
                self.now = at;
                self.apply_traffic(action);
                if self.traffic_drained(deadline) && stop(&self.agent) {
                    break;
                }
                continue;
            }
            let Some(Reverse((at, _, ev))) = self.queue.pop() else {
                // No engine events and no traffic due: time stops at the
                // deadline if anything remains scheduled beyond it.
                if !self.traffic.is_empty() {
                    self.now = deadline;
                }
                break;
            };
            if at > deadline {
                self.push(at, ev);
                self.now = deadline;
                break;
            }
            self.now = at;
            self.stats.events += 1;
            self.dispatch(ev);
            if self.traffic_drained(deadline) && stop(&self.agent) {
                break;
            }
        }
        self.now
    }

    /// No flow *arrival* is still due before `deadline`. Pending `Stop`s
    /// do not gate the stop condition: a departure cannot un-resolve a
    /// flow, so waiting for one would only inflate the reported run time
    /// past the instant everything finished.
    fn traffic_drained(&self, deadline: Time) -> bool {
        self.pending_starts == 0 || self.start_times_desc.last().is_none_or(|&t| t > deadline)
    }

    fn apply_traffic(&mut self, action: TrafficAction) {
        match action {
            TrafficAction::Start(desc) => {
                self.pending_starts -= 1;
                self.start_times_desc.pop();
                let src = desc.src;
                let index = self.agent.add_flow(&desc);
                // Registry-built protocols assign flow id = index + 1,
                // so dynamic arrivals can be auto-paced by id.
                if let Some(cfg) = self.queues.as_ref().and_then(|l| l.auto_pace) {
                    self.pace_flow(index as u32 + 1, src, cfg);
                }
                self.kick_at(src, self.now);
            }
            TrafficAction::Stop(index) => self.agent.end_flow(index),
        }
    }
}

#[cfg(test)]
mod test {
    use super::*;
    use mesh_topology::generate;

    /// Every node with a neighbour is saturated, alternating broadcasts
    /// with unicasts (so MAC ACKs are on the air too).
    struct Chatter {
        next_hop: Vec<Option<NodeId>>,
        sent: Vec<u32>,
    }

    impl NodeAgent for Chatter {
        type Payload = ();

        fn on_receive(&mut self, _node: NodeId, _f: &Frame<()>, _ctx: &mut Ctx<'_>) {}

        fn on_tx_done(&mut self, _node: NodeId, _outcome: TxOutcome, _ctx: &mut Ctx<'_>) {}

        fn poll_tx(&mut self, node: NodeId, _ctx: &mut Ctx<'_>) -> Option<OutFrame<()>> {
            let next_hop = self.next_hop[node.0]?;
            self.sent[node.0] += 1;
            Some(OutFrame {
                dst: self.sent[node.0].is_multiple_of(2).then_some(next_hop),
                bytes: 1500,
                bitrate: None,
                flow: None,
                payload: (),
            })
        }
    }

    #[test]
    fn medium_retains_what_is_on_the_air_not_what_was_sent() {
        // Retention tracks the air, not a time window (100 ms of this
        // run is ~20 000 frames): the history holds only frames that
        // ended while the oldest frame still on the air was being sent —
        // those on the air with it when it began, plus the shorter ones
        // (MAC ACKs) that came and went since.
        let topo = generate::city_mesh(2000, 5);
        let next_hop: Vec<_> = topo.nodes().map(|a| topo.neighbors(a).next()).collect();
        let agent = Chatter {
            sent: vec![0; topo.n()],
            next_hop,
        };
        let mut sim = Simulator::new(topo, SimConfig::default(), agent, 5);
        for node in sim.topo.nodes() {
            sim.kick(node);
        }
        let (mut air_hw, mut history_hw, mut ring_hw) = (0, 0, 0);
        while sim.next_tx_id < 50_000 {
            let until = sim.now + 50;
            sim.run_until(until, |_| false);
            let (air, history) = sim.medium.retained();
            air_hw = air_hw.max(air);
            history_hw = history_hw.max(history);
            ring_hw = ring_hw.max(sim.in_flight.len());
        }
        assert!(
            air_hw > 20,
            "a busy mesh: {air_hw} frames on the air at once"
        );
        assert!(
            history_hw <= 2 * air_hw + 16,
            "history {history_hw} records against {air_hw} on the air"
        );
        // The engine's in-flight ring spans the ids issued since the
        // oldest frame still on the air: the same frames, no more.
        assert!(
            ring_hw <= air_hw + history_hw + 16,
            "ring of {ring_hw} slots against {air_hw} on the air, {history_hw} kept"
        );
    }
}
