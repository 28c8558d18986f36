//! The discrete-event engine: one event queue, per-node CSMA/CA MAC state
//! machines, and the one gateway through which the engine calls the
//! protocol.
//!
//! Everything advances through an event queue keyed on `(time,
//! sequence)`, so simultaneous events run in scheduling order and every
//! run is a pure function of `(topology, agent, seed)`. Dynamic workload
//! actions ([`TrafficAction`]) wait in a lane of their own, keyed on
//! `(time, slot)`: each applies before every engine event due at its
//! instant, and same-instant actions apply in the order they were
//! scheduled. [`Simulator::run_until`] is the one loop.
//!
//! Every call into the agent — polls, receptions, outcomes, timers, flow
//! arrivals and departures — goes through one gateway, which hands the
//! agent a [`Ctx`] and applies the timers and kicks it queued before
//! anything else happens.
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

#![expect(
    clippy::indexing_slicing,
    clippy::expect_used,
    clippy::panic,
    reason = "per-node state vectors are sized to the topology at construction and NodeId indices are validated on ingress"
)]

use crate::channel::{Channel, ChannelSpec};
use crate::erased::{FlowAgent, FlowDesc};
use crate::medium::{Medium, Transmission};
use crate::queue::{AimdConfig, AimdPacer, Discipline, DropCause, QueueSpec, QueueVerdict};
use crate::stats::SimStats;
use crate::{Frame, NodeAgent, OutFrame, SimConfig, Time, TxOutcome};
use mesh_topology::streams::{self, Stream};
use mesh_topology::{NodeId, Topology};
use rand::Rng;
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
    /// Unicast ACK wait expired; scheduled only when no ACK can answer it.
    AckTimeout { node: NodeId },
    /// A receiver emits its MAC ACK to the data frame's sender `to`
    /// (SIFS after the data frame).
    StartMacAck { node: NodeId, to: NodeId },
    /// Protocol timer.
    Timer { node: NodeId, token: u64 },
}

/// What [`Agenda::next`] hands the loop: an engine event with its
/// sequence number, or a traffic slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Due {
    Event(u64, EventKind),
    Traffic(usize),
}

/// The event queue: engine events by `(time, sequence)`, and traffic
/// actions by `(time, slot)`, ahead of every engine event at their instant.
/// An event stays at the root, spent, while it is dispatched, and the
/// first event it schedules overwrites it: one sift, not a pop and a push.
#[derive(Default)]
struct Agenda {
    events: BinaryHeap<Reverse<(Time, u64, EventKind)>>,
    traffic: BinaryHeap<Reverse<(Time, usize)>>,
    spent: bool,
}

impl Agenda {
    fn push(&mut self, at: Time, seq: u64, ev: EventKind) {
        let entry = Reverse((at, seq, ev));
        if !std::mem::take(&mut self.spent) {
            self.events.push(entry);
        } else if let Some(mut root) = self.events.peek_mut() {
            *root = entry; // a spent root is always there
        }
    }

    /// Pops a spent root that no push took.
    fn settle(&mut self) {
        if std::mem::take(&mut self.spent) {
            self.events.pop();
        }
    }

    /// The earliest entry due by `deadline`, traffic first on a tie.
    fn next(&mut self, deadline: Time) -> Option<(Time, Due)> {
        self.settle();
        let event = self.events.peek().map(|&Reverse(entry)| entry);
        let first = event.map_or(deadline, |(at, ..)| at.min(deadline));
        if let Some(&Reverse((at, slot))) = self.traffic.peek().filter(|t| t.0 .0 <= first) {
            self.traffic.pop();
            return Some((at, Due::Traffic(slot)));
        }
        let (at, seq, ev) = event.filter(|&(at, ..)| at <= deadline)?;
        self.spent = true;
        Some((at, Due::Event(seq, ev)))
    }
}

/// A dynamic-workload action, applied when the run reaches its instant
/// (see [`Simulator::schedule_traffic`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrafficAction {
    /// A new flow arrives: [`FlowAgent::add_flow`] is called and the
    /// source's MAC is kicked.
    Start(FlowDesc),
    /// The flow at this index (the order flows were added, counting any
    /// installed before the run) departs: [`FlowAgent::end_flow`].
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

    /// Schedules [`NodeAgent::on_timer`] for `node` after `delay` µs. A
    /// timer of `node` under `token` that has not fired yet is moved: it
    /// fires once, here, in the place among same-instant events a timer
    /// set now would take.
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
    /// Unicast sent; waiting for the MAC ACK. `timeout` is the `(time,
    /// sequence)` the wait's expiry is reserved under when the data frame
    /// ends; it reaches the heap only once no ACK can answer it.
    AwaitAck {
        timeout: (Time, u64),
    },
}

/// A pending protocol timer: its token, the `(time, sequence)` of its
/// entry on the agenda, and the one its latest arm reserved, where it
/// fires.
#[derive(Clone, Copy, Debug)]
struct Armed {
    token: u64,
    queued: (Time, u64),
    due: (Time, u64),
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

/// One node's transmit queue: the engine-side frame FIFO plus the
/// discipline mirroring it (see [`crate::queue`]).
struct NodeQueue<P> {
    frames: VecDeque<OutFrame<P>>,
    disc: Discipline,
}

/// The one transmit path, which every polled frame takes. Under
/// [`QueueSpec::Unbounded`] each queue is a one-frame slot: one poll per
/// opportunity, served at once, no draw and no drop — the pre-queue
/// engine, byte for byte.
struct QueueLayer<P> {
    nodes: Vec<NodeQueue<P>>,
    /// AQM randomness, decorrelated from the main stream
    /// (`Stream::Queue`).
    rng: ChaCha8Rng,
    /// AIMD pacers for opted-in flows, keyed by protocol flow id, each
    /// with its flow's source node (pacing gates only the source).
    pacers: BTreeMap<u32, (NodeId, AimdPacer)>,
    /// When set, every flow the traffic layer starts is paced.
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

impl<P> QueueLayer<P> {
    /// The panics [`Simulator::pace_flow`] documents.
    fn check_paceable(&self, cfg: &AimdConfig) {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid AimdConfig: {e}"));
        // Every node's discipline is built from the one spec.
        let bounded = self.nodes.first().is_some_and(|q| q.disc.is_bounded());
        assert!(bounded, "source pacing requires a bounded QueueSpec");
    }

    /// Runs one transmit opportunity at `node` through its queue: pump
    /// the agent's pending frames in, then serve the head-of-line frame
    /// (unless its flow's pacer gate is closed).
    ///
    /// The fill loop polls while the discipline wants a frame, and stops
    /// when the agent has nothing to send *or* on the first verdict that
    /// discards the arriving frame. Stopping at a drop is what bounds the
    /// loop: a dropped arrival is the agent's loss signal for this
    /// opportunity, and some sources (MORE's coder) can otherwise produce
    /// frames indefinitely. The whole fill shares one `ctx`: kicks applied
    /// between polls would draw their backoffs from the main stream in
    /// between MORE's coefficient draws and reorder both.
    fn pump<A: NodeAgent<Payload = P>>(
        &mut self,
        node: NodeId,
        agent: &mut A,
        ctx: &mut Ctx<'_>,
        stats: &mut SimStats,
    ) -> Pumped<P> {
        let now = ctx.now();
        let q = &mut self.nodes[node.0];
        while q.disc.wants_poll(q.frames.len()) {
            let Some(frame) = agent.poll_tx(node, ctx) else {
                break;
            };
            let key = q.disc.classify(node, frame.flow);
            let (cause, matched) = match q.disc.offer(key, now, &mut self.rng) {
                QueueVerdict::Accept => {
                    q.frames.push_back(frame);
                    let hw = &mut stats.queue_depth_hw[node.0];
                    *hw = (*hw).max(q.disc.depth());
                    continue;
                }
                QueueVerdict::DropIncoming(cause) => (cause, None),
                // CHOKe: the arrival and the matched queued frame both go.
                QueueVerdict::DropMatched { index } => (DropCause::FlowMatch, Some(index)),
            };
            // One congestion event for the pacer (a matched pair shares a
            // flow key), one drop count per discarded frame.
            stats.count_queue_drop(node.0, frame.flow, cause);
            if let Some((_, p)) = frame.flow.and_then(|f| self.pacers.get_mut(&f)) {
                p.on_loss(now);
            }
            let outcome = TxOutcome::Dropped(cause);
            if let Some(victim) = matched.and_then(|index| q.frames.remove(index)) {
                stats.count_queue_drop(node.0, victim.flow, cause);
                agent.on_tx_done(node, outcome, victim.payload, ctx);
            }
            agent.on_tx_done(node, outcome, frame.payload, ctx);
            break;
        }
        // Serve: the head-of-line frame, gated by its flow's pacer when
        // this node is the paced source.
        let Some(head) = q.frames.front() else {
            return Pumped::Empty;
        };
        let paced = head.flow.and_then(|f| self.pacers.get_mut(&f));
        if let Some((_, p)) = paced.filter(|(src, _)| *src == node) {
            if let Some(release) = p.gate(now) {
                return Pumped::Deferred(release);
            }
            p.on_send(now);
        }
        q.disc.dequeue(now);
        q.frames.pop_front().map_or(Pumped::Empty, Pumped::Frame)
    }
}

/// The discrete-event simulator.
///
/// Generic over the protocol agent `A`; see the crate docs for the
/// callback contract.
#[must_use]
pub struct Simulator<A: NodeAgent> {
    cfg: SimConfig,
    /// The protocol under simulation.
    pub agent: A,
    now: Time,
    seq: u64,
    agenda: Agenda,
    rng: ChaCha8Rng,
    medium: Medium,
    channel: Channel,
    states: Vec<MacState>,
    current: Vec<Option<CurrentTx<A::Payload>>>,
    /// Pending protocol timers, per node.
    armed: Vec<Vec<Armed>>,
    /// Latest instant of an event never scheduled — the expiry of an ACK
    /// wait that was answered, the arm a moved timer left — where it
    /// would have popped with nothing to do: a run that runs out of events
    /// still stops its clock there.
    skipped_until: Time,
    /// What is on the air, by transmission id. Ids are issued in sequence
    /// and a frame leaves when it ends, so this is a ring: its slots are
    /// ids `next_tx_id − len .. next_tx_id`, a slot is emptied when its
    /// frame ends, and empty slots leave from the front.
    in_flight: VecDeque<Option<InFlight<A::Payload>>>,
    next_tx_id: u64,
    /// Scheduled traffic actions with their times, by the slot the
    /// agenda's traffic lane names; a slot empties when its action fires.
    traffic: Vec<Option<(Time, TrafficAction)>>,
    /// Applies the traffic action in a slot that fires. `schedule_traffic`
    /// sets it, as the flow lifecycle needs `A: FlowAgent`; before that no
    /// traffic action exists and it does nothing.
    on_traffic: fn(&mut Simulator<A>, usize),
    /// Pending `Start`s at or before the deadline of the running
    /// [`Simulator::run_until`]; `stop` is not consulted while any is
    /// left.
    arrivals_due: usize,
    /// Scratch for [`Ctx::set_timer`] requests, reused across callbacks so
    /// the per-event hot path allocates nothing.
    scratch_timers: Vec<(NodeId, Time, u64)>,
    /// Scratch for [`Ctx::mark_backlogged`] requests (see above).
    scratch_kicks: Vec<NodeId>,
    /// Scratch for the per-transmission receiver set.
    scratch_receivers: Vec<NodeId>,
    /// Per-node transmit queues, the pacers, and their stream.
    queues: QueueLayer<A::Payload>,
    /// A MAC ACK's time on air, fixed by the configuration.
    ack_air: Time,
    /// How long a unicast sender waits for its MAC ACK: SIFS, the ACK's
    /// airtime and two slots.
    ack_wait: Time,
    /// Counters accumulated over the run.
    pub stats: SimStats,
}

impl<A: NodeAgent> Simulator<A> {
    /// Builds a simulator over `topo` for `agent`, deterministic in `seed`,
    /// with the paper's static channel (the topology's links) and no
    /// transmit queue.
    pub fn new(topo: Topology, cfg: SimConfig, agent: A, seed: u64) -> Self {
        let unbounded = &QueueSpec::Unbounded;
        Simulator::with_queue(topo, cfg, &ChannelSpec::Static, unbounded, agent, seed)
    }

    /// Builds a simulator whose air follows `spec` (see [`crate::channel`])
    /// and whose nodes queue frames under `queue` (see [`crate::queue`]).
    /// A run is a pure function of `(topology, agent, seed, channel,
    /// queue)`; under [`QueueSpec::Unbounded`] the MAC polls the agent
    /// once per transmit opportunity and sends what it gets.
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
        let channel = Channel::new(spec, topo, seed);
        let n = channel.topology().n();
        let medium = Medium::new(channel.topology(), &cfg, &channel);
        let queues = QueueLayer {
            nodes: (0..n)
                .filter_map(|_| queue.build_node())
                .map(|disc| NodeQueue {
                    frames: VecDeque::new(),
                    disc,
                })
                .collect(),
            rng: streams::rng(seed, Stream::Queue),
            pacers: BTreeMap::new(),
            auto_pace: None,
        };
        let ack_air = cfg.ack_bitrate.airtime(cfg.mac_ack_bytes);
        Simulator {
            cfg,
            agent,
            now: 0,
            seq: 0,
            agenda: Agenda::default(),
            rng: streams::rng(seed, Stream::Run),
            medium,
            channel,
            states: (0..n).map(|_| MacState::Idle).collect(),
            current: (0..n).map(|_| None).collect(),
            armed: vec![Vec::new(); n],
            skipped_until: 0,
            in_flight: VecDeque::new(),
            next_tx_id: 0,
            traffic: Vec::new(),
            on_traffic: |_, _| {},
            arrivals_due: 0,
            scratch_timers: Vec::new(),
            scratch_kicks: Vec::new(),
            scratch_receivers: Vec::new(),
            queues,
            ack_air,
            ack_wait: cfg.sifs_us + ack_air + 2 * cfg.slot_us,
            stats: SimStats::new(n),
        }
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
        self.queues.check_paceable(&cfg);
        self.queues.pacers.insert(flow, (src, AimdPacer::new(cfg)));
    }

    /// Like [`Simulator::pace_flow`], but for every flow a
    /// [`TrafficAction::Start`] installs (an arrival is paced under the
    /// [`crate::flow_id`] of its index, as the registry-built protocols
    /// number their flows).
    ///
    /// # Panics
    ///
    /// Same contract as [`Simulator::pace_flow`].
    pub fn pace_all_flows(&mut self, cfg: AimdConfig) {
        self.queues.check_paceable(&cfg);
        self.queues.auto_pace = Some(cfg);
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Kick a node's MAC from outside the event loop (e.g. flow start):
    /// an idle MAC schedules a transmit attempt.
    pub fn kick(&mut self, node: NodeId) {
        if matches!(self.states[node.0], MacState::Idle) {
            self.states[node.0] = MacState::Waiting;
            let delay = self.backoff_delay(self.cfg.cw_min);
            self.push(self.now + delay, EventKind::TryTx { node });
        }
    }

    /// Sets a protocol timer, from outside the event loop or for
    /// [`Ctx::set_timer`]: `node`'s timer `token` `delay` µs from now,
    /// under the next sequence number. A pending timer of the same node
    /// and token moves there: its agenda entry stays, to be pushed again
    /// at the new key when it pops, or is left behind when the move is
    /// earlier.
    pub fn set_timer(&mut self, node: NodeId, delay: Time, token: u64) {
        self.seq += 1;
        let key = (self.now + delay, self.seq);
        let armed = &mut self.armed[node.0];
        match armed.iter_mut().find(|a| a.token == token) {
            Some(a) => {
                self.skipped_until = self.skipped_until.max(a.due.0);
                a.due = key;
                if a.queued < key {
                    return;
                }
                a.queued = key;
            }
            None => armed.push(Armed {
                token,
                queued: key,
                due: key,
            }),
        }
        self.agenda
            .push(key.0, key.1, EventKind::Timer { node, token });
    }

    /// Settles the timer entry popped under `seq`: true when the timer
    /// fires. An entry a move overtook goes back on the agenda at the
    /// timer's key, and one a move left behind is dropped.
    fn timer_fires(&mut self, node: NodeId, token: u64, seq: u64) -> bool {
        let armed = &mut self.armed[node.0];
        let Some(i) = armed
            .iter()
            .position(|a| a.token == token && a.queued.1 == seq)
        else {
            return false;
        };
        let a = &mut armed[i];
        if a.due == a.queued {
            armed.swap_remove(i);
            return true;
        }
        a.queued = a.due;
        let (at, seq) = a.due;
        self.agenda.push(at, seq, EventKind::Timer { node, token });
        false
    }

    fn push(&mut self, at: Time, ev: EventKind) {
        debug_assert!(at >= self.now, "scheduling into the past");
        self.seq += 1;
        self.agenda.push(at, self.seq, ev);
    }

    fn backoff_delay(&mut self, cw: u32) -> Time {
        let slots = self.rng.gen_range(0..=cw) as Time;
        self.cfg.difs_us + slots * self.cfg.slot_us
    }

    /// Runs until `deadline`, until `stop(&agent)`, or until no event is
    /// left, and returns the simulated time at exit. An event past
    /// `deadline` stays queued for a later call, and the clock stops at
    /// `deadline`. Out of events, the clock stops no earlier than the
    /// expiry of the latest answered ACK wait or the latest arm a moved
    /// timer replaced (capped at `deadline`). A
    /// `deadline` before the clock runs nothing and returns the clock
    /// unchanged: the clock cannot go back.
    ///
    /// `stop` is consulted after each event, but only once no scheduled
    /// [`TrafficAction::Start`] at or before `deadline` is pending, so a
    /// run cannot end in the quiet gap before the next arrival. A pending
    /// [`TrafficAction::Stop`] does not hold the run: a departure cannot
    /// un-resolve a flow.
    pub fn run_until(&mut self, deadline: Time, mut stop: impl FnMut(&A) -> bool) -> Time {
        if deadline < self.now {
            return self.now;
        }
        self.arrivals_due = self
            .traffic
            .iter()
            .flatten()
            .filter(|(at, action)| *at <= deadline && matches!(action, TrafficAction::Start(_)))
            .count();
        loop {
            let Some((at, due)) = self.agenda.next(deadline) else {
                let idle = self.agenda.events.is_empty() && self.agenda.traffic.is_empty();
                let until = if idle { self.skipped_until } else { deadline };
                self.now = self.now.max(until.min(deadline));
                break;
            };
            self.now = at;
            match due {
                Due::Event(seq, ev) => self.dispatch(seq, ev),
                Due::Traffic(slot) => (self.on_traffic)(self, slot),
            }
            if self.arrivals_due == 0 && stop(&self.agent) {
                break;
            }
        }
        self.agenda.settle();
        self.now
    }

    fn dispatch(&mut self, seq: u64, ev: EventKind) {
        if let EventKind::Timer { node, token } = ev {
            if !self.timer_fires(node, token, seq) {
                return;
            }
        }
        self.stats.events += 1;
        match ev {
            EventKind::TryTx { node } => self.on_try_tx(node),
            EventKind::TxEnd { id } => self.on_tx_end(id),
            EventKind::AckTimeout { node } => self.on_ack_timeout(node),
            EventKind::StartMacAck { node, to } => self.on_start_mac_ack(node, to),
            EventKind::Timer { node, token } => {
                self.callback(|agent, ctx, _, _| agent.on_timer(node, token, ctx));
            }
        }
    }

    /// The one gateway into the protocol: runs `call` on the agent and a
    /// fresh [`Ctx`] over the reused scratch vectors (with the queues and
    /// counters the pump updates), then applies the timers and kicks it
    /// queued before anything else happens.
    fn callback<R>(
        &mut self,
        call: impl FnOnce(&mut A, &mut Ctx<'_>, &mut QueueLayer<A::Payload>, &mut SimStats) -> R,
    ) -> R {
        let mut ctx = Ctx {
            now: self.now,
            rng: &mut self.rng,
            timers: std::mem::take(&mut self.scratch_timers),
            kicks: std::mem::take(&mut self.scratch_kicks),
        };
        let result = call(&mut self.agent, &mut ctx, &mut self.queues, &mut self.stats);
        let Ctx {
            mut timers,
            mut kicks,
            ..
        } = ctx;
        for (node, delay, token) in timers.drain(..) {
            self.set_timer(node, delay, token);
        }
        for node in kicks.drain(..) {
            self.kick(node);
        }
        // Park the emptied vectors for the next call.
        self.scratch_timers = timers;
        self.scratch_kicks = kicks;
        result
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
        // Need a frame: a retained unicast retry, or the head of the
        // node's transmit queue, which polls the protocol.
        let current = if let Some(retry) = self.current.get_mut(node.0).and_then(Option::take) {
            retry
        } else {
            let pumped =
                self.callback(|agent, ctx, queues, stats| queues.pump(node, agent, ctx, stats));
            match pumped {
                Pumped::Frame(frame) => CurrentTx {
                    frame,
                    retries: 0,
                    cw: self.cfg.cw_min,
                },
                Pumped::Empty => {
                    self.states[node.0] = MacState::Idle;
                    return;
                }
                Pumped::Deferred(at) => {
                    // Pacer gate closed: stay Waiting and retry when the
                    // flow's inter-packet gap elapses.
                    self.push(at, EventKind::TryTx { node });
                    return;
                }
            }
        };
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
        self.current[node.0] = Some(current);
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

    fn account_concurrency(&mut self, node: NodeId, air: Time) {
        let overlap = self.medium.overlap_with(node, self.now, self.now + air);
        self.stats.concurrent_airtime += overlap;
    }

    fn on_tx_end(&mut self, id: u64) {
        let Some(in_flight) = self.end_tx(id) else {
            return;
        };
        let (mut collisions, mut captures) = (0, 0);
        let mut receivers = std::mem::take(&mut self.scratch_receivers);
        self.medium.evaluate_reception_into(
            id,
            &self.channel,
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
                    self.callback(|agent, ctx, _, _| agent.on_receive(r, &frame, ctx));
                }
                match frame.dst {
                    None => {
                        // Broadcast: done once every receiver has been
                        // served. With the sender's retained copy cleared,
                        // the frame holds the engine's last copy of the
                        // payload, and it goes back with the outcome.
                        self.current[sender.0] = None;
                        self.finish_tx(sender, TxOutcome::Broadcast, frame.payload);
                    }
                    Some(dst) => {
                        let heard = receivers.contains(&dst);
                        if heard {
                            // Receiver answers with a MAC ACK after SIFS.
                            self.push(
                                self.now + self.cfg.sifs_us,
                                EventKind::StartMacAck {
                                    node: dst,
                                    to: sender,
                                },
                            );
                        }
                        // Await the ACK either way; the timeout covers loss.
                        self.seq += 1;
                        let timeout = (self.now + self.ack_wait, self.seq);
                        self.states[sender.0] = MacState::AwaitAck { timeout };
                        if !heard {
                            self.schedule_ack_timeout(sender);
                        }
                    }
                }
            }
            InFlight::MacAck { to } => {
                // Did the data sender hear the ACK? If not, its wait will
                // expire.
                if let MacState::AwaitAck { timeout: (at, _) } = self.states[to.0] {
                    if receivers.contains(&to) {
                        self.skipped_until = self.skipped_until.max(at);
                        let CurrentTx { frame, retries, .. } = self.take_awaited(to);
                        self.finish_tx(to, TxOutcome::Acked { retries }, frame.payload);
                    } else {
                        self.schedule_ack_timeout(to);
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
            self.schedule_ack_timeout(to);
            return;
        }
        // The ACK briefly occupies this node's radio. If the node was
        // Waiting, its pending TryTx will see the medium busy (or its own
        // half-duplex conflict resolves against it) and re-defer naturally.
        self.begin_tx(node, self.ack_air, InFlight::MacAck { to });
    }

    /// Pushes the expiry of `node`'s ACK wait under the `(time, sequence)`
    /// reserved for it, so it runs in the place it always had.
    fn schedule_ack_timeout(&mut self, node: NodeId) {
        if let MacState::AwaitAck { timeout: (at, seq) } = self.states[node.0] {
            self.agenda.push(at, seq, EventKind::AckTimeout { node });
        }
    }

    fn on_ack_timeout(&mut self, node: NodeId) {
        debug_assert!(matches!(self.states[node.0], MacState::AwaitAck { .. }));
        let current = self.current[node.0]
            .as_mut()
            .expect("AwaitAck retains its frame");
        current.retries += 1;
        self.stats.retries += 1;
        if current.retries > self.cfg.retry_limit {
            let CurrentTx { frame, retries, .. } = self.take_awaited(node);
            self.stats.unicast_failures += 1;
            self.finish_tx(node, TxOutcome::Failed { retries }, frame.payload);
        } else {
            current.cw = (current.cw * 2 + 1).min(self.cfg.cw_max);
            let cw = current.cw;
            self.states[node.0] = MacState::Waiting;
            let d = self.backoff_delay(cw);
            self.push(self.now + d, EventKind::TryTx { node });
        }
    }

    /// The unicast `node` awaits an ACK for; `AwaitAck` always retains
    /// it until it is ACKed or out of retries.
    fn take_awaited(&mut self, node: NodeId) -> CurrentTx<A::Payload> {
        self.current[node.0]
            .take()
            .expect("AwaitAck retains its frame")
    }

    /// Hands a finished frame's payload back with its outcome and re-arms
    /// the MAC for the next frame.
    fn finish_tx(&mut self, node: NodeId, outcome: TxOutcome, payload: A::Payload) {
        self.callback(|agent, ctx, _, _| agent.on_tx_done(node, outcome, payload, ctx));
        self.states[node.0] = MacState::Waiting;
        let d = self.backoff_delay(self.cfg.cw_min);
        self.push(self.now + d, EventKind::TryTx { node });
    }
}

impl<A: FlowAgent> Simulator<A> {
    /// Schedules a dynamic-workload action for simulated time `at`. It
    /// waits in the agenda's traffic lane, apart from the engine's events:
    /// it applies before every engine event due at the same instant, and
    /// same-instant actions apply in the order they were scheduled.
    ///
    /// # Panics
    ///
    /// Panics when `at` is before the current time: the clock cannot go
    /// back.
    pub fn schedule_traffic(&mut self, at: Time, action: TrafficAction) {
        assert!(at >= self.now, "traffic at {at} µs is before the clock");
        let slot = self.traffic.len();
        self.traffic.push(Some((at, action)));
        self.on_traffic = Self::apply_traffic;
        self.agenda.traffic.push(Reverse((at, slot)));
    }

    /// The same as [`Simulator::run_until`], which applies scheduled
    /// traffic; kept because `ledger/benches/staged.rs` calls it.
    pub fn run_with_traffic(&mut self, deadline: Time, stop: impl FnMut(&A) -> bool) -> Time {
        self.run_until(deadline, stop)
    }

    /// Applies the traffic action in `slot` through the agent gateway: an
    /// arrival installs its flow, kicks the source and, when every flow
    /// is paced, paces it; a departure halts its flow.
    fn apply_traffic(&mut self, slot: usize) {
        let Some((_, action)) = self.traffic.get_mut(slot).and_then(Option::take) else {
            return;
        };
        match action {
            TrafficAction::Start(desc) => {
                self.arrivals_due -= 1;
                let index = self.callback(|agent, ctx, _, _| {
                    let index = agent.add_flow(&desc);
                    ctx.mark_backlogged(desc.src);
                    index
                });
                // Registry-built protocols assign ids by `flow_id`, so
                // dynamic arrivals can be auto-paced by id.
                if let Some(cfg) = self.queues.auto_pace {
                    self.pace_flow(crate::flow_id(index), desc.src, cfg);
                }
            }
            TrafficAction::Stop(index) => self.callback(|agent, _, _, _| agent.end_flow(index)),
        }
    }
}

#[cfg(test)]
mod test {
    use super::*;
    use mesh_topology::generate;

    /// Every node with a neighbour is saturated, alternating broadcasts
    /// with unicasts (so MAC ACKs are on the air too). A frame's payload
    /// is the instant it was polled; `done` lists each outcome with that
    /// instant and the one it came back at.
    struct Chatter {
        next_hop: Vec<Option<NodeId>>,
        sent: Vec<u32>,
        done: Vec<(TxOutcome, Time, Time)>,
    }

    impl Chatter {
        fn new(topo: &Topology) -> Self {
            Chatter {
                next_hop: topo.nodes().map(|a| topo.neighbors(a).next()).collect(),
                sent: vec![0; topo.n()],
                done: Vec::new(),
            }
        }
    }

    impl NodeAgent for Chatter {
        type Payload = Time;

        fn on_receive(&mut self, _node: NodeId, _f: &Frame<Time>, _ctx: &mut Ctx<'_>) {}

        fn on_tx_done(&mut self, _node: NodeId, o: TxOutcome, polled: Time, ctx: &mut Ctx<'_>) {
            self.done.push((o, polled, ctx.now()));
        }

        fn poll_tx(&mut self, node: NodeId, ctx: &mut Ctx<'_>) -> Option<OutFrame<Time>> {
            let next_hop = self.next_hop[node.0]?;
            self.sent[node.0] += 1;
            Some(OutFrame {
                dst: self.sent[node.0].is_multiple_of(2).then_some(next_hop),
                bytes: 1500,
                bitrate: None,
                flow: None,
                payload: ctx.now(),
            })
        }
    }

    #[test]
    fn the_unbounded_slot_is_the_pull_path() {
        // Saturated nodes through the one-frame slot: every polled frame
        // goes on the air at the opportunity that polled it, and the
        // queue layer draws, drops and holds nothing.
        let topo = generate::testbed(1);
        let (cfg, seed) = (SimConfig::default(), 3);
        let agent = Chatter::new(&topo);
        let mut sim = Simulator::new(topo, cfg, agent, seed);
        for node in 0..sim.states.len() {
            sim.kick(NodeId(node));
        }
        sim.run_until(5 * crate::SEC, |_| false);
        // A broadcast comes back as it leaves the air, a unicast ACKed on
        // its first try as its MAC ACK does, SIFS later.
        let air = cfg.bitrate.airtime(1500);
        let acked = air + cfg.sifs_us + cfg.ack_bitrate.airtime(cfg.mac_ack_bytes);
        let mut first_tries = 0;
        for &(outcome, polled, back) in &sim.agent.done {
            let on_air = match outcome {
                TxOutcome::Broadcast => air,
                TxOutcome::Acked { retries: 0 } => acked,
                _ => continue,
            };
            assert_eq!(back - on_air, polled, "{outcome:?} came back at {back}");
            first_tries += 1;
        }
        assert!(first_tries > 1000, "{first_tries} frames checked");
        let mut fresh = streams::rng(seed, Stream::Queue);
        assert_eq!(sim.queues.rng.gen::<u64>(), fresh.gen::<u64>());
        assert_eq!(sim.stats.total_queue_drops(), 0);
        assert!(sim.stats.queue_depth_hw.iter().all(|&hw| hw == 0));
    }

    /// An [`Agenda`] and the one heap it replaces, where a traffic action
    /// was an entry under sequence number 0 (here a timer whose token is
    /// its slot, so same-instant actions order by slot), driven through
    /// the same schedule the way [`Simulator::run_until`] drives the
    /// agenda. Every test event is a timer whose token is its sequence
    /// number, so entries compare one to one.
    struct Twins {
        agenda: Agenda,
        reference: BinaryHeap<Reverse<(Time, u64, EventKind)>>,
        now: Time,
        seq: u64,
        slots: usize,
        /// `(time, sequence)` reserved for a later push, as an ACK wait's
        /// expiry is.
        reserved: Vec<(Time, u64)>,
        rng: ChaCha8Rng,
    }

    impl Twins {
        fn push(&mut self, at: Time, seq: u64) {
            let ev = EventKind::Timer {
                node: NodeId(0),
                token: seq,
            };
            self.agenda.push(at, seq, ev);
            self.reference.push(Reverse((at, seq, ev)));
        }

        fn event(&mut self, at: Time) {
            self.seq += 1;
            self.push(at, self.seq);
        }

        fn traffic(&mut self, at: Time) {
            let stand_in = EventKind::Timer {
                node: NodeId(1),
                token: self.slots as u64,
            };
            self.agenda.traffic.push(Reverse((at, self.slots)));
            self.reference.push(Reverse((at, 0, stand_in)));
            self.slots += 1;
        }

        /// What one dispatch schedules: none, one or several events, and
        /// now and then a reservation or the push of an earlier one. Under
        /// one event per dispatch on average, so the schedule dies out.
        fn dispatch(&mut self) {
            for _ in 0..[0, 0, 0, 0, 1, 1, 4][self.rng.gen_range(0..7usize)] {
                let at = self.now + self.rng.gen_range(0..30u64);
                self.event(at);
            }
            if self.rng.gen_bool(0.2) {
                self.seq += 1;
                let at = self.now + self.rng.gen_range(1..30u64);
                self.reserved.push((at, self.seq));
            }
            let now = self.now;
            self.reserved.retain(|&(at, _)| at >= now);
            if self.rng.gen_bool(0.3) {
                if let Some((at, seq)) = self.reserved.pop() {
                    self.push(at, seq);
                }
            }
        }

        fn run_until(&mut self, deadline: Time) {
            loop {
                let expected = self.reference.peek().and_then(|&Reverse((at, seq, ev))| {
                    let EventKind::Timer { token, .. } = ev else {
                        unreachable!("every test entry is a timer")
                    };
                    let due = if seq == 0 {
                        Due::Traffic(token as usize)
                    } else {
                        Due::Event(seq, ev)
                    };
                    (at <= deadline).then_some((at, due))
                });
                let due = self.agenda.next(deadline);
                assert_eq!(due, expected);
                let Some((at, _)) = due else {
                    break;
                };
                self.reference.pop();
                self.now = at;
                self.dispatch();
            }
            self.agenda.settle();
            self.now = deadline;
            let held = self.agenda.events.len() + self.agenda.traffic.len();
            assert_eq!(held, self.reference.len());
        }
    }

    proptest::proptest! {
        #[test]
        fn the_agenda_pops_in_the_one_heaps_order(seed in proptest::prelude::any::<u64>()) {
            let mut twins = Twins {
                agenda: Agenda::default(),
                reference: BinaryHeap::new(),
                now: 0,
                seq: 0,
                slots: 0,
                reserved: Vec::new(),
                rng: <ChaCha8Rng as rand::SeedableRng>::seed_from_u64(seed),
            };
            for _ in 0..40 {
                // Between runs: traffic at the current instant and later,
                // kicks and timers from outside.
                for _ in 0..twins.rng.gen_range(0..3usize) {
                    let at = twins.now + [0, twins.rng.gen_range(0..60u64)][twins.rng.gen_range(0..2usize)];
                    twins.traffic(at);
                }
                for _ in 0..twins.rng.gen_range(0..3usize) {
                    let at = twins.now + twins.rng.gen_range(0..60u64);
                    twins.event(at);
                }
                let deadline = twins.now + twins.rng.gen_range(0..60u64);
                twins.run_until(deadline);
            }
        }
    }

    #[test]
    #[should_panic(expected = "requires a bounded QueueSpec")]
    fn pacing_needs_a_queue_that_can_drop() {
        let topo = generate::testbed(1);
        let mut sim = Simulator::new(topo.clone(), SimConfig::default(), Chatter::new(&topo), 1);
        sim.pace_all_flows(AimdConfig::default());
    }

    #[test]
    fn the_medium_holds_only_frames_not_yet_judged_or_judged_now() {
        // Retention tracks the air, not a time window (100 ms of this
        // run is ~20 000 frames): the on-air set holds the frames whose
        // end the engine has not reached; a verdict takes its frame out.
        let topo = generate::city_mesh(2000, 5);
        let n = topo.n();
        let agent = Chatter::new(&topo);
        let mut sim = Simulator::new(topo, SimConfig::default(), agent, 5);
        for node in 0..n {
            sim.kick(NodeId(node));
        }
        let (mut air_hw, mut ring_hw) = (0, 0);
        while sim.next_tx_id < 50_000 {
            let until = sim.now + 50;
            sim.run_until(until, |_| false);
            let (unjudged, clock) = sim.medium.held();
            assert!(clock <= sim.now, "the medium's clock ran ahead");
            // Unjudged frames are the ones whose end the run has not
            // reached: every frame still in the engine's ring.
            assert!(unjudged.iter().all(|&end| end > sim.now));
            assert_eq!(unjudged.len(), sim.in_flight.iter().flatten().count());
            air_hw = air_hw.max(unjudged.len());
            ring_hw = ring_hw.max(sim.in_flight.len());
        }
        assert!(
            air_hw > 20,
            "a busy mesh: {air_hw} frames on the air at once"
        );
        // The engine's in-flight ring spans the ids issued since the
        // oldest frame in flight began: the frames on the air with it, and
        // the shorter ones (MAC ACKs) that came and went since.
        assert!(
            ring_hw <= 2 * air_hw,
            "ring of {ring_hw} slots against {air_hw} on the air"
        );
    }
}
