//! Protocol rules read off what the nodes did, not off the end result.
//!
//! A recording wrapper ([`Capture`]) forwards every [`NodeAgent`] call to
//! the protocol under test and logs, in the engine's order, what each
//! node heard, what it handed its MAC and when its timers fired. The run
//! is a 3-hop line `s → a → b → d` with lossy skip links, so forwarders
//! hear both sides. Each test holds the log to one rule of the protocol:
//!
//! * MORE earns credit only from upstream (§3.3.2): a forwarder sends at
//!   most `⌈tx_credit × arrivals from upstream⌉` data frames of a batch;
//! * a MORE forwarder purges a batch on its ACK (§3.3.4): once it has
//!   heard the ACK of batch `b`, it sends no data frame of batch `≤ b`;
//! * ExOR never sends in its turn what a closer node holds: a packet sent
//!   in a turn was, as far as the node had heard when its turn began, held
//!   by no node of lower rank.
//!
//! Mutations tried against this file (each reverted):
//!
//! * MORE crediting every arrival (`if dst.is_none() && upstream {` →
//!   `if dst.is_none() {` in `more-core`'s agent) —
//!   `more_credit_comes_only_from_upstream` fails;
//! * MORE forwarders not purging on a batch ACK (the `flush_to(purge_to)`
//!   in the `Ack` arm deleted) — `more_forwarders_purge_on_a_batch_ack`
//!   fails;
//! * ExOR queueing packets the next closer node holds
//!   (`ns.map[p] >= my_rank` → `ns.map[p] + 1 >= my_rank` in
//!   `begin_turn`) — `exor_sends_nothing_a_closer_node_holds` fails.

use more_repro::baselines::exor::{ExorAgent, ExorConfig, ExorPayload};
use more_repro::more::{MoreAgent, MoreConfig, MorePayload};
use more_repro::sim::{
    Ctx, FlowAgent, FlowDesc, Frame, NodeAgent, OutFrame, SimConfig, Simulator, TxOutcome, SEC,
};
use more_repro::topology::{generate, NodeId, Topology};
use std::collections::BTreeMap;

/// One agent call, as the wrapper saw it.
enum Event<S> {
    /// `node` heard a frame from `from` carrying `what`.
    Heard { node: NodeId, from: NodeId, what: S },
    /// `node` handed its MAC a frame carrying `what`. Under the unbounded
    /// queue the MAC polls only when it may transmit, so this is a send.
    Sent { node: NodeId, what: S },
    /// A timer of `node` fired.
    Timer { node: NodeId },
}

/// Forwards every call to `inner` and logs it, summarized by `summary`.
struct Capture<A: NodeAgent, S> {
    inner: A,
    summary: fn(&A::Payload) -> S,
    log: Vec<Event<S>>,
}

impl<A: NodeAgent, S> NodeAgent for Capture<A, S> {
    type Payload = A::Payload;

    fn on_receive(&mut self, node: NodeId, frame: &Frame<A::Payload>, ctx: &mut Ctx<'_>) {
        let what = (self.summary)(&frame.payload);
        let from = frame.from;
        self.log.push(Event::Heard { node, from, what });
        self.inner.on_receive(node, frame, ctx);
    }

    fn on_tx_done(
        &mut self,
        node: NodeId,
        outcome: TxOutcome,
        payload: A::Payload,
        ctx: &mut Ctx<'_>,
    ) {
        self.inner.on_tx_done(node, outcome, payload, ctx);
    }

    fn poll_tx(&mut self, node: NodeId, ctx: &mut Ctx<'_>) -> Option<OutFrame<A::Payload>> {
        let out = self.inner.poll_tx(node, ctx);
        if let Some(f) = &out {
            let what = (self.summary)(&f.payload);
            self.log.push(Event::Sent { node, what });
        }
        out
    }

    fn on_timer(&mut self, node: NodeId, token: u64, ctx: &mut Ctx<'_>) {
        self.log.push(Event::Timer { node });
        self.inner.on_timer(node, token, ctx);
    }
}

/// The 3-hop line: `s = 0`, `a = 1`, `b = 2`, `d = 3`; adjacent links
/// deliver 0.7, a link skipping a node 0.21, `s → d` 0.063.
fn line() -> Topology {
    generate::line(3, 0.7, 0.3, 25.0)
}

const SRC: NodeId = NodeId(0);
const DST: NodeId = NodeId(3);
const SEEDS: [u64; 4] = [1, 2, 3, 4];

/// Runs `agent`, wrapped, from `SRC` until `done` or two simulated
/// minutes, and returns the wrapper.
fn run<A: NodeAgent, S>(
    agent: A,
    summary: fn(&A::Payload) -> S,
    seed: u64,
    done: fn(&A) -> bool,
) -> Capture<A, S> {
    let capture = Capture {
        inner: agent,
        summary,
        log: Vec::new(),
    };
    let mut sim = Simulator::new(line(), SimConfig::default(), capture, seed);
    sim.kick(SRC);
    sim.run_until(120 * SEC, |c: &Capture<A, S>| done(&c.inner));
    assert!(
        done(&sim.agent.inner),
        "seed {seed}: the transfer did not finish"
    );
    sim.agent
}

/// A MORE frame: a coded packet of a batch, or a batch's ACK.
enum More {
    Data(u32),
    Ack(u32),
}

fn more_summary(p: &MorePayload) -> More {
    match p {
        MorePayload::Data { batch, .. } => More::Data(*batch),
        MorePayload::Ack { batch, .. } => More::Ack(*batch),
    }
}

/// MORE with K = 8 over six batches, so ACKs and batch changes are many.
fn run_more(seed: u64) -> Capture<MoreAgent, More> {
    let mut agent = MoreAgent::new(
        line(),
        MoreConfig {
            k: 8,
            ..MoreConfig::default()
        },
    );
    agent.add_flow(&FlowDesc::unicast(SRC, DST, 48));
    run(agent, more_summary, seed, MoreAgent::flows_done)
}

/// The forwarders: every node but the source and the destination.
fn forwarders() -> impl Iterator<Item = NodeId> {
    (1..DST.0).map(NodeId)
}

#[test]
fn more_credit_comes_only_from_upstream() {
    for seed in SEEDS {
        let capture = run_more(seed);
        let flow = &capture.inner.flows()[0];
        for node in forwarders() {
            // Per batch: arrivals from upstream, and data frames sent.
            let mut arrivals: BTreeMap<u32, u64> = BTreeMap::new();
            let mut sent: BTreeMap<u32, u64> = BTreeMap::new();
            for event in &capture.log {
                match *event {
                    Event::Heard {
                        node: at,
                        from,
                        what: More::Data(batch),
                    } if at == node && flow.from_upstream(node, from) => {
                        *arrivals.entry(batch).or_default() += 1;
                    }
                    Event::Sent {
                        node: by,
                        what: More::Data(batch),
                    } if by == node => *sent.entry(batch).or_default() += 1,
                    _ => {}
                }
            }
            let credit = flow.tx_credit[node.0];
            assert!(
                sent.values().sum::<u64>() > 0,
                "seed {seed}: forwarder {node} never sent"
            );
            // Credit restarts at 0 when the node's batch moves, and a send
            // needs positive credit, so a batch gets at most the ceiling
            // of what its arrivals earned (+ 1e-9: the agent sums what
            // this multiplies).
            for (&batch, &n) in &sent {
                let earned = credit * arrivals.get(&batch).copied().unwrap_or(0) as f64;
                assert!(
                    n as f64 <= (earned + 1e-9).ceil(),
                    "seed {seed}: forwarder {node} sent {n} frames of batch {batch} \
                     on {earned} credit (tx_credit {credit})"
                );
            }
        }
    }
}

#[test]
fn more_forwarders_purge_on_a_batch_ack() {
    let mut acks_heard = 0;
    for seed in SEEDS {
        let capture = run_more(seed);
        for node in forwarders() {
            // The highest batch whose ACK `node` has heard.
            let mut acked: Option<u32> = None;
            for event in &capture.log {
                match *event {
                    Event::Heard {
                        node: at,
                        what: More::Ack(batch),
                        ..
                    } if at == node => {
                        acks_heard += 1;
                        acked = acked.max(Some(batch));
                    }
                    Event::Sent {
                        node: by,
                        what: More::Data(batch),
                    } if by == node => assert!(
                        acked.is_none_or(|a| batch > a),
                        "seed {seed}: forwarder {node} sent batch {batch} after \
                         hearing the ACK of batch {acked:?}"
                    ),
                    _ => {}
                }
            }
        }
    }
    assert!(acks_heard > 0, "no forwarder heard an ACK");
}

/// An ExOR batch frame.
struct Turn {
    batch: u32,
    seq: Option<u32>,
    sender_rank: u8,
    remaining: u16,
    map: Vec<u8>,
}

fn exor_summary(p: &ExorPayload) -> Option<Turn> {
    match p {
        ExorPayload::Data {
            batch,
            seq,
            sender_rank,
            remaining,
            map,
            ..
        } => Some(Turn {
            batch: *batch,
            seq: *seq,
            sender_rank: *sender_rank,
            remaining: *remaining,
            map: map.to_vec(),
        }),
        ExorPayload::Direct { .. } | ExorPayload::BatchDone { .. } => None,
    }
}

/// Per batch, the lowest rank `node` has heard holds each packet.
type Heard = BTreeMap<u32, Vec<u8>>;

/// Folds `t` into what a node has heard: its map, and the sender itself
/// as a holder of the packet it carries.
fn learn(heard: &mut Heard, t: &Turn) {
    let best = heard
        .entry(t.batch)
        .or_insert_with(|| vec![u8::MAX; t.map.len()]);
    for (b, &m) in best.iter_mut().zip(&t.map) {
        *b = (*b).min(m);
    }
    if let Some(b) = t.seq.and_then(|p| best.get_mut(p as usize)) {
        *b = (*b).min(t.sender_rank);
    }
}

#[test]
fn exor_sends_nothing_a_closer_node_holds() {
    let mut checked = 0;
    for seed in SEEDS {
        let mut agent = ExorAgent::new(line(), ExorConfig { k: 8 });
        agent.add_flow(&FlowDesc::unicast(SRC, DST, 48));
        let capture = run(agent, exor_summary, seed, ExorAgent::flows_done);
        let log = &capture.log;
        // Each node's rank, as its own frames carry it.
        let mut rank: BTreeMap<NodeId, u8> = BTreeMap::new();
        for event in log {
            if let Event::Sent {
                node,
                what: Some(t),
            } = event
            {
                rank.insert(*node, t.sender_rank);
            }
        }
        let ranks = rank[&SRC] + 1;
        for (&node, &my_rank) in rank.iter().filter(|&(_, &r)| r > 0) {
            let mut heard = Heard::new();
            // What `node` had heard when its next turn may have begun: at
            // the first event after its last send that can begin a turn —
            // its predecessor's last frame of a turn, or a timer (a
            // re-armed timer moves, so every one that fires is live). A
            // turn begins at one of those, never before.
            let mut at_turn: Option<Heard> = None;
            // The turn under way: its batch and its view.
            let mut turn: Option<(u32, Heard)> = None;
            let mut last: Option<(u32, u16)> = None;
            for event in log {
                match event {
                    Event::Heard {
                        node: n,
                        what: Some(t),
                        ..
                    } if *n == node => {
                        learn(&mut heard, t);
                        let handoff = t.remaining == 0 && (t.sender_rank + 1) % ranks == my_rank;
                        if handoff && at_turn.is_none() {
                            at_turn = Some(heard.clone());
                        }
                    }
                    Event::Timer { node: n } if *n == node && at_turn.is_none() => {
                        at_turn = Some(heard.clone());
                    }
                    Event::Sent {
                        node: n,
                        what: Some(t),
                    } if *n == node => {
                        let continues = last.is_some_and(|(b, r)| b == t.batch && r > 0);
                        if !continues {
                            // No such event since the last send: the source
                            // opening a batch nobody has sent yet.
                            let view = at_turn.take().unwrap_or_default();
                            turn = Some((t.batch, view));
                        }
                        at_turn = None;
                        last = Some((t.batch, t.remaining));
                        let (Some(p), Some((batch, view))) = (t.seq, &turn) else {
                            continue;
                        };
                        let holder = view
                            .get(batch)
                            .and_then(|best| best.get(p as usize).copied())
                            .unwrap_or(u8::MAX);
                        assert!(
                            holder >= my_rank,
                            "seed {seed}: {node} (rank {my_rank}) sent packet {p} of batch \
                             {batch}, which rank {holder} held before its turn"
                        );
                        checked += 1;
                    }
                    _ => {}
                }
            }
        }
    }
    assert!(checked > 100, "only {checked} packets checked");
}
