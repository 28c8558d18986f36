//! End-to-end tests of the simulator engine with minimal protocol agents.

use mesh_sim::{
    Ctx, FlowAgent, FlowDesc, FlowProgressView, Frame, NodeAgent, OutFrame, SimConfig, Simulator,
    Time, TrafficAction, TxOutcome, MS, SEC,
};
use mesh_topology::{generate, NodeId};

/// An `n`-node topology from `(from, to, p)` triples.
fn topo(name: &str, n: usize, links: &[(usize, usize, f64)]) -> mesh_topology::Topology {
    let links = links
        .iter()
        .map(|&(from, to, delivery)| mesh_topology::Link {
            from: NodeId(from),
            to: NodeId(to),
            delivery,
        });
    mesh_topology::Topology::from_links(name, n, links.collect())
}

/// Broadcasts `remaining` frames from node 0 and counts receptions
/// anywhere.
struct Broadcaster {
    remaining: u32,
    received: Vec<u32>,
}

impl NodeAgent for Broadcaster {
    type Payload = u32;

    fn on_receive(&mut self, node: NodeId, _f: &Frame<u32>, _ctx: &mut Ctx<'_>) {
        self.received[node.0] += 1;
    }

    fn on_tx_done(&mut self, _node: NodeId, outcome: TxOutcome, _p: u32, _ctx: &mut Ctx<'_>) {
        assert_eq!(outcome, TxOutcome::Broadcast);
    }

    fn poll_tx(&mut self, node: NodeId, _ctx: &mut Ctx<'_>) -> Option<OutFrame<u32>> {
        if node != NodeId(0) || self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(OutFrame {
            dst: None,
            bytes: 1500,
            bitrate: None,
            flow: None,
            payload: self.remaining,
        })
    }
}

#[test]
fn broadcast_delivery_tracks_link_probability() {
    let topo = generate::line(1, 0.7, 0.0, 20.0);
    let agent = Broadcaster {
        remaining: 2000,
        received: vec![0; 2],
    };
    let mut sim = Simulator::new(topo, SimConfig::default(), agent, 42);
    sim.kick(NodeId(0));
    // Run to the deadline regardless of progress (never stop early).
    sim.run_until(120 * SEC, |_: &Broadcaster| false);
    assert_eq!(sim.stats.tx_frames[0], 2000, "all frames sent");
    let rate = sim.agent.received[1] as f64 / 2000.0;
    assert!((rate - 0.7).abs() < 0.04, "delivery rate {rate}");
    assert_eq!(sim.stats.unicast_failures, 0);
}

#[test]
fn broadcasts_are_paced_by_airtime_and_backoff() {
    // 1500 B at 5.5 Mb/s ≈ 2374 µs airtime + DIFS + mean backoff
    // (31/2 × 20 µs = 310); ~2.7 ms/frame → ~370 frames/s.
    let topo = generate::line(1, 1.0, 0.0, 20.0);
    let agent = Broadcaster {
        remaining: u32::MAX,
        received: vec![0; 2],
    };
    let mut sim = Simulator::new(topo, SimConfig::default(), agent, 7);
    sim.kick(NodeId(0));
    sim.run_until(SEC, |_| false);
    let sent = sim.stats.tx_frames[0];
    assert!(
        (330..=400).contains(&sent),
        "one saturated sender sent {sent} frames/s"
    );
}

/// Sends `remaining` unicast packets from node 0 to node 1, counting MAC
/// outcomes.
struct Unicaster {
    remaining: u32,
    acked: u32,
    failed: u32,
    delivered: u32,
}

impl NodeAgent for Unicaster {
    type Payload = ();

    fn on_receive(&mut self, node: NodeId, f: &Frame<()>, _ctx: &mut Ctx<'_>) {
        if f.dst == Some(node) {
            self.delivered += 1;
        }
    }

    fn on_tx_done(&mut self, _node: NodeId, outcome: TxOutcome, _p: (), _ctx: &mut Ctx<'_>) {
        match outcome {
            TxOutcome::Acked { .. } => self.acked += 1,
            TxOutcome::Failed { .. } => self.failed += 1,
            other => panic!("unicasts on an unbounded queue, yet {other:?}"),
        }
    }

    fn poll_tx(&mut self, node: NodeId, _ctx: &mut Ctx<'_>) -> Option<OutFrame<()>> {
        if node != NodeId(0) || self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(OutFrame {
            dst: Some(NodeId(1)),
            bytes: 1500,
            bitrate: None,
            flow: None,
            payload: (),
        })
    }
}

#[test]
fn unicast_retransmission_masks_loss() {
    // 60% link: raw loss is high but 7 retries push delivery near 1.
    let topo = generate::line(1, 0.6, 0.0, 20.0);
    let agent = Unicaster {
        remaining: 500,
        acked: 0,
        failed: 0,
        delivered: 0,
    };
    let mut sim = Simulator::new(topo, SimConfig::default(), agent, 3);
    sim.kick(NodeId(0));
    sim.run_until(300 * SEC, |a| a.acked + a.failed == 500);
    let a = &sim.agent;
    assert_eq!(a.acked + a.failed, 500, "every send resolved");
    // An attempt succeeds when data AND MAC-ACK both get through:
    // 0.6 × 0.6 = 0.36; P(all 8 attempts fail) = 0.64⁸ ≈ 2.8%.
    assert!(
        (460..=500).contains(&a.acked),
        "acked {} of 500 — expected ≈ 486",
        a.acked
    );
    assert!(sim.stats.retries > 200, "retries {}", sim.stats.retries);
    // Deliveries can exceed acks (data got through but the ACK was lost,
    // so the sender retried an already-delivered frame).
    assert!(a.delivered >= a.acked);
}

#[test]
fn unicast_on_dead_link_fails_cleanly() {
    let topo = topo("dead", 2, &[(0, 1, 0.02), (1, 0, 0.02)]);
    let agent = Unicaster {
        remaining: 20,
        acked: 0,
        failed: 0,
        delivered: 0,
    };
    let mut sim = Simulator::new(topo, SimConfig::default(), agent, 5);
    sim.kick(NodeId(0));
    sim.run_until(600 * SEC, |a| a.acked + a.failed == 20);
    assert!(
        sim.agent.failed > 10,
        "a 2% link should exhaust retries most of the time (failed {})",
        sim.agent.failed
    );
    assert_eq!(sim.stats.unicast_failures, sim.agent.failed as u64);
}

/// Two independent saturated broadcasters, used for spatial-reuse checks.
struct TwoSenders {
    senders: [NodeId; 2],
}

impl NodeAgent for TwoSenders {
    type Payload = ();

    fn on_receive(&mut self, _n: NodeId, _f: &Frame<()>, _c: &mut Ctx<'_>) {}
    fn on_tx_done(&mut self, _n: NodeId, _o: TxOutcome, _p: (), _c: &mut Ctx<'_>) {}

    fn poll_tx(&mut self, node: NodeId, _ctx: &mut Ctx<'_>) -> Option<OutFrame<()>> {
        if self.senders.contains(&node) {
            Some(OutFrame {
                dst: None,
                bytes: 1500,
                bitrate: None,
                flow: None,
                payload: (),
            })
        } else {
            None
        }
    }
}

#[test]
fn distant_nodes_transmit_concurrently_neighbors_do_not() {
    // 5-node line, 30 m spacing, carrier sense 42 m: nodes 0 and 4 are
    // 120 m apart — spatial reuse; nodes 0 and 1 sense each other.
    let topo = generate::line(4, 0.9, 0.0, 30.0);

    let far = TwoSenders {
        senders: [NodeId(0), NodeId(4)],
    };
    let mut sim_far = Simulator::new(topo.clone(), SimConfig::default(), far, 11);
    sim_far.kick(NodeId(0));
    sim_far.kick(NodeId(4));
    sim_far.run_until(2 * SEC, |_| false);
    let far_overlap = sim_far.stats.concurrent_airtime;

    let near = TwoSenders {
        senders: [NodeId(0), NodeId(1)],
    };
    let mut sim_near = Simulator::new(topo, SimConfig::default(), near, 11);
    sim_near.kick(NodeId(0));
    sim_near.kick(NodeId(1));
    sim_near.run_until(2 * SEC, |_| false);
    let near_overlap = sim_near.stats.concurrent_airtime;

    assert!(
        far_overlap > 20 * far_overlap.min(near_overlap).max(1) / 20 && far_overlap > 500_000,
        "far senders should overlap heavily: {far_overlap} µs over 2 s"
    );
    assert!(
        near_overlap < far_overlap / 5,
        "neighbors should rarely overlap: near {near_overlap} vs far {far_overlap}"
    );
    // And the far pair pushes roughly twice the frames of a lone sender.
    let total_far = sim_far.stats.tx_frames[0] + sim_far.stats.tx_frames[4];
    let total_near = sim_near.stats.tx_frames[0] + sim_near.stats.tx_frames[1];
    assert!(
        total_far as f64 > 1.5 * total_near as f64,
        "spatial reuse should raise aggregate throughput: {total_far} vs {total_near}"
    );
}

/// Timer echo agent.
struct TimerAgent {
    fired: Vec<(NodeId, u64, u64)>,
}

impl NodeAgent for TimerAgent {
    type Payload = ();
    fn on_receive(&mut self, _n: NodeId, _f: &Frame<()>, _c: &mut Ctx<'_>) {}
    fn on_tx_done(&mut self, _n: NodeId, _o: TxOutcome, _p: (), _c: &mut Ctx<'_>) {}
    fn poll_tx(&mut self, _n: NodeId, _c: &mut Ctx<'_>) -> Option<OutFrame<()>> {
        None
    }
    fn on_timer(&mut self, node: NodeId, token: u64, ctx: &mut Ctx<'_>) {
        self.fired.push((node, token, ctx.now()));
        if token < 3 {
            ctx.set_timer(node, 100, token + 1);
        }
    }
}

#[test]
fn timers_chain() {
    let topo = generate::line(1, 1.0, 0.0, 20.0);
    let agent = TimerAgent { fired: Vec::new() };
    let mut sim = Simulator::new(topo, SimConfig::default(), agent, 1);
    sim.set_timer(NodeId(1), 50, 1);
    sim.run_until(SEC, |_| false);
    assert_eq!(
        sim.agent.fired,
        vec![(NodeId(1), 1, 50), (NodeId(1), 2, 150), (NodeId(1), 3, 250)]
    );
}

#[test]
fn runs_are_deterministic_in_seed() {
    let run = |seed: u64| {
        let topo = generate::testbed(1);
        let agent = Broadcaster {
            remaining: 300,
            received: vec![0; 20],
        };
        let mut sim = Simulator::new(topo, SimConfig::default(), agent, seed);
        sim.kick(NodeId(0));
        sim.run_until(30 * SEC, |_| false);
        (sim.agent.received.clone(), sim.stats.total_rx())
    };
    assert_eq!(run(9), run(9));
    assert_ne!(run(9), run(10));
}

#[test]
fn deadline_stops_the_clock() {
    let topo = generate::line(1, 1.0, 0.0, 20.0);
    let agent = Broadcaster {
        remaining: u32::MAX,
        received: vec![0; 2],
    };
    let mut sim = Simulator::new(topo, SimConfig::default(), agent, 2);
    sim.kick(NodeId(0));
    let end = sim.run_until(SEC / 2, |_| false);
    assert_eq!(end, SEC / 2);
    // Continuing resumes where we stopped.
    let end2 = sim.run_until(SEC, |_| false);
    assert_eq!(end2, SEC);
    assert!(sim.stats.tx_frames[0] > 300);
}

#[test]
fn an_earlier_deadline_leaves_the_clock_where_it_is() {
    let topo = generate::line(1, 1.0, 0.0, 20.0);
    let agent = Broadcaster {
        remaining: u32::MAX,
        received: vec![0; 2],
    };
    let mut sim = Simulator::new(topo, SimConfig::default(), agent, 2);
    sim.kick(NodeId(0));
    assert_eq!(sim.run_until(SEC, |_| false), SEC);
    let events = sim.stats.events;
    // Events past `SEC` are queued; none runs, and the clock stays put.
    assert_eq!(sim.run_until(SEC / 2, |_| false), SEC);
    assert_eq!((sim.now(), sim.stats.events), (SEC, events));
    // The run goes on from there.
    assert_eq!(sim.run_until(2 * SEC, |_| false), 2 * SEC);
    assert!(sim.stats.events > events);
}

#[test]
fn stop_predicate_halts_early() {
    let topo = generate::line(1, 1.0, 0.0, 20.0);
    let agent = Broadcaster {
        remaining: u32::MAX,
        received: vec![0; 2],
    };
    let mut sim = Simulator::new(topo, SimConfig::default(), agent, 2);
    sim.kick(NodeId(0));
    sim.run_until(10 * SEC, |a| a.received[1] >= 10);
    assert!(sim.agent.received[1] >= 10);
    assert!(sim.agent.received[1] < 20, "should stop promptly");
    assert!(sim.now() < 10 * SEC);
}

/// One call the engine made into [`Arrivals`].
#[derive(Debug, PartialEq)]
enum Call {
    Add(NodeId),
    End(usize),
    Poll(NodeId, Time),
    Timer(u64),
}

/// Logs every flow arrival, departure and poll in the order the engine
/// makes them. Every flow counts as resolved, so only a pending arrival
/// can hold a run that `flows_done` would stop.
#[derive(Default)]
struct Arrivals {
    calls: Vec<Call>,
    flows: usize,
}

impl NodeAgent for Arrivals {
    type Payload = ();

    fn on_receive(&mut self, _n: NodeId, _f: &Frame<()>, _c: &mut Ctx<'_>) {}
    fn on_tx_done(&mut self, _n: NodeId, _o: TxOutcome, _p: (), _c: &mut Ctx<'_>) {}

    fn poll_tx(&mut self, node: NodeId, ctx: &mut Ctx<'_>) -> Option<OutFrame<()>> {
        self.calls.push(Call::Poll(node, ctx.now()));
        None
    }

    /// Token 0 is silent; any other is logged and sets `token − 1` one
    /// millisecond later.
    fn on_timer(&mut self, node: NodeId, token: u64, ctx: &mut Ctx<'_>) {
        if token > 0 {
            self.calls.push(Call::Timer(token));
            ctx.set_timer(node, MS, token - 1);
        }
    }
}

impl FlowAgent for Arrivals {
    fn flows_done(&self) -> bool {
        true
    }

    fn flow_progress(&self, _index: usize) -> FlowProgressView {
        FlowProgressView::default()
    }

    fn add_flow(&mut self, desc: &FlowDesc) -> usize {
        self.calls.push(Call::Add(desc.src));
        self.flows += 1;
        self.flows - 1
    }

    fn end_flow(&mut self, index: usize) {
        self.calls.push(Call::End(index));
    }
}

/// A two-node line with nothing scheduled yet.
fn arrivals_sim() -> Simulator<Arrivals> {
    let topo = generate::line(1, 1.0, 0.0, 20.0);
    Simulator::new(topo, SimConfig::default(), Arrivals::default(), 3)
}

/// A one-packet flow from `src` to the other node of the line.
fn arrival(src: usize) -> TrafficAction {
    TrafficAction::Start(FlowDesc::unicast(NodeId(src), NodeId(1 - src), 1))
}

#[test]
fn an_arrival_reaches_add_flow_before_a_poll_due_at_its_instant() {
    // Where node 0's first transmit attempt falls (its kick's backoff).
    let mut probe = arrivals_sim();
    probe.kick(NodeId(0));
    probe.run_until(SEC, |_| false);
    let due = match &probe.agent.calls[..] {
        [Call::Poll(NodeId(0), at)] => *at,
        calls => panic!("expected one poll, got {calls:?}"),
    };
    // The same run with an arrival at that very µs: the flow is added
    // first, and the poll still comes at `due` (the source is already
    // contending, so the arrival's kick draws nothing).
    let mut sim = arrivals_sim();
    sim.kick(NodeId(0));
    sim.schedule_traffic(due, arrival(0));
    sim.run_until(SEC, |_| false);
    assert_eq!(
        sim.agent.calls,
        [Call::Add(NodeId(0)), Call::Poll(NodeId(0), due)]
    );
}

#[test]
fn same_instant_traffic_applies_in_schedule_order() {
    let mut sim = arrivals_sim();
    sim.schedule_traffic(2 * MS, TrafficAction::Stop(0));
    sim.schedule_traffic(MS, arrival(1));
    sim.schedule_traffic(MS, arrival(0));
    sim.schedule_traffic(MS, TrafficAction::Stop(1));
    sim.run_until(SEC, |_| false);
    let lifecycle: Vec<&Call> = sim
        .agent
        .calls
        .iter()
        .filter(|c| !matches!(c, Call::Poll(..)))
        .collect();
    assert_eq!(
        lifecycle,
        [
            &Call::Add(NodeId(1)),
            &Call::Add(NodeId(0)),
            &Call::End(1),
            &Call::End(0)
        ]
    );
}

#[test]
fn an_arrival_precedes_what_the_dispatch_before_it_scheduled_at_its_instant() {
    // Timer 2 fires at 1 ms and sets timer 1 for 2 ms while it is being
    // dispatched. An arrival due at 2 ms applies first.
    let lifecycle = |sim: Simulator<Arrivals>| -> Vec<Call> {
        let calls = sim.agent.calls.into_iter();
        calls.filter(|c| !matches!(c, Call::Poll(..))).collect()
    };
    let mut sim = arrivals_sim();
    sim.set_timer(NodeId(0), MS, 2);
    sim.schedule_traffic(2 * MS, arrival(0));
    sim.run_until(SEC, |_| false);
    assert_eq!(
        lifecycle(sim),
        [Call::Timer(2), Call::Add(NodeId(0)), Call::Timer(1)]
    );

    // An arrival scheduled between two runs, at the instant the first
    // one stopped, applies before the event that instant's dispatch set.
    let mut sim = arrivals_sim();
    sim.set_timer(NodeId(0), MS, 3);
    assert_eq!(sim.run_until(2 * MS, |_| false), 2 * MS);
    sim.schedule_traffic(2 * MS, arrival(1));
    sim.run_until(SEC, |_| false);
    assert_eq!(
        lifecycle(sim),
        [
            Call::Timer(3),
            Call::Timer(2),
            Call::Add(NodeId(1)),
            Call::Timer(1)
        ]
    );
}

#[test]
fn only_arrivals_by_the_deadline_hold_a_finished_run() {
    // Every flow is resolved from the start, so `stop` ends the run at
    // the first event it is consulted on; the timer at 1 ms comes first.
    let run = |arrival_at: Time| {
        let mut sim = arrivals_sim();
        sim.set_timer(NodeId(0), MS, 0);
        sim.schedule_traffic(arrival_at, arrival(0));
        let end = sim.run_until(10 * MS, |a| a.flows_done());
        (end, sim.agent.calls)
    };
    // An arrival at the deadline holds the run until it applies.
    assert_eq!(run(10 * MS), (10 * MS, vec![Call::Add(NodeId(0))]));
    // One past the deadline does not.
    assert_eq!(run(10 * MS + 1), (MS, Vec::new()));
}

/// What [`AckProbe`] saw.
#[derive(Debug, PartialEq)]
enum Seen {
    Heard(NodeId),
    Done(NodeId, TxOutcome),
    Timer(u64),
}

/// The timer token that makes node 1 contend for the air.
const KICK: u64 = 100;

/// Node 0 unicasts 1500 B frames to node 1; node 1 sends one broadcast
/// once a [`KICK`] timer fires. Every reception, outcome and timer is
/// logged with its instant.
struct AckProbe {
    unicasts: u32,
    /// Size of node 1's broadcast.
    broadcast: Option<usize>,
    /// `(token, delay, next)`: when timer `token` fires, timer `next` is
    /// set `delay` µs later.
    relay: Option<(u64, Time, u64)>,
    log: Vec<(Time, Seen)>,
}

impl AckProbe {
    fn new(unicasts: u32) -> Self {
        AckProbe {
            unicasts,
            broadcast: None,
            relay: None,
            log: Vec::new(),
        }
    }
}

impl NodeAgent for AckProbe {
    type Payload = ();

    fn on_receive(&mut self, node: NodeId, _f: &Frame<()>, ctx: &mut Ctx<'_>) {
        self.log.push((ctx.now(), Seen::Heard(node)));
    }

    fn on_tx_done(&mut self, node: NodeId, outcome: TxOutcome, _p: (), ctx: &mut Ctx<'_>) {
        self.log.push((ctx.now(), Seen::Done(node, outcome)));
    }

    fn poll_tx(&mut self, node: NodeId, _ctx: &mut Ctx<'_>) -> Option<OutFrame<()>> {
        let (dst, bytes) = match node.0 {
            0 if self.unicasts > 0 => {
                self.unicasts -= 1;
                (Some(NodeId(1)), 1500)
            }
            1 => (None, self.broadcast.take()?),
            _ => return None,
        };
        Some(OutFrame {
            dst,
            bytes,
            bitrate: None,
            flow: None,
            payload: (),
        })
    }

    fn on_timer(&mut self, node: NodeId, token: u64, ctx: &mut Ctx<'_>) {
        self.log.push((ctx.now(), Seen::Timer(token)));
        if token == KICK {
            ctx.mark_backlogged(NodeId(1));
        }
        if let Some((_, delay, next)) = self.relay.filter(|r| r.0 == token) {
            ctx.set_timer(node, delay, next);
        }
    }
}

/// Every backoff is exactly DIFS, 10 µs: shorter than the two slots an
/// ACK wait runs past the MAC ACK, and equal to SIFS.
fn fixed_backoff(retry_limit: u32) -> SimConfig {
    SimConfig {
        difs_us: 10,
        cw_min: 0,
        cw_max: 0,
        retry_limit,
        ..SimConfig::default()
    }
}

/// Instants of one unicast attempt whose data frame starts at `start`:
/// `(data end, MAC ACK end, ACK timeout)`.
fn attempt(cfg: &SimConfig, start: Time) -> (Time, Time, Time) {
    let data_end = start + cfg.bitrate.airtime(1500);
    let ack_end = data_end + cfg.sifs_us + cfg.ack_bitrate.airtime(cfg.mac_ack_bytes);
    (data_end, ack_end, ack_end + 2 * cfg.slot_us)
}

#[test]
fn an_answered_ack_wait_still_ends_an_exhausted_run_at_its_timeout() {
    // One unicast over a perfect link: the data frame and its MAC ACK
    // get through, and the last transmit attempt (DIFS after the ACK)
    // finds nothing to send. The ACK wait, answered, expires two slots
    // after the ACK — later than any event of the run — and a run that
    // runs out of events stops its clock there.
    let cfg = fixed_backoff(7);
    let (data_end, ack_end, timeout) = attempt(&cfg, cfg.difs_us);
    let link = topo("pair", 2, &[(0, 1, 1.0), (1, 0, 1.0)]);
    let acked = TxOutcome::Acked { retries: 0 };
    for deadline in [SEC, timeout, timeout - 1] {
        let mut sim = Simulator::new(link.clone(), cfg, AckProbe::new(1), 1);
        sim.kick(NodeId(0));
        let end = sim.run_until(deadline, |_| false);
        assert_eq!(
            sim.agent.log,
            [
                (data_end, Seen::Heard(NodeId(1))),
                (ack_end, Seen::Done(NodeId(0), acked))
            ]
        );
        let stopped = deadline.min(timeout);
        assert_eq!((end, sim.now()), (stopped, stopped));
        // A later call runs the clock on to the timeout, and no further.
        assert_eq!(sim.run_until(2 * SEC, |_| false), timeout);
    }
}

/// Runs `probe` on `link` until nothing is left: node 0 kicked at 0 and,
/// at `at`, an early timer (token 1, set now) and a late one (token 2,
/// set by token 3 at `late_from`), both due at `at`.
fn run_probe(
    link: &mesh_topology::Topology,
    cfg: SimConfig,
    mut probe: AckProbe,
    kick_at: Option<Time>,
    at: Time,
    late_from: Time,
) -> Vec<(Time, Seen)> {
    probe.relay = Some((3, at - late_from, 2));
    let mut sim = Simulator::new(link.clone(), cfg, probe, 1);
    sim.kick(NodeId(0));
    if let Some(kick_at) = kick_at {
        sim.set_timer(NodeId(1), kick_at, KICK);
    }
    sim.set_timer(NodeId(0), at, 1);
    sim.set_timer(NodeId(0), late_from, 3);
    sim.run_until(SEC, |_| false);
    sim.agent.log
}

#[test]
fn a_lost_mac_ack_retries_on_time_and_in_order() {
    // Node 1 cannot be heard by node 0, so every MAC ACK is lost. The
    // first wait expires and the frame goes again DIFS later; the second
    // wait exhausts the one retry allowed. That last timeout falls
    // between a timer scheduled before the data frame ended and one
    // scheduled after: events at one instant run in the order they were
    // scheduled, and the wait was scheduled when the data frame ended.
    let cfg = fixed_backoff(1);
    let (first_end, _, first_timeout) = attempt(&cfg, cfg.difs_us);
    let (data_end, _, timeout) = attempt(&cfg, first_timeout + cfg.difs_us);
    let one_way = topo("one-way", 2, &[(0, 1, 1.0)]);
    let probe = AckProbe::new(1);
    let log = run_probe(&one_way, cfg, probe, None, timeout, data_end + 1);
    let failed = TxOutcome::Failed { retries: 2 };
    assert_eq!(
        log,
        [
            (first_end, Seen::Heard(NodeId(1))),
            (data_end, Seen::Heard(NodeId(1))),
            (data_end + 1, Seen::Timer(3)),
            (timeout, Seen::Timer(1)),
            (timeout, Seen::Done(NodeId(0), failed)),
            (timeout, Seen::Timer(2)),
        ]
    );
}

#[test]
fn a_mac_ack_skipped_by_half_duplex_retries_on_time_and_in_order() {
    // Node 1 hears the data frame, but a transmit attempt it scheduled
    // before the frame ended fires at the instant its MAC ACK is due:
    // its own broadcast goes on the air first and the ACK is skipped.
    let link = topo("pair", 2, &[(0, 1, 1.0), (1, 0, 1.0)]);
    let short = 20;
    // Out of retries: the timeout fails the frame, after the timer set
    // before the data frame ended and before the one set after.
    let cfg = fixed_backoff(0);
    let (data_end, _, timeout) = attempt(&cfg, cfg.difs_us);
    let broadcast_end = data_end + cfg.sifs_us + cfg.bitrate.airtime(short);
    let probe = AckProbe {
        broadcast: Some(short),
        ..AckProbe::new(1)
    };
    let log = run_probe(&link, cfg, probe, Some(data_end), timeout, data_end + 1);
    let failed = TxOutcome::Failed { retries: 1 };
    assert_eq!(
        log,
        [
            (data_end, Seen::Timer(KICK)),
            (data_end, Seen::Heard(NodeId(1))),
            (data_end + 1, Seen::Timer(3)),
            (broadcast_end, Seen::Heard(NodeId(0))),
            (broadcast_end, Seen::Done(NodeId(1), TxOutcome::Broadcast)),
            (timeout, Seen::Timer(1)),
            (timeout, Seen::Done(NodeId(0), failed)),
            (timeout, Seen::Timer(2)),
        ]
    );
    // With a retry left, the frame goes again DIFS after the timeout and
    // is acknowledged.
    let cfg = fixed_backoff(1);
    let (retry_end, ack_end, _) = attempt(&cfg, timeout + cfg.difs_us);
    let probe = AckProbe {
        broadcast: Some(short),
        ..AckProbe::new(1)
    };
    let log = run_probe(&link, cfg, probe, Some(data_end), timeout, data_end + 1);
    let acked = TxOutcome::Acked { retries: 1 };
    assert_eq!(
        log[5..],
        [
            (timeout, Seen::Timer(1)),
            (timeout, Seen::Timer(2)),
            (retry_end, Seen::Heard(NodeId(1))),
            (ack_end, Seen::Done(NodeId(0), acked)),
        ]
    );
}

#[test]
#[should_panic(expected = "before the clock")]
fn traffic_cannot_be_scheduled_before_the_clock() {
    let mut sim = arrivals_sim();
    sim.set_timer(NodeId(0), MS, 0);
    assert_eq!(sim.run_until(SEC, |_| false), MS);
    sim.schedule_traffic(MS - 1, arrival(0));
}

#[test]
#[should_panic(expected = "before the clock")]
fn an_earlier_deadline_does_not_open_the_past_to_traffic() {
    let mut sim = arrivals_sim();
    sim.set_timer(NodeId(0), 2 * SEC, 0);
    assert_eq!(sim.run_until(SEC, |_| false), SEC);
    assert_eq!(sim.run_until(SEC / 2, |_| false), SEC);
    sim.schedule_traffic(SEC - 1, arrival(0));
}

/// One frame per planned node, each sent as soon as the node is kicked:
/// `plan[node]` is `Some(dst)` for a unicast, `None` for a broadcast.
/// A timer kicks the node it is set for.
struct OneShot {
    plan: Vec<Option<Option<NodeId>>>,
}

impl NodeAgent for OneShot {
    type Payload = ();

    fn on_receive(&mut self, _n: NodeId, _f: &Frame<()>, _c: &mut Ctx<'_>) {}

    fn on_tx_done(&mut self, _n: NodeId, _o: TxOutcome, _p: (), _c: &mut Ctx<'_>) {}

    fn poll_tx(&mut self, node: NodeId, _c: &mut Ctx<'_>) -> Option<OutFrame<()>> {
        Some(OutFrame {
            dst: self.plan.get_mut(node.0)?.take()?,
            bytes: 1500,
            bitrate: None,
            flow: None,
            payload: (),
        })
    }

    fn on_timer(&mut self, node: NodeId, _token: u64, ctx: &mut Ctx<'_>) {
        ctx.mark_backlogged(node);
    }
}

/// `pairs` linked pairs `(2i, 2i + 1)` with no link, and no position,
/// between pairs: nodes of different pairs neither sense nor jam each
/// other.
fn apart(pairs: usize) -> mesh_topology::Topology {
    let links: Vec<_> = (0..pairs)
        .flat_map(|i| [(2 * i, 2 * i + 1, 1.0), (2 * i + 1, 2 * i, 1.0)])
        .collect();
    topo("apart", 2 * pairs, &links)
}

#[test]
fn concurrent_airtime_sums_each_data_frames_overlap_with_everything_on_the_air() {
    // What `concurrent_airtime` counts: as each data frame begins, the µs
    // it overlaps every frame of another node already on the air, MAC
    // ACKs included. Divided by all airtime (ACKs included) it is the
    // record's `concurrency`, which is no fraction of time: k frames on
    // the air together read (k − 1) / 2.
    let cfg = fixed_backoff(0);
    let air = cfg.bitrate.airtime(1500);
    for k in 1..=4usize {
        let plan = (0..2 * k)
            .map(|node| (node % 2 == 0).then_some(None))
            .collect();
        let mut sim = Simulator::new(apart(k), cfg, OneShot { plan }, 1);
        for i in 0..k {
            sim.kick(NodeId(2 * i));
        }
        sim.run_until(SEC, |_| false);
        // All k begin DIFS after the kick: the i-th overlaps i others.
        let pairs = (k * (k - 1) / 2) as Time;
        assert_eq!(sim.stats.concurrent_airtime, pairs * air, "{k} frames");
        assert_eq!(sim.stats.total_airtime(), k as Time * air);
        let concurrency = sim.stats.concurrent_airtime as f64 / sim.stats.total_airtime() as f64;
        assert_eq!(concurrency, (k - 1) as f64 / 2.0, "{k} frames");
    }
    // A data frame that begins during another pair's MAC ACK counts the
    // µs it shares with the ACK.
    let (data_end, ack_end, _) = attempt(&cfg, cfg.difs_us);
    let ack_start = data_end + cfg.sifs_us;
    let plan = vec![Some(Some(NodeId(1))), None, Some(None), None];
    let mut sim = Simulator::new(apart(2), cfg, OneShot { plan }, 1);
    sim.kick(NodeId(0));
    // Node 2's attempt fires DIFS after its kick, 1 µs into the ACK.
    sim.set_timer(NodeId(2), ack_start + 1 - cfg.difs_us, 0);
    sim.run_until(SEC, |_| false);
    assert_eq!(sim.stats.tx_frames, [1, 0, 1, 0], "one data frame each");
    assert_eq!(sim.stats.concurrent_airtime, ack_end - ack_start - 1);
}

/// Arms timers by script, as a protocol that re-arms a silence timer
/// does. Every firing re-arms some of `tokens` timers at some of `nodes`
/// after some delay, drawn from the agent's own stream; `fired` logs
/// each firing. With `gens` set it is the form without moves: each arm
/// goes under a token carrying its generation, and a firing of any
/// generation but the timer's latest is stale and ignored.
struct Rearm {
    rng: rand_chacha::ChaCha8Rng,
    gens: Option<std::collections::BTreeMap<(NodeId, u64), u64>>,
    fired: Vec<(Time, NodeId, u64)>,
    calls: u64,
    budget: u32,
}

impl Rearm {
    const NODES: usize = 2;
    const TOKENS: u64 = 3;

    fn new(seed: u64, gens: bool) -> Self {
        Rearm {
            rng: rand::SeedableRng::seed_from_u64(seed),
            gens: gens.then(Default::default),
            fired: Vec::new(),
            calls: 0,
            budget: 400,
        }
    }

    /// Arms timer `token` of `node`.
    fn arm(&mut self, node: NodeId, delay: Time, token: u64, ctx: &mut Ctx<'_>) {
        match &mut self.gens {
            Some(gens) => {
                let gen = gens.entry((node, token)).or_default();
                *gen += 1;
                ctx.set_timer(node, delay, (token << 32) | *gen);
            }
            None => ctx.set_timer(node, delay, token),
        }
    }

    /// A burst of arms: delays of 0 (this instant), short and long, so
    /// timers move later, earlier and onto other timers' instants.
    fn burst(&mut self, ctx: &mut Ctx<'_>) {
        use rand::Rng;
        for _ in 0..self.rng.gen_range(0..4usize) {
            let node = NodeId(self.rng.gen_range(0..Self::NODES));
            let token = self.rng.gen_range(0..Self::TOKENS);
            let delay: Time = [0, self.rng.gen_range(1..20), self.rng.gen_range(20..60)]
                [self.rng.gen_range(0..3usize)];
            self.arm(node, delay, token, ctx);
        }
    }
}

impl NodeAgent for Rearm {
    type Payload = ();

    fn on_receive(&mut self, _n: NodeId, _f: &Frame<()>, _c: &mut Ctx<'_>) {}

    fn on_tx_done(&mut self, _n: NodeId, _o: TxOutcome, _p: (), _c: &mut Ctx<'_>) {}

    fn poll_tx(&mut self, _n: NodeId, _c: &mut Ctx<'_>) -> Option<OutFrame<()>> {
        None
    }

    fn on_timer(&mut self, node: NodeId, token: u64, ctx: &mut Ctx<'_>) {
        self.calls += 1;
        let token = match &self.gens {
            Some(gens) => {
                let (token, gen) = (token >> 32, token & 0xFFFF_FFFF);
                if gens.get(&(node, token)).copied().unwrap_or(0) != gen {
                    return; // stale
                }
                token
            }
            None => token,
        };
        self.fired.push((ctx.now(), node, token));
        if self.budget > 0 {
            self.budget -= 1;
            // Keep the script alive: one timer always re-armed.
            self.arm(node, 7, token, ctx);
            self.burst(ctx);
        }
    }
}

#[test]
fn a_re_armed_timer_moves_and_fires_once_where_its_last_arm_put_it() {
    // By hand: timer 0 of node 0 armed for 100, then at 50 re-armed for
    // 120 between timer 1 (armed before it) and timer 2 (after it), all
    // due at 120; and timer 3 armed for 200, then moved up to 150.
    struct Script(Vec<(Time, u64)>);
    impl NodeAgent for Script {
        type Payload = ();
        fn on_receive(&mut self, _n: NodeId, _f: &Frame<()>, _c: &mut Ctx<'_>) {}
        fn on_tx_done(&mut self, _n: NodeId, _o: TxOutcome, _p: (), _c: &mut Ctx<'_>) {}
        fn poll_tx(&mut self, _n: NodeId, _c: &mut Ctx<'_>) -> Option<OutFrame<()>> {
            None
        }
        fn on_timer(&mut self, node: NodeId, token: u64, ctx: &mut Ctx<'_>) {
            self.0.push((ctx.now(), token));
            if token == 9 {
                ctx.set_timer(node, 70, 1);
                ctx.set_timer(node, 70, 0);
                ctx.set_timer(node, 70, 2);
                ctx.set_timer(node, 100, 3);
            }
        }
    }
    let mut sim = Simulator::new(apart(1), SimConfig::default(), Script(Vec::new()), 1);
    sim.set_timer(NodeId(0), 100, 0);
    sim.set_timer(NodeId(0), 200, 3);
    sim.set_timer(NodeId(0), 50, 9);
    sim.run_until(SEC, |_| false);
    assert_eq!(
        sim.agent.0,
        [(50, 9), (120, 1), (120, 0), (120, 2), (150, 3)]
    );
    // Five firings; the entries the moves left behind dispatch nothing.
    // The one timer 3 left at 200 still pops there, as its stale firing
    // would without moves, and the clock stops at it.
    assert_eq!(sim.stats.events, 5);
    assert_eq!(sim.now(), 200);

    // Against the form without moves, over random scripts: the same
    // firings at the same instants in the same order, each timer once at
    // its last arm, and the stale dispatches are the only events saved.
    for seed in 0..20 {
        let run = |gens| {
            let mut sim = Simulator::new(apart(1), SimConfig::default(), Rearm::new(seed, gens), 1);
            sim.set_timer(NodeId(0), 5, 0);
            sim.set_timer(NodeId(1), 5, 0);
            let end = sim.run_until(SEC, |_| false);
            (end, sim.stats.events, sim.agent)
        };
        let (moved_end, moved_events, moved) = run(false);
        let (gen_end, gen_events, gen) = run(true);
        assert_eq!(moved.fired, gen.fired, "seed {seed}");
        assert_eq!(moved_end, gen_end, "seed {seed}");
        assert_eq!(moved.calls, moved.fired.len() as u64, "no stale call");
        let stale = gen.calls - gen.fired.len() as u64;
        assert!(stale > 100, "seed {seed}: {stale} stale firings");
        assert_eq!(gen_events - moved_events, stale, "seed {seed}");
    }
}
