//! Property tests for the simulator's conservation laws and failure
//! behaviour: whatever the topology, seed, traffic shape and transmit
//! queue, the medium never invents receptions, time never runs
//! backwards, and every frame an agent polls comes back to it exactly
//! once, with the outcome that fits the frame.

use mesh_sim::queue::Aqm;
use mesh_sim::{
    ChannelSpec, Ctx, Frame, NodeAgent, OutFrame, QueueSpec, SimConfig, Simulator, TxOutcome, SEC,
};
use mesh_topology::{generate, NodeId};
use proptest::prelude::*;

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

/// One frame [`Mixed`] polled: who sent it, whether it was a unicast,
/// and how often it has come back through `on_tx_done`.
struct Polled {
    node: NodeId,
    unicast: bool,
    returns: u32,
}

/// An agent where a configurable set of broadcasters and one unicaster
/// exercise the MAC, recording invariants as it goes. Every polled frame
/// carries a fresh id — its index in `polled` — as its payload.
struct Mixed {
    /// Broadcasting nodes, each with the frames it has left to send.
    broadcasters: Vec<(NodeId, u32)>,
    unicaster: Option<(NodeId, NodeId, u32)>,
    /// Whether the run has a bounded transmit queue that may drop.
    bounded: bool,
    /// Unicasts that came back, by any outcome.
    resolved: u32,
    polled: Vec<Polled>,
    receive_times: Vec<u64>,
    last_now: u64,
}

impl Mixed {
    fn new(broadcasters: Vec<(NodeId, u32)>, unicaster: Option<(NodeId, NodeId, u32)>) -> Self {
        Mixed {
            broadcasters,
            unicaster,
            bounded: false,
            resolved: 0,
            polled: Vec::new(),
            receive_times: Vec::new(),
            last_now: 0,
        }
    }

    /// Hands out the next frame id.
    fn frame(&mut self, node: NodeId, dst: Option<NodeId>, bytes: usize) -> OutFrame<usize> {
        let id = self.polled.len();
        self.polled.push(Polled {
            node,
            unicast: dst.is_some(),
            returns: 0,
        });
        OutFrame {
            dst,
            bytes,
            bitrate: None,
            flow: None,
            payload: id,
        }
    }
}

impl NodeAgent for Mixed {
    type Payload = usize;

    fn on_receive(&mut self, _node: NodeId, _f: &Frame<usize>, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        assert!(now >= self.last_now, "time ran backwards");
        self.last_now = now;
        self.receive_times.push(now);
    }

    fn on_tx_done(&mut self, node: NodeId, outcome: TxOutcome, id: usize, _ctx: &mut Ctx<'_>) {
        let frame = &mut self.polled[id];
        frame.returns += 1;
        assert_eq!(frame.returns, 1, "frame {id} came back twice");
        assert_eq!(frame.node, node, "frame {id} came back to the wrong node");
        match outcome {
            TxOutcome::Broadcast => assert!(!frame.unicast, "unicast {id} reported as broadcast"),
            TxOutcome::Acked { .. } | TxOutcome::Failed { .. } => {
                assert!(frame.unicast, "broadcast {id} reported {outcome:?}");
            }
            TxOutcome::Dropped(_) => assert!(self.bounded, "frame {id} dropped by no queue"),
        }
        if frame.unicast {
            self.resolved += 1;
        }
    }

    fn poll_tx(&mut self, node: NodeId, _ctx: &mut Ctx<'_>) -> Option<OutFrame<usize>> {
        if let Some((s, d, ref mut left)) = self.unicaster {
            if node == s && *left > 0 {
                *left -= 1;
                return Some(self.frame(node, Some(d), 400));
            }
        }
        let (_, left) = self.broadcasters.iter_mut().find(|(b, _)| *b == node)?;
        *left = left.checked_sub(1)?;
        Some(self.frame(node, None, 800))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Conservation: every reception corresponds to a transmission; total
    /// receptions ≤ transmissions × (n − 1); unicasts resolve exactly once
    /// each; airtime is consistent with the clock.
    #[test]
    fn conservation_laws(
        topo_seed in 0u64..100,
        sim_seed in 0u64..1000,
        n_broadcasters in 0usize..3,
        unicasts in 0u32..40,
    ) {
        let topo = generate::random_mesh(8, 60.0, 40.0, topo_seed);
        let n = topo.n();
        let broadcasters: Vec<_> = (0..n_broadcasters).map(|b| (NodeId(b), u32::MAX)).collect();
        let unicaster = if unicasts > 0 {
            Some((NodeId(n - 1), NodeId(n - 2), unicasts))
        } else {
            None
        };
        let agent = Mixed::new(broadcasters.clone(), unicaster);
        let mut sim = Simulator::new(topo, SimConfig::default(), agent, sim_seed);
        for &(b, _) in &broadcasters {
            sim.kick(b);
        }
        if unicaster.is_some() {
            sim.kick(NodeId(n - 1));
        }
        let end = sim.run_until(3 * SEC, |_| false);
        prop_assert!(end <= 3 * SEC);

        let tx = sim.stats.total_tx();
        let rx = sim.stats.total_rx();
        prop_assert!(rx <= tx * (n as u64 - 1), "rx {rx} > tx {tx} × (n−1)");
        if unicasts > 0 {
            // Every injected unicast resolves exactly once (acked or
            // failed) — none lost, none double-reported. (Some may still
            // be in flight at the deadline.)
            prop_assert!(sim.agent.resolved <= unicasts);
            // Run to quiescence: everything resolves.
            sim.run_until(end + 30 * SEC, |a: &Mixed| a.resolved == unicasts);
            prop_assert_eq!(sim.agent.resolved, unicasts, "unicasts unresolved");
        }
        // Airtime a single radio used cannot exceed the elapsed clock.
        for node_air in &sim.stats.airtime {
            prop_assert!(*node_air <= sim.now() + 20_000);
        }
    }

    /// The engine's one exit per frame: under any transmit queue, every
    /// frame the agent polls comes back through `on_tx_done` exactly
    /// once, at the node that sent it, carrying its own payload, with
    /// `Broadcast` for a broadcast, `Acked`/`Failed` for a unicast, and
    /// `Dropped` only where a bounded queue discarded it (asserted in
    /// [`Mixed::on_tx_done`]). Every sender has a finite budget, so the
    /// run ends when the events do. The CHOKe(4) queue has the classic
    /// thresholds, but its average follows the depth (weight 1), so it
    /// peeks from the second queued frame on and drops matched pairs from
    /// the middle of the queue; at the classic weight 0.002 a run this
    /// short never leaves its minimum.
    #[test]
    fn every_polled_frame_comes_back_exactly_once(
        topo_seed in 0u64..100,
        sim_seed in 0u64..1000,
        n_broadcasters in 0usize..3,
        broadcasts in 0u32..40,
        unicasts in 0u32..40,
        queue in 0usize..3,
    ) {
        let choke = Aqm { capacity: 4, min_th: 1.0, max_th: 3.0, max_p: 0.1, weight: 1.0 };
        let spec = [QueueSpec::Unbounded, QueueSpec::drop_tail(2), QueueSpec::Choke(choke)][queue].clone();
        let topo = generate::random_mesh(8, 60.0, 40.0, topo_seed);
        let n = topo.n();
        let broadcasters = (0..n_broadcasters).map(|b| (NodeId(b), broadcasts)).collect();
        let mut agent = Mixed::new(broadcasters, Some((NodeId(n - 1), NodeId(n - 2), unicasts)));
        agent.bounded = !spec.is_unbounded();
        let mut sim = Simulator::with_queue(
            topo,
            SimConfig::default(),
            &ChannelSpec::Static,
            &spec,
            agent,
            sim_seed,
        );
        for node in (0..n_broadcasters).chain([n - 1]) {
            sim.kick(NodeId(node));
        }
        let end = sim.run_until(600 * SEC, |_| false);
        prop_assert!(end < 600 * SEC, "the run did not go quiet");
        let polled = &sim.agent.polled;
        if let Some(id) = polled.iter().position(|f| f.returns != 1) {
            prop_assert!(false, "frame {id} came back {} times", polled[id].returns);
        }
        // The unicaster's first fill polls its frames back to back: past
        // two, DropTail overflows, and CHOKe matches the second arrival
        // against the first. Those drops are part of what came back.
        let s = &sim.stats;
        match queue {
            1 if unicasts > 2 => prop_assert!(s.queue_drops_overflow > 0, "no tail drop"),
            2 if unicasts > 1 => prop_assert!(s.queue_drops_match > 0, "no matched drop"),
            _ => {}
        }
    }

    /// Determinism as a property: any (topology, traffic, seed) triple
    /// replays identically.
    #[test]
    fn replay_identical(topo_seed in 0u64..50, sim_seed in 0u64..1000) {
        let run = || {
            let topo = generate::random_mesh(6, 50.0, 40.0, topo_seed);
            let agent = Mixed::new(vec![(NodeId(0), u32::MAX)], Some((NodeId(1), NodeId(2), 5)));
            let mut sim = Simulator::new(topo, SimConfig::default(), agent, sim_seed);
            sim.kick(NodeId(0));
            sim.kick(NodeId(1));
            sim.run_until(SEC, |_| false);
            (sim.stats.total_tx(), sim.stats.total_rx(), sim.agent.receive_times.clone())
        };
        prop_assert_eq!(run(), run());
    }

    /// Disconnected nodes never receive anything.
    #[test]
    fn no_reception_without_links(sim_seed in 0u64..500) {
        // Two islands: 0-1 linked, 2 isolated.
        let topo = topo("islands", 3, &[(0, 1, 0.9), (1, 0, 0.9)]);
        let agent = Mixed::new(vec![(NodeId(0), u32::MAX)], None);
        let mut sim = Simulator::new(topo, SimConfig::default(), agent, sim_seed);
        sim.kick(NodeId(0));
        sim.run_until(SEC, |_| false);
        prop_assert_eq!(sim.stats.rx_frames[2], 0, "isolated node received");
        prop_assert!(sim.stats.rx_frames[1] > 0, "linked node received nothing");
    }
}
