//! Integration tests for the scenario builder API and the pluggable
//! protocol registry — exercised from *outside* the bench and scenario
//! crates, exactly as a downstream user would.

use more_repro::scenario::{
    record, BuildError, ExpConfig, FlowEvent, FlowSpec, ProtocolFactory, Scenario, ScenarioBuilder,
    Sweep, TopologySpec, TrafficModel, TrafficModelSpec, TrafficSpec,
};
use more_repro::sim::{Ctx, Erased, ErasedFlowAgent, Frame, NodeAgent, OutFrame, TxOutcome};
use more_repro::sim::{FlowAgent, FlowProgressView, Time, SEC};
use more_repro::topology::{generate, NodeId, Topology};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Round-trip determinism: same builder + same seed ⇒ identical records.
// ---------------------------------------------------------------------

fn build_scenario() -> more_repro::scenario::ScenarioBuilder {
    Scenario::named("roundtrip")
        .testbed(3)
        .traffic(TrafficSpec::RandomPairs { count: 4, seed: 11 })
        .protocols(["Srcr", "ExOR", "MORE", "Srcr-autorate"])
        .sweep(Sweep::K(vec![16, 32]))
        .packets(48)
        .deadline(120)
        .seeds([5, 6])
}

#[test]
fn same_builder_and_seed_give_identical_records() {
    let a = build_scenario().run();
    let b = build_scenario().run();
    assert_eq!(a.len(), 4 * 2 * 2 * 4, "protocols × sweep × seeds × pairs");
    assert_eq!(a, b, "scenario runs must be pure functions of their spec");
    // Serialized forms are therefore byte-identical too.
    assert_eq!(record::to_json(&a), record::to_json(&b));
    assert_eq!(record::to_csv(&a), record::to_csv(&b));
    // And a different seed changes results.
    let c = build_scenario().seeds([7, 8]).run();
    assert_ne!(a, c, "different seeds should not replay identically");
}

#[test]
fn sweep_coordinates_are_recorded() {
    let records = build_scenario().run();
    assert!(records.iter().all(|r| r.param == Some("k")));
    let ks: std::collections::BTreeSet<u64> = records
        .iter()
        .map(|r| r.value.expect("swept") as u64)
        .collect();
    assert_eq!(ks.into_iter().collect::<Vec<_>>(), vec![16, 32]);
}

// ---------------------------------------------------------------------
// A user-defined protocol, registered from outside the bench crate.
// ---------------------------------------------------------------------

/// A deliberately naive protocol: every node broadcasts every packet it
/// knows `repeats` times; the destination counts distinct packets. No
/// routing, no metric, no feedback — the dumbest thing that moves data
/// over a lossy chain, and therefore a good smoke test that arbitrary
/// [`NodeAgent`]s plug into the registry.
struct FloodAgent {
    repeats: u32,
    flows: Vec<FloodFlow>,
    n_nodes: usize,
}

struct FloodFlow {
    dst: NodeId,
    total: usize,
    /// Per node: (seq, remaining broadcasts) queue.
    pending: Vec<Vec<(u32, u32)>>,
    /// Per node: which seqs it has seen (dedup).
    seen: Vec<Vec<bool>>,
    delivered: usize,
    completed_at: Option<Time>,
}

impl FloodAgent {
    fn new(topo: &Topology, repeats: u32) -> Self {
        FloodAgent {
            repeats,
            flows: Vec::new(),
            n_nodes: topo.n(),
        }
    }

    fn add_flow(&mut self, src: NodeId, dst: NodeId, total: usize) {
        let mut pending = vec![Vec::new(); self.n_nodes];
        let mut seen = vec![vec![false; total]; self.n_nodes];
        pending[src.0] = (0..total as u32).map(|s| (s, self.repeats)).collect();
        seen[src.0].fill(true);
        self.flows.push(FloodFlow {
            dst,
            total,
            pending,
            seen,
            delivered: 0,
            completed_at: None,
        });
    }
}

#[derive(Clone, Copy, Debug)]
struct FloodPayload {
    flow: usize,
    seq: u32,
}

impl NodeAgent for FloodAgent {
    type Payload = FloodPayload;

    fn on_receive(&mut self, node: NodeId, frame: &Frame<FloodPayload>, ctx: &mut Ctx<'_>) {
        let FloodPayload { flow, seq } = frame.payload;
        let f = &mut self.flows[flow];
        if f.seen[node.0][seq as usize] {
            return;
        }
        f.seen[node.0][seq as usize] = true;
        if node == f.dst {
            f.delivered += 1;
            if f.delivered == f.total {
                f.completed_at = Some(ctx.now());
            }
        } else {
            // Forwarders rebroadcast what they heard.
            f.pending[node.0].push((seq, self.repeats));
            ctx.mark_backlogged(node);
        }
    }

    fn on_tx_done(&mut self, node: NodeId, _outcome: TxOutcome, ctx: &mut Ctx<'_>) {
        if self.flows.iter().any(|f| !f.pending[node.0].is_empty()) {
            ctx.mark_backlogged(node);
        }
    }

    fn poll_tx(&mut self, node: NodeId, _ctx: &mut Ctx<'_>) -> Option<OutFrame<FloodPayload>> {
        for (fi, f) in self.flows.iter_mut().enumerate() {
            if let Some((seq, left)) = f.pending[node.0].last_mut() {
                let payload = FloodPayload {
                    flow: fi,
                    seq: *seq,
                };
                *left -= 1;
                if *left == 0 {
                    f.pending[node.0].pop();
                }
                return Some(OutFrame {
                    dst: None,
                    bytes: 1500,
                    bitrate: None,
                    flow: Some(fi as u32 + 1),
                    payload,
                });
            }
        }
        None
    }
}

impl FlowAgent for FloodAgent {
    fn flows_done(&self) -> bool {
        self.flows.iter().all(|f| f.delivered == f.total)
    }

    fn flow_progress(&self, index: usize) -> FlowProgressView {
        let f = &self.flows[index];
        FlowProgressView {
            delivered: f.delivered,
            completed_at: f.completed_at,
            done: f.delivered == f.total,
        }
    }
}

/// The factory a downstream user writes: ~20 lines, no bench internals.
struct FloodFactory {
    repeats: u32,
}

impl ProtocolFactory for FloodFactory {
    fn name(&self) -> &str {
        "Flood"
    }

    fn build(
        &self,
        topo: &Topology,
        flows: &[FlowSpec],
        _cfg: &ExpConfig,
    ) -> Result<Box<dyn ErasedFlowAgent>, BuildError> {
        let mut agent = FloodAgent::new(topo, self.repeats);
        for f in flows {
            if f.is_multicast() {
                return Err(BuildError::Unsupported("Flood is unicast-only".into()));
            }
            agent.add_flow(f.src, f.dst(), f.packets);
        }
        Ok(Box::new(Erased(agent)))
    }
}

/// Acceptance: a custom user-defined factory runs end-to-end on a 3-node
/// chain *alongside* MORE/ExOR/Srcr, same topology and seed, with no
/// edits inside the bench or scenario crates.
#[test]
fn custom_protocol_runs_alongside_builtins_on_a_chain() {
    // 3-node chain: 0 -> 1 -> 2 with good adjacent links and a weak skip.
    let chain = Arc::new(generate::line(2, 0.95, 0.3, 25.0));
    let records = Scenario::named("custom_protocol")
        .topology(TopologySpec::Fixed(chain))
        .pair(NodeId(0), NodeId(2))
        .protocols(["Srcr", "ExOR", "MORE"])
        .register(FloodFactory { repeats: 6 })
        .packets(16)
        .deadline(120)
        .seeds([9])
        .run();

    assert_eq!(records.len(), 4, "three built-ins plus the custom protocol");
    for r in &records {
        assert_eq!(r.seed, 9, "{}: same seed for every protocol", r.protocol);
        assert_eq!(r.topology, "line2", "{}: same topology", r.protocol);
        assert!(
            r.all_completed(),
            "{} failed to move 16 packets over the chain: {r:?}",
            r.protocol
        );
        assert_eq!(r.flows[0].delivered, 16, "{}", r.protocol);
        assert!(r.flows[0].throughput_pps > 1.0, "{}", r.protocol);
    }
    // The naive flood pays for its ignorance in transmissions: it must
    // cost at least as many as MORE on the same job.
    let tx = |p: &str| {
        records
            .iter()
            .find(|r| r.protocol == p)
            .expect("ran")
            .total_tx
    };
    assert!(
        tx("Flood") > tx("MORE"),
        "flooding ({}) should out-transmit MORE ({})",
        tx("Flood"),
        tx("MORE")
    );
}

/// The registry rejects what a protocol cannot express, at build time.
#[test]
fn unsupported_traffic_surfaces_as_an_error() {
    let err = Scenario::named("multicast_on_srcr")
        .testbed(1)
        .traffic(TrafficSpec::Multicast {
            src: NodeId(0),
            dsts: vec![NodeId(5), NodeId(9)],
        })
        .protocol("Srcr")
        .packets(16)
        .try_run()
        .expect_err("Srcr cannot multicast");
    assert!(matches!(err, BuildError::Unsupported(_)));
}

/// A unicast flow from t = 0, then a multicast flow from the same source
/// arriving two seconds into the run.
struct LateMulticast;

impl TrafficModel for LateMulticast {
    fn schedules(&self, _: &Topology, _: u64, packets: usize, _: Time) -> Vec<Vec<FlowEvent>> {
        vec![vec![
            FlowEvent::Start {
                flow: FlowSpec::unicast(NodeId(0), NodeId(19), packets),
                at: 0,
            },
            FlowEvent::Start {
                flow: FlowSpec {
                    src: NodeId(0),
                    dsts: vec![NodeId(5), NodeId(9)],
                    packets,
                },
                at: 2 * SEC,
            },
        ]]
    }
}

fn late_multicast(protocol: &str) -> ScenarioBuilder {
    Scenario::named("late_multicast")
        .testbed(1)
        .traffic_model(TrafficModelSpec::Custom(Arc::new(LateMulticast)))
        .protocol(protocol)
        .packets(64)
        .deadline(120)
}

/// The multicast check covers flows that arrive mid-run, which never
/// pass through `ProtocolFactory::build`.
#[test]
fn late_multicast_arrival_is_an_error_on_unicast_protocols() {
    for protocol in ["Srcr", "ExOR"] {
        let err = late_multicast(protocol)
            .try_run()
            .expect_err("a unicast protocol cannot take a multicast arrival");
        assert!(
            matches!(err, BuildError::Unsupported(_)),
            "{protocol}: {err}"
        );
    }
}

/// MORE takes the same schedule: unicast and multicast flows share one
/// agent whenever they arrive.
#[test]
fn late_multicast_arrival_completes_on_more() {
    let records = late_multicast("MORE").run();
    let r = &records[0];
    assert!(r.all_completed(), "mixed dynamic flows incomplete: {r:?}");
    assert_eq!(r.flows[0].delivered, 64);
    assert_eq!(r.flows[1].delivered, 2 * 64);
}

/// Multicast through the same builder works for MORE (coded broadcast is
/// destination-count agnostic).
#[test]
fn multicast_scenario_runs_on_more() {
    let records = Scenario::named("multicast_more")
        .testbed(1)
        .traffic(TrafficSpec::Multicast {
            src: NodeId(0),
            dsts: vec![NodeId(7), NodeId(12)],
        })
        .protocol("MORE")
        .packets(32)
        .deadline(240)
        .seeds([4])
        .run();
    assert_eq!(records.len(), 1);
    let r = &records[0];
    assert!(r.all_completed(), "multicast incomplete: {r:?}");
    // Both destinations got the whole transfer.
    assert_eq!(r.flows[0].delivered, 2 * 32);
}

/// One record schema: whatever the channel, queue and traffic model, a
/// record serializes with the same keys in the same order — a consumer
/// never infers the configuration from which keys are missing — and
/// every line is valid JSON.
#[test]
fn every_configuration_serializes_with_the_same_keys() {
    use more_repro::scenario::{ChannelSpec, QueueSpec};
    use more_repro::topology::json::{self, Value};

    let base = |name: &str| {
        Scenario::named(name)
            .testbed(1)
            .protocol("MORE")
            .k(8)
            .packets(16)
            .deadline(60)
    };
    let pair = TrafficSpec::SinglePair {
        src: NodeId(0),
        dst: NodeId(19),
    };
    let runs = [
        base("static").traffic(pair.clone()).run(),
        base("bursty_choke")
            .traffic(pair)
            .channel(ChannelSpec::bursty_matched(0.0, 0.05, 0.2, 10))
            .queue(QueueSpec::choke(8))
            .run(),
        base("poisson")
            .traffic_model(TrafficModelSpec::Poisson {
                rate_per_s: 0.2,
                mean_hold_s: 15.0,
                max_active: 3,
            })
            .run(),
    ];
    let keys = |v: &Value| match v {
        Value::Obj(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        other => panic!("not an object: {other:?}"),
    };
    let mut shapes = Vec::new();
    for r in runs.iter().flatten() {
        let line = json::parse(&r.to_json_line()).expect("every line parses");
        let flows = line.get("flows").and_then(Value::as_arr).expect("flows");
        assert!(!flows.is_empty(), "{}: a run without flows", r.scenario);
        for f in flows {
            shapes.push((keys(&line), keys(f)));
        }
    }
    assert!(shapes.len() >= 3);
    assert!(
        shapes.windows(2).all(|w| w[0] == w[1]),
        "key sets differ between configurations: {shapes:?}"
    );
    assert_eq!(shapes[0].0.len(), 15, "run-level keys: {:?}", shapes[0].0);
    assert_eq!(shapes[0].1.len(), 10, "flow-level keys: {:?}", shapes[0].1);
}
