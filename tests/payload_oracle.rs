//! One MORE: `MoreConfig::track_payloads` switches payload bytes on and
//! changes nothing else. A same-seed run with payloads and one without
//! make the same random draws, so every count the simulator and the agent
//! keep — transmissions, receptions, collisions, events, per-flow
//! progress — and the end time are equal, on random small meshes, at any
//! batch size, with a short final batch, unicast and multicast alike.
//! Payloads on also works at a native size of zero bytes.

use more_repro::more::{MoreAgent, MoreConfig};
use more_repro::scenario::{MoreFactory, RunRecord, Scenario};
use more_repro::sim::{
    FlowAgent, FlowDesc, FlowProgressView, SimConfig, SimStats, Simulator, Time, SEC,
};
use more_repro::topology::{generate, NodeId, Topology};
use proptest::prelude::*;

/// What a run measured of its flow: the progress view, and the protocol
/// counters behind it.
#[derive(Debug)]
#[expect(dead_code, reason = "compared through its Debug form")]
struct Progress {
    view: FlowProgressView,
    /// Per destination: batches decoded (its deliveries follow) and
    /// finish time.
    dsts: Vec<(u32, Option<Time>)>,
    /// The batch the source pumps; every earlier one is ACKed.
    src_batch: u32,
    spurious_tx: u64,
}

/// Everything a run measures: the simulator's counters, the flow's
/// progress, and the time the run stopped.
fn run(
    topo: &Topology,
    cfg: MoreConfig,
    src: NodeId,
    dsts: &[NodeId],
    packets: usize,
    seed: u64,
) -> (SimStats, Progress, Time) {
    let mut agent = MoreAgent::new(topo.clone(), cfg);
    let dsts = dsts.to_vec();
    let fi = agent.add_flow(&FlowDesc { src, dsts, packets });
    let mut sim = Simulator::new(topo.clone(), SimConfig::default(), agent, seed);
    sim.kick(src);
    sim.run_until(120 * SEC, |a: &MoreAgent| a.flows_done());
    let flow = &sim.agent.flows()[fi];
    let progress = Progress {
        view: sim.agent.flow_progress(fi),
        dsts: flow
            .dsts
            .iter()
            .map(|d| (d.decoded_batches, d.completed_at))
            .collect(),
        src_batch: flow.src_batch,
        spurious_tx: flow.spurious_tx,
    };
    (sim.stats.clone(), progress, sim.now())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn payloads_on_and_off_replay_the_same_run(
        n in 6usize..=12,
        topo_seed in 0u64..1000,
        run_seed in 0u64..1000,
        k in 0usize..3,
        short in 1usize..32,
        src in 0usize..12,
        n_dsts in 1usize..=3,
        packet_bytes in 0usize..2,
    ) {
        let (k, packet_bytes) = ([1, 8, 32][k], [0, 64][packet_bytes]);
        let topo = generate::random_mesh(n, 70.0, 45.0, topo_seed);
        let src = NodeId(src % n);
        // Destinations spread around the mesh from the source, distinct.
        let dsts: Vec<NodeId> = (1..=n_dsts).map(|i| NodeId((src.0 + i * (n - 1) / n_dsts) % n)).collect();
        // One full batch and a short final one (K = 1 has no short batch).
        let packets = if k == 1 { 2 } else { k + 1 + short % (k - 1) };
        let off = MoreConfig { k, packet_bytes, track_payloads: false, ..MoreConfig::default() };
        let on = MoreConfig { track_payloads: true, ..off };
        let (stats_off, progress_off, end_off) = run(&topo, off, src, &dsts, packets, run_seed);
        let (stats_on, progress_on, end_on) = run(&topo, on, src, &dsts, packets, run_seed);
        prop_assert!(stats_on.total_tx() > 0);
        prop_assert_eq!(format!("{stats_on:?}"), format!("{stats_off:?}"));
        prop_assert_eq!(format!("{progress_on:?}"), format!("{progress_off:?}"));
        prop_assert_eq!(end_on, end_off);
    }
}

/// The same equality through the scenario API, where a zero-byte coded
/// configuration is built by [`MoreFactory`] inside a sweep worker.
#[test]
fn zero_byte_coded_factory_runs_the_payload_free_protocol() {
    let records = |track_payloads: bool| -> Vec<RunRecord> {
        let cfg = MoreConfig {
            packet_bytes: 0,
            track_payloads,
            ..MoreConfig::default()
        };
        Scenario::named("payload_oracle")
            .testbed(1)
            .pair(NodeId(0), NodeId(19))
            .register(MoreFactory::named("MORE", cfg))
            .k(8)
            .packets(20)
            .deadline(120)
            .seeds([1, 2])
            .try_run()
            .expect("valid scenario")
    };
    let on = records(true);
    assert!(on.iter().all(RunRecord::all_completed), "{on:?}");
    assert_eq!(on, records(false));
}
