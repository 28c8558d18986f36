//! End-to-end integration: every protocol moves real files across
//! simulated meshes, correctly and deterministically.

use more_repro::baselines::{ExorAgent, ExorConfig, SrcrAgent, SrcrConfig};
use more_repro::more::{MoreAgent, MoreConfig};
use more_repro::sim::{Bitrate, SimConfig, Simulator, SEC};
use more_repro::topology::{generate, NodeId, Topology};

fn more_run(topo: &Topology, s: usize, d: usize, packets: usize, seed: u64) -> (bool, usize, u64) {
    let mut agent = MoreAgent::new(topo.clone(), MoreConfig::default());
    let fi = agent.add_flow(NodeId(s), &[NodeId(d)], packets);
    let mut sim = Simulator::new(topo.clone(), SimConfig::default(), agent, seed);
    sim.kick(NodeId(s));
    sim.run_until(600 * SEC, |a: &MoreAgent| a.all_done());
    let p = sim.agent.progress(fi);
    (p.done, p.delivered_packets, sim.stats.total_tx())
}

#[test]
fn more_completes_on_every_topology_family() {
    let cases: Vec<(Topology, usize, usize)> = vec![
        (generate::motivating_symmetric(), 0, 2),
        (generate::line(3, 0.7, 0.3, 25.0), 0, 3),
        (generate::grid(4, 3, 0.8, 0.3, 22.0), 0, 11),
        (generate::testbed(2), 5, 14),
        (generate::random_mesh(12, 80.0, 50.0, 3), 0, 11),
    ];
    for (topo, s, d) in cases {
        let (done, delivered, _) = more_run(&topo, s, d, 64, 1);
        assert!(done, "MORE stuck on {}", topo.name);
        assert_eq!(delivered, 64, "wrong delivery on {}", topo.name);
    }
}

#[test]
fn more_payload_integrity_over_lossy_multihop() {
    // track_payloads makes the destination assert decoded bytes == file.
    let topo = generate::testbed(4);
    let cfg = MoreConfig {
        k: 16,
        packet_bytes: 512,
        track_payloads: true,
        ..MoreConfig::default()
    };
    let mut agent = MoreAgent::new(topo.clone(), cfg);
    let fi = agent.add_flow(NodeId(0), &[NodeId(19)], 48);
    let mut sim = Simulator::new(topo, SimConfig::default(), agent, 11);
    sim.kick(NodeId(0));
    sim.run_until(600 * SEC, |a: &MoreAgent| a.all_done());
    assert!(sim.agent.progress(fi).done);
    assert_eq!(sim.agent.progress(fi).delivered_packets, 48);
}

#[test]
fn exor_and_srcr_complete_on_the_testbed() {
    let topo = generate::testbed(2);
    // ExOR
    let mut ea = ExorAgent::new(topo.clone(), ExorConfig::default());
    let efi = ea.add_flow(NodeId(5), NodeId(14), 64);
    let mut esim = Simulator::new(topo.clone(), SimConfig::default(), ea, 2);
    esim.kick(NodeId(5));
    esim.run_until(600 * SEC, |a: &ExorAgent| a.all_done());
    assert!(esim.agent.progress(efi).done, "ExOR stuck");
    assert_eq!(esim.agent.progress(efi).delivered, 64);
    // Srcr
    let mut sa = SrcrAgent::new(topo.clone(), SrcrConfig::default(), Bitrate::B5_5);
    let sfi = sa.add_flow(NodeId(5), NodeId(14), 64);
    let mut ssim = Simulator::new(topo, SimConfig::default(), sa, 2);
    ssim.kick(NodeId(5));
    ssim.run_until(600 * SEC, |a: &SrcrAgent| a.all_done());
    let p = ssim.agent.progress(sfi);
    assert!(p.done, "Srcr stuck");
    assert_eq!(p.delivered + p.dropped, 64);
}

#[test]
fn identical_seeds_give_identical_runs() {
    let topo = generate::testbed(3);
    let a = more_run(&topo, 0, 19, 64, 77);
    let b = more_run(&topo, 0, 19, 64, 77);
    assert_eq!(a, b, "same seed must reproduce exactly");
    let c = more_run(&topo, 0, 19, 64, 78);
    assert_ne!(a.2, c.2, "different seeds should differ in tx counts");
}

#[test]
fn stopping_rule_silences_the_network() {
    let topo = generate::testbed(1);
    let mut agent = MoreAgent::new(topo.clone(), MoreConfig::default());
    let fi = agent.add_flow(NodeId(2), &[NodeId(17)], 64);
    let mut sim = Simulator::new(topo, SimConfig::default(), agent, 5);
    sim.kick(NodeId(2));
    sim.run_until(600 * SEC, |a: &MoreAgent| a.all_done());
    assert!(sim.agent.progress(fi).done);
    let tx_at_done = sim.stats.total_tx();
    let t = sim.now();
    sim.run_until(t + 5 * SEC, |_| false);
    assert!(
        sim.stats.total_tx() - tx_at_done <= 2,
        "network kept talking after the flow finished"
    );
}

#[test]
fn concurrent_flows_all_protocols() {
    let topo = generate::testbed(1);
    let flows = [(NodeId(0), NodeId(19)), (NodeId(7), NodeId(12))];

    let mut ma = MoreAgent::new(topo.clone(), MoreConfig::default());
    for &(s, d) in &flows {
        ma.add_flow(s, &[d], 32);
    }
    let mut msim = Simulator::new(topo.clone(), SimConfig::default(), ma, 3);
    for &(s, _) in &flows {
        msim.kick(s);
    }
    msim.run_until(600 * SEC, |a: &MoreAgent| a.all_done());
    for i in 0..flows.len() {
        assert!(msim.agent.progress(i).done, "MORE flow {i} stuck");
    }

    let mut ea = ExorAgent::new(topo.clone(), ExorConfig::default());
    for &(s, d) in &flows {
        ea.add_flow(s, d, 32);
    }
    let mut esim = Simulator::new(topo, SimConfig::default(), ea, 3);
    for &(s, _) in &flows {
        esim.kick(s);
    }
    esim.run_until(900 * SEC, |a: &ExorAgent| a.all_done());
    for i in 0..flows.len() {
        assert!(esim.agent.progress(i).done, "ExOR flow {i} stuck");
    }
}

#[test]
fn batch_sizes_all_work() {
    let topo = generate::line(2, 0.8, 0.2, 25.0);
    for k in [1usize, 8, 32, 128] {
        let cfg = MoreConfig {
            k,
            ..MoreConfig::default()
        };
        let mut agent = MoreAgent::new(topo.clone(), cfg);
        let fi = agent.add_flow(NodeId(0), &[NodeId(2)], 2 * k + k / 2 + 1);
        let mut sim = Simulator::new(topo.clone(), SimConfig::default(), agent, 4);
        sim.kick(NodeId(0));
        sim.run_until(600 * SEC, |a: &MoreAgent| a.all_done());
        assert!(sim.agent.progress(fi).done, "K={k} stuck");
        assert_eq!(sim.agent.progress(fi).delivered_packets, 2 * k + k / 2 + 1);
    }
}
