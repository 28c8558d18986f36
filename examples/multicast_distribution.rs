//! Content distribution to several receivers at once — the multicast
//! traffic the paper's introduction motivates (video/IPTV distribution),
//! and the workload ExOR's strict scheduler cannot express.
//!
//! One coded broadcast is useful to every downstream destination
//! simultaneously, so multicasting to three nodes costs far less than
//! three unicasts.
//!
//! ```sh
//! cargo run --release --example multicast_distribution
//! ```

use more_repro::more::{MoreAgent, MoreConfig};
use more_repro::sim::{SimConfig, Simulator, SEC};
use more_repro::topology::{generate, NodeId};

const PACKETS: usize = 128;

fn main() {
    let topo = generate::testbed(1);
    let src = NodeId(0);
    let dsts = vec![NodeId(19), NodeId(12), NodeId(7)];

    // Multicast: one flow, three destinations.
    let mut agent = MoreAgent::new(topo.clone(), MoreConfig::default());
    let fi = agent.add_flow(src, &dsts, PACKETS);
    let mut sim = Simulator::new(topo.clone(), SimConfig::default(), agent, 5);
    sim.kick(src);
    sim.run_until(900 * SEC, |a: &MoreAgent| a.all_done());
    assert!(sim.agent.progress(fi).done);
    let mc_tx = sim.stats.total_tx();
    println!("multicast {src} -> {dsts:?}: {PACKETS} packets each");
    for d in &sim.agent.flows()[fi].dsts {
        println!(
            "  {}: {} packets in {:.2} s",
            d.node,
            d.delivered_packets,
            d.completed_at.expect("completed") as f64 / SEC as f64
        );
    }
    println!("  total network transmissions: {mc_tx}\n");

    // The same job as three unicasts.
    let mut uni_tx = 0;
    for (i, &d) in dsts.iter().enumerate() {
        let mut agent = MoreAgent::new(topo.clone(), MoreConfig::default());
        let fi = agent.add_flow(src, &[d], PACKETS);
        let mut sim = Simulator::new(topo.clone(), SimConfig::default(), agent, 6 + i as u64);
        sim.kick(src);
        sim.run_until(900 * SEC, |a: &MoreAgent| a.all_done());
        assert!(sim.agent.progress(fi).done);
        uni_tx += sim.stats.total_tx();
    }
    println!("three sequential unicasts: {uni_tx} transmissions");
    println!(
        "multicast saving: {:.0}% fewer transmissions",
        100.0 * (1.0 - mc_tx as f64 / uni_tx as f64)
    );
}
