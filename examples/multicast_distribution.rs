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
use more_repro::sim::{FlowAgent, FlowDesc, SimConfig, Simulator, SEC};
use more_repro::topology::{generate, NodeId};

const PACKETS: usize = 128;

fn main() {
    let topo = generate::testbed(1);
    let src = NodeId(0);
    let dsts = vec![NodeId(19), NodeId(12), NodeId(7)];

    // Multicast: one flow, three destinations.
    let mut agent = MoreAgent::new(topo.clone(), MoreConfig::default());
    let fi = agent.add_flow(&FlowDesc {
        src,
        dsts: dsts.clone(),
        packets: PACKETS,
    });
    let mut sim = Simulator::new(topo.clone(), SimConfig::default(), agent, 5);
    sim.kick(src);
    sim.run_until(900 * SEC, |a: &MoreAgent| a.flows_done());
    assert!(sim.agent.flow_progress(fi).done);
    let mc_tx = sim.stats.total_tx();
    println!("multicast {src} -> {dsts:?}: {PACKETS} packets each");
    let flow = &sim.agent.flows()[fi];
    for d in &flow.dsts {
        println!(
            "  {}: {} packets in {:.2} s",
            d.node,
            flow.delivered(&MoreConfig::default(), d),
            d.completed_at.expect("completed") as f64 / SEC as f64
        );
    }
    println!("  total network transmissions: {mc_tx}\n");

    // The same job as three unicasts.
    let mut uni_tx = 0;
    for (i, &d) in dsts.iter().enumerate() {
        let mut agent = MoreAgent::new(topo.clone(), MoreConfig::default());
        let fi = agent.add_flow(&FlowDesc::unicast(src, d, PACKETS));
        let mut sim = Simulator::new(topo.clone(), SimConfig::default(), agent, 6 + i as u64);
        sim.kick(src);
        sim.run_until(900 * SEC, |a: &MoreAgent| a.flows_done());
        assert!(sim.agent.flow_progress(fi).done);
        uni_tx += sim.stats.total_tx();
    }
    println!("three sequential unicasts: {uni_tx} transmissions");
    println!(
        "multicast saving: {:.0}% fewer transmissions",
        100.0 * (1.0 - mc_tx as f64 / uni_tx as f64)
    );
}
