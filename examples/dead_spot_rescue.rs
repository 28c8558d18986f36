//! Dead-spot rescue: the scenario the paper's intro motivates.
//!
//! Find the most challenged pair on the testbed (worst Srcr throughput)
//! and show opportunistic routing reviving it: many weak paths beat one
//! mediocre best path.
//!
//! Prints the probe results to stdout and writes the key numbers as JSON
//! to `results/dead_spot_rescue.json` (the path is printed at the end).
//!
//! ```sh
//! cargo run --release --example dead_spot_rescue
//! ```

use more_repro::baselines::{SrcrAgent, SrcrConfig};
use more_repro::more::{MoreAgent, MoreConfig};
use more_repro::sim::{Bitrate, SimConfig, Simulator, SEC};
use more_repro::topology::{generate, NodeId};

const PACKETS: usize = 96;

fn srcr_throughput(topo: &more_repro::topology::Topology, s: NodeId, d: NodeId) -> f64 {
    let mut agent = SrcrAgent::new(topo.clone(), SrcrConfig::default(), Bitrate::B5_5);
    let flow = agent.add_flow(s, d, PACKETS);
    let mut sim = Simulator::new(topo.clone(), SimConfig::default(), agent, 9);
    sim.kick(s);
    let deadline = 240 * SEC;
    sim.run_until(deadline, |a: &SrcrAgent| a.all_done());
    let p = sim.agent.progress(flow);
    let t = p.completed_at.unwrap_or(deadline).max(1);
    p.delivered as f64 / (t as f64 / SEC as f64)
}

fn more_throughput(topo: &more_repro::topology::Topology, s: NodeId, d: NodeId) -> (f64, usize) {
    let mut agent = MoreAgent::new(topo.clone(), MoreConfig::default());
    let flow = agent.add_flow(s, &[d], PACKETS);
    let n_forwarders = agent.flows()[flow].dsts[0].plan.forwarders().len();
    let mut sim = Simulator::new(topo.clone(), SimConfig::default(), agent, 9);
    sim.kick(s);
    let deadline = 240 * SEC;
    sim.run_until(deadline, |a: &MoreAgent| a.all_done());
    let p = sim.agent.progress(flow);
    let t = p.completed_at.unwrap_or(deadline).max(1);
    (
        p.delivered_packets as f64 / (t as f64 / SEC as f64),
        n_forwarders,
    )
}

fn main() {
    let topo = generate::testbed(1);

    // Probe a sample of pairs for the worst Srcr performer.
    println!("probing for the testbed's dead spot (worst Srcr pair)...");
    let mut worst: Option<(NodeId, NodeId, f64)> = None;
    for s in topo.nodes().step_by(2) {
        for d in topo.nodes().skip(1).step_by(3) {
            if s == d || topo.hop_count(s, d).is_none() {
                continue;
            }
            let t = srcr_throughput(&topo, s, d);
            if worst.is_none() || t < worst.expect("set").2 {
                worst = Some((s, d, t));
            }
        }
    }
    let (s, d, srcr_tput) = worst.expect("some pair probed");
    println!(
        "dead spot: {s} -> {d} ({} hops) — Srcr manages {srcr_tput:.1} pkt/s\n",
        topo.hop_count(s, d).expect("reachable")
    );

    let (more_tput, n_fwd) = more_throughput(&topo, s, d);
    let gain = more_tput / srcr_tput.max(0.1);
    println!("MORE on the same pair: {more_tput:.1} pkt/s using {n_fwd} forwarders");
    println!(
        "opportunistic gain: {gain:.1}x  (the paper reports challenged flows gaining up to 10-12x)"
    );

    let out_path = "results/dead_spot_rescue.json";
    let json = format!(
        "{{\n  \"src\": {}, \"dst\": {}, \"hops\": {},\n  \"srcr_pkt_per_s\": {srcr_tput:.2},\n  \"more_pkt_per_s\": {more_tput:.2},\n  \"more_forwarders\": {n_fwd},\n  \"gain\": {gain:.2}\n}}\n",
        s.0,
        d.0,
        topo.hop_count(s, d).expect("reachable"),
    );
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write(out_path, json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("\nkey numbers written to {out_path}");
}
