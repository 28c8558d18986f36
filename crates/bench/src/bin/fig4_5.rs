//! Figure 4-5: multiple concurrent flows. Average per-flow throughput
//! (bars) ± std-dev over random runs for 1–4 flows. The paper's findings:
//! opportunistic routing keeps its edge but gains shrink with congestion,
//! and the MORE–ExOR gap closes (congestion hides ExOR's serialization).
//!
//! `cargo run --release -p more-bench --bin fig4_5 -- --runs 40`

use more_bench::common::{banner, Args};
use more_bench::stats::{mean, std_dev};
use more_bench::ALL3;
use more_scenario::{Scenario, Sweep, TrafficSpec};

fn main() {
    let args = Args::parse();
    let runs: u64 = args.get("runs", 40);
    let packets: usize = args.get("packets", 128);
    let topo_seed: u64 = args.get("topo-seed", 1);

    banner(
        "Figure 4-5",
        "average per-flow throughput vs number of flows",
    );
    println!("{runs} random runs per point, {packets} packets per flow\n");
    println!(
        "{:>7} | {:>18} {:>18} {:>18}",
        "#flows", "Srcr", "ExOR", "MORE"
    );

    // Each run seed draws a fresh random flow set (distinct sources: a
    // node sources at most one flow), then every protocol runs the same
    // sets — the sweep varies how many of those flows run concurrently.
    let records = Scenario::named("fig4_5")
        .testbed(topo_seed)
        .traffic(TrafficSpec::RandomConcurrent {
            n_flows: 1,
            seed_offset: 1000,
            distinct_sources: true,
        })
        .protocols(ALL3)
        .sweep(Sweep::Flows(vec![1, 2, 3, 4]))
        .packets(packets)
        .seeds(1..=runs)
        .run();

    if records.is_empty() {
        println!("(no runs — the scenario grid is empty; check --pairs/--runs)");
        return;
    }

    let mut per_count: Vec<Vec<f64>> = Vec::new();
    for n_flows in 1..=4usize {
        let mut row = format!("{n_flows:>7} |");
        let mut means = Vec::new();
        for proto in ALL3 {
            let tputs: Vec<f64> = records
                .iter()
                .filter(|r| r.protocol == proto && r.value == Some(n_flows as f64))
                .map(|r| r.mean_throughput())
                .collect();
            row.push_str(&format!("  {:7.1} ±{:6.1}", mean(&tputs), std_dev(&tputs)));
            means.push(mean(&tputs));
        }
        println!("{row}");
        per_count.push(means);
    }

    // Headline shape: the MORE/ExOR gap narrows as flows increase.
    let gap1 = per_count[0][2] / per_count[0][1];
    let gap4 = per_count[3][2] / per_count[3][1];
    println!(
        "\npaper: MORE/ExOR gap shrinks with more flows;  here: 1 flow {gap1:.2}x -> 4 flows {gap4:.2}x"
    );
    println!(
        "paper: per-flow throughput decreases with flow count for all protocols;  here MORE: {:.1} -> {:.1} pkt/s",
        per_count[0][2], per_count[3][2]
    );
}
