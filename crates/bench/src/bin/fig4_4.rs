//! Figure 4-4: spatial reuse. Flows whose best path is 4 hops, where the
//! last hop can transmit concurrently with the first. The paper finds
//! MORE's median ≈ 50 % above ExOR here — the headline MAC-independence
//! payoff — because ExOR's scheduler serializes the whole path.
//!
//! We sweep seeds over a 4-hop line topology (30 m spacing puts hops 1
//! and 4 outside each other's carrier-sense range) and report quantiles
//! per protocol plus the measured airtime-overlap fractions.
//!
//! `cargo run --release -p more-bench --bin fig4_4 -- --runs 20`

use mesh_topology::NodeId;
use more_bench::common::{banner, Args};
use more_bench::stats::{median, quantile};
use more_bench::ALL3;
use more_scenario::{Scenario, TopologySpec};

fn main() {
    let args = Args::parse();
    let runs: u64 = args.get("runs", 20);
    let packets: usize = args.get("packets", 192);
    let p_adj: f64 = args.get("p", 0.85);

    banner(
        "Figure 4-4",
        "4-hop flows with spatial reuse (hop 1 ∥ hop 4)",
    );
    println!("{runs} runs over a 4-hop line, adjacent delivery {p_adj}, skip links decay 0.12\n");

    let records = Scenario::named("fig4_4")
        .topology(TopologySpec::Line {
            hops: 4,
            p_adj,
            skip_decay: 0.12,
            spacing: 30.0,
        })
        .pair(NodeId(0), NodeId(4))
        .protocols(ALL3)
        .packets(packets)
        .seeds(1..=runs)
        .run();

    if records.is_empty() {
        println!("(no runs — the scenario grid is empty; check --pairs/--runs)");
        return;
    }

    let mut table = Vec::new();
    for proto in ALL3 {
        let of_proto: Vec<_> = records.iter().filter(|r| r.protocol == proto).collect();
        let tputs: Vec<f64> = of_proto.iter().map(|r| r.mean_throughput()).collect();
        let concs: Vec<f64> = of_proto.iter().map(|r| r.concurrency).collect();
        println!(
            "{:>5}: p10 {:6.1}  median {:6.1}  p90 {:6.1} pkt/s   airtime overlap {:5.1}%",
            proto,
            quantile(&tputs, 0.1),
            median(&tputs),
            quantile(&tputs, 0.9),
            100.0 * median(&concs),
        );
        table.push((proto, median(&tputs)));
    }
    let m = |p: &str| table.iter().find(|(q, _)| *q == p).expect("ran").1;
    println!(
        "\npaper: MORE ≈ 1.50x ExOR on these flows;  here: {:.2}x (MORE/Srcr {:.2}x)",
        m("MORE") / m("ExOR"),
        m("MORE") / m("Srcr")
    );
}
