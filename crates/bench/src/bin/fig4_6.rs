//! Figure 4-6: opportunistic routing against Srcr with autorate.
//!
//! The paper compares MORE and ExOR at a fixed 11 Mb/s against Srcr with
//! MadWifi's Onoe autorate, finding that autorate does not close the gap —
//! autorate parks challenged links at low bit-rates, whose long airtimes
//! hog the medium (§4.4). We print the same four series.
//!
//! `cargo run --release -p more-bench --bin fig4_6 -- --pairs 40`

use mesh_sim::Bitrate;
use more_bench::common::{banner, Args};
use more_bench::stats::{median, quantile};
use more_bench::throughputs_by_protocol;
use more_scenario::{Scenario, TrafficSpec};

fn main() {
    let args = Args::parse();
    let n_pairs: usize = args.get("pairs", 40);
    let packets: usize = args.get("packets", 192);
    let seed: u64 = args.get("seed", 1);
    let topo_seed: u64 = args.get("topo-seed", 1);

    banner(
        "Figure 4-6",
        "MORE/ExOR at fixed 11 Mb/s vs Srcr fixed and Srcr autorate",
    );
    let records = Scenario::named("fig4_6")
        .testbed(topo_seed)
        .traffic(TrafficSpec::RandomPairs {
            count: n_pairs,
            seed,
        })
        .protocols(["Srcr", "Srcr-autorate", "ExOR", "MORE"])
        .bitrate(Bitrate::B11)
        .packets(packets)
        .seeds([seed])
        .run();

    if records.is_empty() {
        println!("(no runs — the scenario grid is empty; check --pairs/--runs)");
        return;
    }

    let mut medians = Vec::new();
    for (proto, tputs) in throughputs_by_protocol(&records) {
        println!(
            "{:>14}: p10 {:7.1}  median {:7.1}  p90 {:7.1} pkt/s",
            proto,
            quantile(&tputs, 0.1),
            median(&tputs),
            quantile(&tputs, 0.9)
        );
        medians.push((proto, median(&tputs)));
    }
    let m = |p: &str| medians.iter().find(|(q, _)| q == p).expect("ran").1;
    println!("\npaper: MORE and ExOR preserve their gains over Srcr even with autorate");
    println!(
        "here : MORE/Srcr-autorate = {:.2}x, ExOR/Srcr-autorate = {:.2}x, autorate/fixed Srcr = {:.2}x",
        m("MORE") / m("Srcr-autorate"),
        m("ExOR") / m("Srcr-autorate"),
        m("Srcr-autorate") / m("Srcr"),
    );
}
