//! Figure 4-2: CDF of unicast throughput for MORE, ExOR, and Srcr over
//! random source–destination pairs on the testbed.
//!
//! Paper's findings to reproduce in shape: MORE's median ≈ +22 % over
//! ExOR and ≈ +95 % over Srcr; challenged pairs gain up to 10–12×; the
//! 10th percentiles (dead spots) order MORE > ExOR ≫ Srcr.
//!
//! `cargo run --release -p more-bench --bin fig4_2 -- --pairs 200 --packets 384`

use more_bench::common::{banner, Args};
use more_bench::stats::{median, print_cdf, quantile};
use more_bench::{throughputs_by_protocol, RunRecord, ALL3};
use more_scenario::{Scenario, TrafficSpec};

fn main() {
    let args = Args::parse();
    let n_pairs: usize = args.get("pairs", 60);
    let packets: usize = args.get("packets", 192);
    let seed: u64 = args.get("seed", 1);
    let topo_seed: u64 = args.get("topo-seed", 1);

    banner(
        "Figure 4-2",
        "CDF of unicast throughput (MORE vs ExOR vs Srcr)",
    );
    println!(
        "testbed seed {topo_seed}, {n_pairs} pairs, {packets} packets/transfer, K=32, 5.5 Mb/s\n"
    );

    let records = Scenario::named("fig4_2")
        .testbed(topo_seed)
        .traffic(TrafficSpec::RandomPairs {
            count: n_pairs,
            seed,
        })
        .protocols(ALL3)
        .packets(packets)
        .seeds([seed])
        .run();

    if records.is_empty() {
        println!("(no runs — the scenario grid is empty; check --pairs/--runs)");
        return;
    }

    let mut medians = Vec::new();
    for (proto, tputs) in throughputs_by_protocol(&records) {
        println!("--- {proto} CDF (throughput pkt/s, cumulative fraction) ---");
        print_cdf(&tputs, 12);
        let completed = records
            .iter()
            .filter(|r| r.protocol == proto && r.all_completed())
            .count();
        println!(
            "  p10 {:7.1}   median {:7.1}   p90 {:7.1}   completed {}/{}\n",
            quantile(&tputs, 0.1),
            median(&tputs),
            quantile(&tputs, 0.9),
            completed,
            tputs.len()
        );
        medians.push((proto, median(&tputs), quantile(&tputs, 0.1)));
    }

    // Headline ratios, paper style.
    let get = |p: &str| {
        medians
            .iter()
            .find(|(q, _, _)| q == p)
            .unwrap_or_else(|| panic!("{p} ran"))
    };
    let (_, m_more, p10_more) = get("MORE");
    let (_, m_exor, p10_exor) = get("ExOR");
    let (_, m_srcr, p10_srcr) = get("Srcr");
    println!("paper: MORE/ExOR median ≈ 1.22, MORE/Srcr median ≈ 1.95");
    println!(
        "here : MORE/ExOR median = {:.2}, MORE/Srcr median = {:.2}",
        m_more / m_exor,
        m_more / m_srcr
    );
    // Max per-pair gain over Srcr (the 10-12x tail claim); pairs align by
    // traffic_index because every protocol saw the same pair list.
    let per_pair = |proto: &str| -> Vec<&RunRecord> {
        let mut rs: Vec<&RunRecord> = records.iter().filter(|r| r.protocol == proto).collect();
        rs.sort_by_key(|r| r.traffic_index);
        rs
    };
    let max_gain = per_pair("MORE")
        .iter()
        .zip(per_pair("Srcr").iter())
        .map(|(m, s)| m.mean_throughput() / s.mean_throughput().max(0.1))
        .fold(0.0f64, f64::max);
    println!("paper: max per-pair MORE/Srcr gain 10-12x;  here: {max_gain:.1}x");
    println!(
        "paper: 10th pct MORE > 50 pkt/s, Srcr ≈ 10 pkt/s;  here: MORE {p10_more:.0}, ExOR {p10_exor:.0}, Srcr {p10_srcr:.0}"
    );
}
