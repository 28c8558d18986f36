//! Figure 4-7: impact of batch size. Median throughput for
//! K ∈ {8, 16, 32, 64, 128} for MORE and for ExOR over random pairs.
//!
//! Paper's shape: ExOR degrades markedly at K=8 (per-batch control
//! traffic amortizes over fewer packets) while MORE is nearly insensitive
//! (its only small-batch cost is a few spurious transmissions around the
//! batch ACK).
//!
//! `cargo run --release -p more-bench --bin fig4_7 -- --pairs 40`

use more_bench::common::{banner, Args};
use more_bench::stats::median;
use more_scenario::{Scenario, Sweep, TrafficSpec};

fn main() {
    let args = Args::parse();
    let n_pairs: usize = args.get("pairs", 40);
    let seed: u64 = args.get("seed", 1);
    let topo_seed: u64 = args.get("topo-seed", 1);
    let ks = [8usize, 16, 32, 64, 128];

    banner("Figure 4-7", "throughput vs batch size K (MORE and ExOR)");
    println!("{n_pairs} pairs, transfer = 256 packets\n");
    println!("{:>6} | {:>12} {:>12}", "K", "MORE med", "ExOR med");

    let records = Scenario::named("fig4_7")
        .testbed(topo_seed)
        .traffic(TrafficSpec::RandomPairs {
            count: n_pairs,
            seed,
        })
        .protocols(["MORE", "ExOR"])
        .sweep(Sweep::K(ks.to_vec()))
        .packets(256)
        .seeds([seed])
        .run();

    if records.is_empty() {
        println!("(no runs — the scenario grid is empty; check --pairs/--runs)");
        return;
    }

    let med_at = |proto: &str, k: usize| {
        let tputs: Vec<f64> = records
            .iter()
            .filter(|r| r.protocol == proto && r.value == Some(k as f64))
            .map(|r| r.mean_throughput())
            .collect();
        median(&tputs)
    };

    let mut more_meds = Vec::new();
    let mut exor_meds = Vec::new();
    for &k in &ks {
        let m = med_at("MORE", k);
        let e = med_at("ExOR", k);
        println!("{k:>6} | {m:12.1} {e:12.1}");
        more_meds.push(m);
        exor_meds.push(e);
    }

    let more_spread = more_meds.iter().cloned().fold(f64::INFINITY, f64::min)
        / more_meds.iter().cloned().fold(0.0, f64::max);
    let exor_k8_penalty = exor_meds[0] / exor_meds[2];
    println!("\npaper: MORE insensitive to K; ExOR significantly worse at K=8");
    println!(
        "here : MORE min/max median ratio {more_spread:.2} (1.0 = flat); ExOR K=8 vs K=32 ratio {exor_k8_penalty:.2}"
    );
}
