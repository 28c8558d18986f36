//! Quick cross-protocol sanity comparison (not a paper figure): runs the
//! three protocols over a handful of pairs and prints medians, streaming
//! the raw records to JSONL/CSV under results/ as the grid runs. Use
//! before the full figure sweeps.

use more_bench::{stats, throughputs_by_protocol, ALL3};
use more_scenario::sink::{Collect, CsvAppend, JsonLines, Tee};
use more_scenario::{Scenario, TrafficSpec};

const JSONL_PATH: &str = "results/sanity.jsonl";
const CSV_PATH: &str = "results/sanity.csv";

fn main() {
    // Stream records to disk as the grid runs (Collect keeps a copy for
    // the medians below) instead of collecting and writing at the end.
    let mut collect = Collect::new();
    {
        let jsonl =
            JsonLines::create(JSONL_PATH).unwrap_or_else(|e| panic!("open {JSONL_PATH}: {e}"));
        let csv = CsvAppend::create(CSV_PATH).unwrap_or_else(|e| panic!("open {CSV_PATH}: {e}"));
        let mut sink = Tee::new().with(&mut collect).with(jsonl).with(csv);
        Scenario::named("sanity")
            .testbed(1)
            .traffic(TrafficSpec::RandomPairs {
                count: 12,
                seed: 42,
            })
            .protocols(ALL3)
            .packets(128)
            .deadline(180)
            .run_with_sink(&mut sink);
    }
    let records = collect.into_records();

    if records.is_empty() {
        println!("(no runs — the scenario grid is empty; check --pairs/--runs)");
        return;
    }

    for (proto, tputs) in throughputs_by_protocol(&records) {
        let of_proto: Vec<_> = records.iter().filter(|r| r.protocol == proto).collect();
        let completed = of_proto.iter().filter(|r| r.all_completed()).count();
        let conc: Vec<f64> = of_proto.iter().map(|r| r.concurrency).collect();
        println!(
            "{:>5}: median {:7.1} pkt/s  mean {:7.1}  completed {}/{}  concurrency {:.3}",
            proto,
            stats::median(&tputs),
            stats::mean(&tputs),
            completed,
            of_proto.len(),
            stats::mean(&conc),
        );
    }

    println!("\nraw records (streamed): {JSONL_PATH}, {CSV_PATH}");
}
