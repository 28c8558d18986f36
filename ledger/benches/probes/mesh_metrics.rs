//! `mesh-metrics`: ETX / EOTX tables, forwarder plans, the metric cache.

use super::{Bench, Inputs, Out};
use mesh_metrics::etx::LinkCost;
use mesh_metrics::{EotxTable, EtxTable, ForwarderPlan, MetricCache, PlanConfig};
use std::hint::black_box;

pub fn probe(b: &Bench, inputs: &Inputs, out: &mut Out) {
    let mut i = 0usize;
    let ns = b.ns(|| {
        i = (i + 1) % inputs.city_flows.len();
        let dst = inputs.city_flows[i].1;
        black_box(EtxTable::compute(
            &inputs.city10k,
            dst,
            LinkCost::ForwardReverse,
        ));
    });
    out.push(("mesh_metrics.etx_10k_ms", ns / 1e6));

    let mut i = 0usize;
    let ns = b.ns(|| {
        i = (i + 1) % inputs.city2k_flows.len();
        black_box(EotxTable::compute(&inputs.city2k, inputs.city2k_flows[i].1));
    });
    out.push(("mesh_metrics.eotx_2k_ms", ns / 1e6));

    let tables: Vec<EtxTable> = inputs
        .testbed_pairs
        .iter()
        .map(|&(_, dst)| EtxTable::compute(&inputs.testbed, dst, LinkCost::Forward))
        .collect();
    let cfg = PlanConfig::default();
    let mut i = 0usize;
    let ns = b.ns(|| {
        i = (i + 1) % tables.len();
        let (src, dst) = inputs.testbed_pairs[i];
        black_box(ForwarderPlan::compute(
            &inputs.testbed,
            src,
            dst,
            tables[i].distances(),
            &cfg,
        ));
    });
    out.push(("mesh_metrics.plan_testbed_us", ns / 1e3));

    // One lookup per flow of the city schedule; every miss adds one table.
    let mut cache = MetricCache::new();
    for &(_, dst) in &inputs.city_flows {
        black_box(cache.etx(&inputs.city10k, dst, LinkCost::ForwardReverse));
    }
    let lookups = inputs.city_flows.len();
    out.push((
        "mesh_metrics.cache_hit_ratio",
        (lookups - cache.len()) as f64 / lookups as f64,
    ));
}
