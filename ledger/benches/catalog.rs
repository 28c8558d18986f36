//! The benchmark's names, in one place: workloads, end-to-end metrics with
//! their bounds, per-layer metrics — and `BENCHMARK.json` generated from
//! them (`ledger catalog`), so the committed file cannot drift from the
//! code that measures. What each per-layer number should move is in
//! `README.md` ("Which layer number should move which end-to-end number").

use crate::workloads;

/// A metric a user of the system sees; gated by `bound`.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The four end-to-end metrics, reported per workload (definitions in
/// `README.md`). The time metrics are host-speed-normalized medians
/// (`crate::hostspeed`). Their bounds are about three times the widest
/// ten-seed quartile spread identical code showed under the driver's own
/// procedure in a disturbed hour (`baseline/seeds.json`; README, "Noise
/// and bounds"), which is the contract's largest: the issue's 8 / 8 / 5 /
/// 10 % are below what this host resolves. Memory is three times its
/// widest spread (2.9 %), rounded up.
pub const END_TO_END: [EndToEnd; 4] = [
    e2e("wall_s", "s", "lower", 0.25),
    e2e("sim_tx_per_s", "tx/s", "higher", 0.25),
    e2e("peak_rss_mib", "MiB", "lower", 0.10),
    e2e("setup_s", "s", "lower", 0.25),
];

/// A single layer's number, from the traced run; no bound.
pub struct PerLayer {
    /// `crate.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every per-layer metric `ledger trace` prints. The first block comes
/// from the staged pass of the traced workload, the rest from isolated
/// probes on fixed synthetic inputs (identical for every workload and seed).
pub const PER_LAYER: &[PerLayer] = &[
    // --- staged pass of the traced workload ---
    layer("mesh_sim.ns_per_event", "ns", "lower"),
    layer("mesh_sim.ns_per_event.srcr", "ns", "lower"),
    layer("mesh_sim.ns_per_event.exor", "ns", "lower"),
    layer("mesh_sim.ns_per_event.more", "ns", "lower"),
    layer("mesh_sim.run_share", "ratio", "higher"),
    layer("mesh_sim.events", "count", "lower"),
    layer("mesh_sim.tx", "count", "lower"),
    layer("mesh_sim.events_per_tx", "ratio", "lower"),
    layer("mesh_sim.rx_per_tx", "ratio", "lower"),
    layer("mesh_sim.collisions_per_ktx", "per_ktx", "lower"),
    layer("mesh_sim.retries_per_ktx", "per_ktx", "lower"),
    layer("mesh_sim.queue_drops_per_ktx", "per_ktx", "lower"),
    layer("mesh_sim.queue_depth_hw_max", "count", "lower"),
    layer("mesh_sim.new_ms", "ms", "lower"),
    layer("agent.build_us", "us", "lower"),
    layer("scenario.cell_setup_us", "us", "lower"),
    layer("scenario.schedule_us", "us", "lower"),
    layer("mesh_topology.instantiate_ms", "ms", "lower"),
    layer("scenario.pipeline_share", "ratio", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
    // --- isolated probes ---
    layer("mesh_sim.medium_new_10k_ms", "ms", "lower"),
    layer("mesh_sim.reception_testbed_ns", "ns", "lower"),
    layer("mesh_sim.reception_10k_ns", "ns", "lower"),
    layer("mesh_sim.ge_tick_ns_per_link", "ns", "lower"),
    layer("mesh_sim.choke_offer_ns", "ns", "lower"),
    layer("mesh_sim.aimd_gate_ns", "ns", "lower"),
    layer("gf256.axpy_many_k32_mb_s", "MB/s", "higher"),
    layer("gf256.axpy_many_k128_mb_s", "MB/s", "higher"),
    layer("gf256.mul_add_assign_mb_s", "MB/s", "higher"),
    layer("gf256.axpy_many_k128_ops", "count", "lower"),
    layer("gf256.axpy_many_k128_bytes", "bytes", "lower"),
    layer("rlnc.encode_k32_us", "us", "lower"),
    layer("rlnc.encode_k128_us", "us", "lower"),
    layer("rlnc.decode_k32_us", "us", "lower"),
    layer("rlnc.decode_k128_us", "us", "lower"),
    layer("rlnc.recode_k128_us", "us", "lower"),
    layer("rlnc.innovation_check_k32_ns", "ns", "lower"),
    layer("rlnc.innovation_check_k128_ns", "ns", "lower"),
    layer("rlnc.pool_idle_buffers", "count", "higher"),
    layer("mesh_topology.city_mesh_10k_ms", "ms", "lower"),
    layer("mesh_topology.cellgrid_query_ns", "ns", "lower"),
    layer("mesh_topology.delivery_lookup_ns", "ns", "lower"),
    layer("mesh_topology.hops_from_10k_ms", "ms", "lower"),
    layer("mesh_metrics.etx_10k_ms", "ms", "lower"),
    layer("mesh_metrics.eotx_2k_ms", "ms", "lower"),
    layer("mesh_metrics.plan_testbed_us", "us", "lower"),
    layer("mesh_metrics.cache_hit_ratio", "ratio", "higher"),
    layer("baselines.srcr_add_flow_us", "us", "lower"),
    layer("baselines.exor_add_flow_us", "us", "lower"),
    layer("more_core.add_flow_us", "us", "lower"),
    layer("scenario.record_json_ns", "ns", "lower"),
    layer("scenario.record_csv_ns", "ns", "lower"),
    layer("scenario.sink_us_per_record", "us", "lower"),
    layer("scenario.manifest_commit_us", "us", "lower"),
    layer("scenario.exec_us_per_item", "us", "lower"),
];

/// Seconds one benchmark invocation measures for (`run_seconds`).
pub const RUN_SECONDS: u64 = 25;

/// Unit of a per-layer metric.
///
/// # Panics
///
/// Panics on a name the catalogue does not list: measuring code and
/// catalogue are one program, so that is a bug in this crate.
pub fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is measured but not in the catalogue"))
        .unit
}

/// `BENCHMARK.json`, exactly the keys the contract names.
pub fn benchmark_json() -> String {
    let quote = |s: &str| format!("\"{}\"", mesh_topology::json::escape(s));
    let workloads: Vec<String> = workloads::all(1, false)
        .iter()
        .map(|g| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(g.name),
                quote(g.why)
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"ledger/run.sh\"],\n  \"paths\": [\"ledger\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let names: Vec<&str> = workloads::NAMES
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for n in &names {
            assert!(well_formed(n), "bad name {n:?}");
        }
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(workloads::NAMES.len() <= 8 && END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn workload_table_matches_the_names() {
        let grids = workloads::all(1, false);
        let got: Vec<&str> = grids.iter().map(|g| g.name).collect();
        assert_eq!(got, workloads::NAMES);
        for g in &grids {
            assert!(g.why.len() <= 200 && !g.why.contains('\n'), "{}", g.name);
        }
    }

    #[test]
    fn metrics_fit_the_contract() {
        for m in PER_LAYER {
            assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
            assert!(m.unit.len() <= 16, "{}", m.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(
            END_TO_END
                .iter()
                .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"),
            "the contract requires setup_s"
        );
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        // Not assert_eq!: a mismatch would print both files.
        assert!(
            committed == benchmark_json(),
            "regenerate with `ledger catalog > BENCHMARK.json`"
        );
    }
}
