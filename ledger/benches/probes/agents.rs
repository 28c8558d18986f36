//! The protocol crates (`baselines`, `more-core`) through the erased
//! agent interface: the route / forwarder planning a flow arrival pays.

use super::{Bench, Inputs, Out};
use mesh_sim::FlowDesc;
use mesh_topology::{NodeId, Topology};
use more_scenario::{ExorFactory, ExpConfig, MoreFactory, ProtocolFactory, SrcrFactory};

/// Microseconds per `add_flow` on a fresh agent (built untimed), replaying
/// the first 32 `flows`.
fn add_flow_us(
    b: &Bench,
    factory: &dyn ProtocolFactory,
    topo: &Topology,
    flows: &[(NodeId, NodeId)],
) -> Result<f64, String> {
    let cfg = ExpConfig {
        packets: 8,
        ..ExpConfig::default()
    };
    // Fail here, with the factory's own message, not inside the timed loop.
    factory.build(topo, &[], &cfg).map_err(|e| e.to_string())?;
    let flows = &flows[..flows.len().min(32)];
    let ns = b.ns_with(
        || factory.build(topo, &[], &cfg).expect("built once above"),
        |agent| {
            for &(src, dst) in flows {
                agent.add_flow(&FlowDesc::unicast(src, dst, cfg.packets));
            }
        },
    );
    Ok(ns / flows.len() as f64 / 1e3)
}

pub fn probe(b: &Bench, inputs: &Inputs, out: &mut Out) -> Result<(), String> {
    out.push((
        "baselines.srcr_add_flow_us",
        add_flow_us(
            b,
            &SrcrFactory::fixed_rate(),
            &inputs.city10k,
            &inputs.city_flows,
        )?,
    ));
    out.push((
        "baselines.exor_add_flow_us",
        add_flow_us(
            b,
            &ExorFactory::default(),
            &inputs.testbed,
            &inputs.testbed_pairs,
        )?,
    ));
    out.push((
        "more_core.add_flow_us",
        add_flow_us(
            b,
            &MoreFactory::default(),
            &inputs.city2k,
            &inputs.city2k_flows,
        )?,
    ));
    Ok(())
}
