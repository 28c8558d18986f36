//! Built-in [`ProtocolFactory`] implementations for the paper's four
//! protocols. Each factory is a thin, configurable constructor; variants
//! (e.g. the EOTX-ordered MORE ablation) are new factories under new
//! names, not new enum arms. Each has one constructor for its concrete
//! agent, with no flows: `run` hands it to [`Cell::run`] as it is, and
//! `build` installs the given flows and boxes it behind the erasure.

use crate::cell::Cell;
use crate::record::RunRecord;
use crate::registry::{BuildError, ProtocolFactory};
use crate::spec::{ExpConfig, FlowSpec};
use baselines::{ExorAgent, ExorConfig, SrcrAgent, SrcrConfig};
use mesh_sim::{Erased, ErasedFlowAgent, FlowAgent};
use mesh_topology::Topology;
use more_core::{MoreAgent, MoreConfig};

/// MORE, unicast and multicast alike — coded broadcast is
/// destination-count agnostic.
#[must_use]
pub struct MoreFactory {
    /// Base protocol config; `k` is overridden by [`ExpConfig::k`] at
    /// build time so K-sweeps work uniformly across factories.
    pub cfg: MoreConfig,
    name: String,
}

impl Default for MoreFactory {
    fn default() -> Self {
        MoreFactory {
            cfg: MoreConfig::default(),
            name: "MORE".to_string(),
        }
    }
}

impl MoreFactory {
    /// A MORE variant under a distinct registry name (e.g. an ablation
    /// with a different forwarder metric).
    pub fn named(name: impl Into<String>, cfg: MoreConfig) -> Self {
        MoreFactory {
            cfg,
            name: name.into(),
        }
    }

    /// The agent, at the experiment's batch size.
    fn agent(&self, topo: &Topology, cfg: &ExpConfig) -> MoreAgent {
        let mcfg = MoreConfig {
            k: cfg.k,
            ..self.cfg
        };
        MoreAgent::new(topo.clone(), mcfg)
    }
}

impl ProtocolFactory for MoreFactory {
    fn name(&self) -> &str {
        &self.name
    }

    fn build(
        &self,
        topo: &Topology,
        flows: &[FlowSpec],
        cfg: &ExpConfig,
    ) -> Result<Box<dyn ErasedFlowAgent>, BuildError> {
        Ok(Box::new(Erased(with_flows(self.agent(topo, cfg), flows))))
    }

    fn run(&self, cell: Cell<'_>) -> Result<RunRecord, BuildError> {
        let agent = self.agent(cell.topology(), cell.config());
        Ok(cell.run(agent))
    }
}

/// `agent` with every flow of `flows` added, in order.
fn with_flows<A: FlowAgent>(mut agent: A, flows: &[FlowSpec]) -> A {
    for f in flows {
        agent.add_flow(f);
    }
    agent
}

/// The refusal of a strictly unicast protocol, if `flows` holds a
/// multicast flow.
pub(crate) fn reject_multicast<'a>(
    protocol: &str,
    mut flows: impl Iterator<Item = &'a FlowSpec>,
) -> Result<(), BuildError> {
    match flows.find(|f| f.is_multicast()) {
        Some(mc) => Err(BuildError::Unsupported(format!(
            "{protocol} is strictly unicast; flow {} -> {:?} has {} destinations",
            mc.src,
            mc.dsts,
            mc.dsts.len()
        ))),
        None => Ok(()),
    }
}

/// ExOR with its strict batch scheduler, at [`ExpConfig::k`].
#[derive(Default)]
#[must_use]
pub struct ExorFactory;

impl ExorFactory {
    /// The agent, at the experiment's batch size.
    fn agent(&self, topo: &Topology, cfg: &ExpConfig) -> ExorAgent {
        ExorAgent::new(topo.clone(), ExorConfig { k: cfg.k })
    }
}

impl ProtocolFactory for ExorFactory {
    fn name(&self) -> &str {
        "ExOR"
    }

    fn supports_multicast(&self) -> bool {
        false
    }

    fn build(
        &self,
        topo: &Topology,
        flows: &[FlowSpec],
        cfg: &ExpConfig,
    ) -> Result<Box<dyn ErasedFlowAgent>, BuildError> {
        reject_multicast(self.name(), flows.iter())?;
        Ok(Box::new(Erased(with_flows(self.agent(topo, cfg), flows))))
    }

    fn run(&self, cell: Cell<'_>) -> Result<RunRecord, BuildError> {
        let agent = self.agent(cell.topology(), cell.config());
        Ok(cell.run(agent))
    }
}

/// Srcr (best-path source routing), fixed-rate or with Onoe autorate.
#[must_use]
pub struct SrcrFactory {
    /// Base protocol config; the bit-rate comes from [`ExpConfig`].
    pub cfg: SrcrConfig,
}

impl SrcrFactory {
    /// Srcr at the experiment's fixed bit-rate.
    pub fn fixed_rate() -> Self {
        SrcrFactory {
            cfg: SrcrConfig::default(),
        }
    }

    /// Srcr with MadWifi-style Onoe autorate (Fig 4-6).
    pub fn autorate() -> Self {
        SrcrFactory {
            cfg: SrcrConfig { autorate: true },
        }
    }

    /// The agent, at the experiment's bit-rate.
    fn agent(&self, topo: &Topology, cfg: &ExpConfig) -> SrcrAgent {
        SrcrAgent::new(topo.clone(), self.cfg, cfg.bitrate)
    }
}

impl ProtocolFactory for SrcrFactory {
    fn name(&self) -> &str {
        if self.cfg.autorate {
            "Srcr-autorate"
        } else {
            "Srcr"
        }
    }

    fn supports_multicast(&self) -> bool {
        false
    }

    fn build(
        &self,
        topo: &Topology,
        flows: &[FlowSpec],
        cfg: &ExpConfig,
    ) -> Result<Box<dyn ErasedFlowAgent>, BuildError> {
        reject_multicast(self.name(), flows.iter())?;
        Ok(Box::new(Erased(with_flows(self.agent(topo, cfg), flows))))
    }

    fn run(&self, cell: Cell<'_>) -> Result<RunRecord, BuildError> {
        let agent = self.agent(cell.topology(), cell.config());
        Ok(cell.run(agent))
    }
}

#[cfg(test)]
mod test {
    use super::*;
    use mesh_topology::{generate, NodeId};

    #[test]
    fn a_mixed_flow_set_builds_on_more_only() {
        let topo = generate::testbed(1);
        let flows = vec![
            FlowSpec::unicast(NodeId(0), NodeId(19), 32),
            FlowSpec {
                src: NodeId(0),
                dsts: vec![NodeId(5), NodeId(9)],
                packets: 32,
            },
        ];
        let cfg = ExpConfig::default();
        assert!(MoreFactory::default().build(&topo, &flows, &cfg).is_ok());
        assert!(matches!(
            ExorFactory.build(&topo, &flows, &cfg),
            Err(BuildError::Unsupported(_))
        ));
        assert!(matches!(
            SrcrFactory::fixed_rate().build(&topo, &flows, &cfg),
            Err(BuildError::Unsupported(_))
        ));
    }
}
