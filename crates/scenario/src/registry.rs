//! The pluggable protocol registry.
//!
//! Replaces the closed `Protocol` enum of the pre-scenario harness:
//! protocols are [`ProtocolFactory`] objects registered by name, so new
//! baselines, MORE ablations, or user-defined agents plug in without
//! touching this crate — see the `custom_protocol` integration test in
//! the umbrella crate for an end-to-end external registration.

use crate::spec::{ExpConfig, FlowSpec};
use mesh_sim::ErasedFlowAgent;
use mesh_topology::Topology;
use std::fmt;
use std::sync::Arc;

/// Why a factory refused to build an agent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// The protocol cannot express this traffic (e.g. multicast on a
    /// strictly unicast routing protocol).
    Unsupported(String),
    /// No factory under that name.
    UnknownProtocol(String),
    /// A user traffic model emitted a schedule violating the
    /// [`crate::TrafficModel`] contract (a `Stop` for a flow that never
    /// started, a `Stop` before its `Start`, events past the horizon, or
    /// an unsorted event list).
    InvalidSchedule(String),
    /// A [`mesh_sim::QueueSpec`] or congestion-control configuration is
    /// internally inconsistent (zero capacity, inverted RED thresholds,
    /// out-of-range marking probability, …).
    InvalidQueue(String),
    /// A [`crate::sink::RunSink`] or checkpoint-manifest I/O operation
    /// failed.
    Sink(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Unsupported(msg) => write!(f, "unsupported scenario: {msg}"),
            BuildError::UnknownProtocol(name) => {
                write!(f, "no protocol named {name:?} in the registry")
            }
            BuildError::InvalidSchedule(msg) => write!(f, "invalid traffic schedule: {msg}"),
            BuildError::InvalidQueue(msg) => write!(f, "invalid queue configuration: {msg}"),
            BuildError::Sink(msg) => write!(f, "result sink failed: {msg}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builds a ready-to-run agent for one simulator run.
///
/// Object-safe on purpose: registries hold `Arc<dyn ProtocolFactory>`.
/// `build` receives the topology, the run's flows (already expanded from
/// the traffic spec), and the experiment parameters; it must add every
/// flow to the agent (ids `1..=flows.len()`, in order) and perform any
/// protocol-specific arming (e.g. ExOR's `start`). The scenario engine
/// kicks each flow's source after construction.
pub trait ProtocolFactory: Send + Sync {
    /// Registry key and display name ("MORE", "Srcr-autorate", …).
    fn name(&self) -> &str;

    /// Can the protocol carry a flow with several destinations? The
    /// engine asks before building, for every flow of the schedule — the
    /// ones arriving mid-run never pass through [`Self::build`] — and
    /// turns a `false` into [`BuildError::Unsupported`].
    fn supports_multicast(&self) -> bool {
        true
    }

    /// Constructs the agent with all flows installed.
    fn build(
        &self,
        topo: &Topology,
        flows: &[FlowSpec],
        cfg: &ExpConfig,
    ) -> Result<Box<dyn ErasedFlowAgent>, BuildError>;
}

/// An ordered, name-keyed set of protocol factories.
///
/// Cheap to clone (factories are shared `Arc`s); lookup is
/// case-insensitive.
#[derive(Clone, Default)]
#[must_use]
pub struct ProtocolRegistry {
    factories: Vec<Arc<dyn ProtocolFactory>>,
}

impl ProtocolRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ProtocolRegistry::default()
    }

    /// A registry pre-populated with the paper's four protocols:
    /// MORE, ExOR, Srcr, and Srcr-autorate.
    pub fn with_defaults() -> Self {
        let mut reg = ProtocolRegistry::new();
        reg.register(crate::protocols::MoreFactory::default());
        reg.register(crate::protocols::ExorFactory::default());
        reg.register(crate::protocols::SrcrFactory::fixed_rate());
        reg.register(crate::protocols::SrcrFactory::autorate());
        reg
    }

    /// Registers a factory; a same-named factory is replaced (latest
    /// wins), so callers can override the built-ins.
    pub fn register(&mut self, factory: impl ProtocolFactory + 'static) -> &mut Self {
        self.register_arc(Arc::new(factory))
    }

    /// Registers a shared factory.
    pub fn register_arc(&mut self, factory: Arc<dyn ProtocolFactory>) -> &mut Self {
        let name = factory.name().to_string();
        self.factories
            .retain(|f| !f.name().eq_ignore_ascii_case(&name));
        self.factories.push(factory);
        self
    }

    /// Case-insensitive lookup.
    pub fn get(&self, name: &str) -> Option<Arc<dyn ProtocolFactory>> {
        self.factories
            .iter()
            .find(|f| f.name().eq_ignore_ascii_case(name))
            .cloned()
    }

    /// Lookup that reports the miss.
    pub fn resolve(&self, name: &str) -> Result<Arc<dyn ProtocolFactory>, BuildError> {
        self.get(name)
            .ok_or_else(|| BuildError::UnknownProtocol(name.to_string()))
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.factories.iter().map(|f| f.name()).collect()
    }

    /// Number of registered factories.
    pub fn len(&self) -> usize {
        self.factories.len()
    }

    /// No factories registered?
    pub fn is_empty(&self) -> bool {
        self.factories.is_empty()
    }
}

impl fmt::Debug for ProtocolRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ProtocolRegistry")
            .field(&self.names())
            .finish()
    }
}

#[cfg(test)]
mod test {
    use super::*;

    #[test]
    fn defaults_hold_the_papers_protocols() {
        let reg = ProtocolRegistry::with_defaults();
        assert_eq!(reg.names(), vec!["MORE", "ExOR", "Srcr", "Srcr-autorate"]);
        assert!(reg.get("more").is_some(), "lookup is case-insensitive");
        assert!(matches!(
            reg.resolve("nope"),
            Err(BuildError::UnknownProtocol(_))
        ));
    }

    #[test]
    fn reregistration_replaces() {
        let mut reg = ProtocolRegistry::with_defaults();
        let before = reg.len();
        reg.register(crate::protocols::MoreFactory::default());
        assert_eq!(reg.len(), before, "same name replaces, not duplicates");
    }
}
