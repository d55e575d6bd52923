//! Flow configuration: [`FlowConfig`], shared by every stage of a
//! [`Session`](crate::Session), and
//! the [`FaultInjection`] testing hook.
//!
//! What runs is chosen per call, not per config:
//! [`Session::run`](crate::Session::run) takes one
//! [`FlowRequest`](crate::FlowRequest) (a strategy plus an optional detailed-placer
//! configuration) and [`Session::try_run_batch`](crate::Session::try_run_batch)
//! takes many.

use crate::{DetailedPlacerConfig, LegalizationStrategy};
use qgdp_metrics::CrosstalkConfig;
use qgdp_netlist::{ComponentGeometry, NetModel};
use qgdp_placer::GlobalPlacerConfig;

/// Deterministic fault injection into the legalization stage — the testing/chaos
/// hook behind the fault-isolation contract of
/// [`Session::try_run_batch`](crate::Session::try_run_batch).
///
/// Both hooks trigger at the entry of the qubit-legalization stage of the named
/// strategy, on every path that legalizes it (single flows and batches alike), so
/// tests and bench scenarios can poison exactly one strategy of a matrix and
/// assert its siblings survive.  The default injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultInjection {
    /// Fail this strategy's qubit legalization with a
    /// [`LegalizeError::NoSpace`](qgdp_legalize::LegalizeError::NoSpace) error.
    pub fail_legalization: Option<LegalizationStrategy>,
    /// Panic inside this strategy's qubit-legalization worker.  On the batch
    /// `try_` surface the unwind is contained to the poisoned request
    /// ([`FlowError::Worker`](crate::FlowError::Worker)); on single-flow paths
    /// ([`Session::run`](crate::Session::run)) it propagates to the caller.
    pub panic_in_legalization: Option<LegalizationStrategy>,
}

/// Configuration of the full flow (and of a [`Session`](crate::Session)).
///
/// Every field has a builder-style setter, so no field needs struct-literal access:
/// [`with_geometry`](FlowConfig::with_geometry), [`with_net_model`](FlowConfig::with_net_model),
/// [`with_gp`](FlowConfig::with_gp), [`with_crosstalk`](FlowConfig::with_crosstalk),
/// [`with_detail`](FlowConfig::with_detail),
/// [`with_fault_injection`](FlowConfig::with_fault_injection) and the
/// [`with_seed`](FlowConfig::with_seed) shorthand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowConfig {
    /// Component geometry used to build the netlist.
    pub geometry: ComponentGeometry,
    /// Net model (pseudo connections on or off).
    pub net_model: NetModel,
    /// Global-placer configuration.
    pub gp: GlobalPlacerConfig,
    /// Crosstalk detection thresholds.
    pub crosstalk: CrosstalkConfig,
    /// Detailed-placer configuration.
    pub detail: DetailedPlacerConfig,
    /// Deterministic fault injection (testing/chaos hook; injects nothing by
    /// default).
    pub fault: FaultInjection,
}

impl FlowConfig {
    /// The default flow configuration (pseudo connections, default placer and
    /// detailed-placer settings, no fault injection).
    #[must_use]
    pub fn new() -> Self {
        FlowConfig {
            geometry: ComponentGeometry::default(),
            net_model: NetModel::Pseudo,
            gp: GlobalPlacerConfig::default(),
            crosstalk: CrosstalkConfig::default(),
            detail: DetailedPlacerConfig::default(),
            fault: FaultInjection::default(),
        }
    }

    /// Overrides the global-placer seed (useful for repeated experiments).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.gp = self.gp.with_seed(seed);
        self
    }

    /// Overrides the net model.
    #[must_use]
    pub fn with_net_model(mut self, net_model: NetModel) -> Self {
        self.net_model = net_model;
        self
    }

    /// Overrides the component geometry used to build the netlist.
    #[must_use]
    pub fn with_geometry(mut self, geometry: ComponentGeometry) -> Self {
        self.geometry = geometry;
        self
    }

    /// Overrides the whole global-placer configuration.
    #[must_use]
    pub fn with_gp(mut self, gp: GlobalPlacerConfig) -> Self {
        self.gp = gp;
        self
    }

    /// Overrides the crosstalk detection thresholds.
    #[must_use]
    pub fn with_crosstalk(mut self, crosstalk: CrosstalkConfig) -> Self {
        self.crosstalk = crosstalk;
        self
    }

    /// Overrides the detailed-placer configuration
    /// [`CellLegalized::detail`](crate::CellLegalized::detail) runs with (whether
    /// the stage runs at all is chosen per [`FlowRequest`](crate::FlowRequest)).
    #[must_use]
    pub fn with_detail(mut self, detail: DetailedPlacerConfig) -> Self {
        self.detail = detail;
        self
    }

    /// Overrides the fault-injection hooks (see [`FaultInjection`]).
    #[must_use]
    pub fn with_fault_injection(mut self, fault: FaultInjection) -> Self {
        self.fault = fault;
        self
    }

    /// Returns `true` when results of this configuration may be cached and shared
    /// across sessions: every field is then part of the content identity
    /// ([`crate::ArtifactKey`]).  Fault-injected configurations are **not**
    /// cacheable — their outcomes are deliberately wrong for their identity, so
    /// the serve layer must bypass its artifact store for them entirely.
    #[must_use]
    pub fn is_cacheable(&self) -> bool {
        self.fault == FaultInjection::default()
    }
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_setters_cover_every_field() {
        let gp = GlobalPlacerConfig::default().with_seed(99);
        let detail = DetailedPlacerConfig::new();
        let crosstalk = CrosstalkConfig::default();
        let geometry = ComponentGeometry::default();
        let fault = FaultInjection {
            fail_legalization: Some(LegalizationStrategy::Tetris),
            panic_in_legalization: None,
        };
        let cfg = FlowConfig::new()
            .with_geometry(geometry)
            .with_net_model(NetModel::Chain)
            .with_gp(gp)
            .with_crosstalk(crosstalk)
            .with_detail(detail)
            .with_fault_injection(fault);
        assert_eq!(cfg.gp.seed, 99);
        assert_eq!(cfg.net_model, NetModel::Chain);
        assert_eq!(cfg.detail, detail);
        assert_eq!(cfg.crosstalk, crosstalk);
        assert_eq!(cfg.geometry, geometry);
        assert_eq!(cfg.fault, fault);
        assert_eq!(FlowConfig::default().fault, FaultInjection::default());
    }
}
