//! A convenience prelude re-exporting the types most users need.
//!
//! ```
//! use qgdp::prelude::*;
//!
//! let topology = StandardTopology::Falcon.build();
//! assert_eq!(topology.num_qubits(), 27);
//! ```

pub use crate::artifact::{
    CellLegalized, Detailed, FlowArtifact, GlobalPlacement, QubitLegalized, Stage, StageEvent,
};
pub use crate::detail::{DetailedPlacementOutcome, DetailedPlacer, DetailedPlacerConfig};
pub use crate::error::FlowError;
pub use crate::pipeline::{FaultInjection, FlowConfig};
pub use crate::qubit_lg::QuantumQubitLegalizer;
pub use crate::resonator_lg::{ResonatorLegalizer, ResonatorOrder};
pub use crate::session::{FlowRequest, Session};
pub use crate::strategy::LegalizationStrategy;

pub use qgdp_circuits::{map_circuit, random_mappings, Benchmark, Circuit, MappedCircuit};
pub use qgdp_geometry::{Point, Rect};
pub use qgdp_legalize::{AbacusLegalizer, MacroLegalizer, TetrisLegalizer};
pub use qgdp_metrics::{
    estimate_fidelity, mean_fidelity, parallel_map, worker_threads, CrosstalkConfig,
    CrosstalkModel, FidelityEvaluator, LayoutReport, NoiseModel,
};
pub use qgdp_netlist::{
    ClusterReport, ComponentGeometry, NetModel, NetlistBuilder, Placement, QuantumNetlist, QubitId,
    ResonatorId, SegmentId,
};
pub use qgdp_placer::{hpwl, GlobalPlacer, GlobalPlacerConfig, GpStats, NetForceField};
pub use qgdp_topology::{DistanceMatrix, StandardTopology, Topology};
