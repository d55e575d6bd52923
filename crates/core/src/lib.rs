//! # qgdp — Quantum Legalization and Detailed Placement
//!
//! A Rust implementation of **qGDP**, the legalization and detailed-placement engine
//! for superconducting quantum computers (DATE 2025).  Starting from a global placement
//! of transmon qubits (macros) and resonator wire blocks (standard cells), qGDP:
//!
//! 1. **legalizes the qubits** (§III-C, [`QuantumQubitLegalizer`]) with a minimum
//!    inter-qubit spacing of one standard cell, relaxed greedily only when the die is
//!    too dense, while minimising displacement from the global placement;
//! 2. **legalizes the resonators** (§III-D, Algorithm 1, [`ResonatorLegalizer`]) with
//!    an integration-aware, bin-aided sweep that keeps the wire blocks of each
//!    resonator in as few touching clusters as possible;
//! 3. **runs detailed placement** (§III-E, Algorithm 2, [`DetailedPlacer`]) on windows
//!    around non-unified resonators and frequency hotspots, rerouting their wire blocks
//!    with a maze router and accepting a window only when the cluster count and hotspot
//!    measure do not regress.
//!
//! The crate also exposes the paper's five-way strategy matrix
//! ([`LegalizationStrategy`]: Tetris, Abacus, Q-Tetris, Q-Abacus, qGDP-LG) behind a
//! **staged pipeline API**: a [`Session`] over a topology produces typed, immutable
//! stage artifacts — [`GlobalPlacement`] → [`QubitLegalized`] → [`CellLegalized`] →
//! [`Detailed`] — each a cheap `Arc`-shared handle that can be forked (one GP feeds
//! all five strategies, one legalized layout feeds many detailed-placer
//! configurations) with lazily-computed, cached reports.  [`Session::try_run_batch`]
//! / [`Session::try_run_matrix`] fan a strategy × config request set over the
//! `QGDP_THREADS` worker pool with **per-request fault isolation**: a failing or
//! panicking strategy poisons only its own requests (one contextful
//! [`FlowError`] per poisoned slot), while every sibling still returns its
//! artifact; [`Session::run_batch`] / [`Session::run_matrix`] are all-or-nothing
//! shims over the same engine.  The monolithic [`run_flow`] survives as a thin,
//! bit-identical compatibility shim — everything the `qgdp-bench` harness needs to
//! regenerate the paper's figures and tables.
//!
//! # Quick start
//!
//! ```
//! use qgdp::prelude::*;
//!
//! let topology = StandardTopology::Grid.build();
//! let session = Session::new(&topology, FlowConfig::default())?;
//! let gp = session.global_place();                      // runs once…
//! let lg = gp.legalize(LegalizationStrategy::Qgdp)?;    // …feeds every strategy
//! let dp = lg.detail();
//! assert!(lg.report().total_clusters >= session.netlist().num_resonators());
//! assert!(dp.is_legal());
//! # Ok::<(), qgdp::FlowError>(())
//! ```
//!
//! Migrating from `run_flow`: `run_flow(&topo, strategy, &cfg)?` is exactly
//! `Session::new(&topo, cfg)?.run(strategy)?.into_flow_result()`; the artifact
//! methods ([`CellLegalized::report`], [`CellLegalized::placement`],
//! [`FlowArtifact::mean_benchmark_fidelity`]) replace the eager [`FlowResult`]
//! fields.
//!
//! # Paper map
//!
//! The paper's own contributions, §III-C through §III-E: qubit legalization
//! ([`QuantumQubitLegalizer`]), integration-aware resonator legalization
//! (Algorithm 1, [`ResonatorLegalizer`]) and detailed placement (Algorithm 2,
//! [`DetailedPlacer`]) — together the qGDP-LG and qGDP-DP flows of the evaluation,
//! staged as the [`Session`] artifact pipeline.  The crate composes the whole
//! workspace: global placement from [`qgdp_placer`] (with the §III-D pseudo
//! connections from [`qgdp_netlist`]), classical baselines from [`qgdp_legalize`],
//! devices from [`qgdp_topology`] (Table I), benchmarks from [`qgdp_circuits`] and
//! metrics from [`qgdp_metrics`] (Eq. 4/7).  The substrate crates are re-exported
//! under stable names ([`geometry`], [`netlist`], [`topology`], [`circuits`],
//! [`legalize`], [`placer`], [`metrics`]) so downstream users can depend on `qgdp`
//! alone.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod artifact;
pub mod canonical;
pub mod detail;
pub mod digest;
pub mod error;
pub mod pipeline;
pub mod prelude;
pub mod qubit_lg;
pub mod resonator_lg;
pub mod session;
pub mod strategy;

pub use artifact::{
    CellLegalized, Detailed, FlowArtifact, GlobalPlacement, QubitLegalized, Stage, StageEvent,
};
pub use detail::{DetailedPlacementOutcome, DetailedPlacer, DetailedPlacerConfig};
pub use digest::{placement_fingerprint, stable_digest, ArtifactKey, StableHasher};
pub use error::FlowError;
pub use pipeline::{run_flow, FaultInjection, FlowConfig, FlowResult, StageTiming};
pub use qubit_lg::QuantumQubitLegalizer;
pub use resonator_lg::ResonatorLegalizer;
pub use session::{FlowRequest, Session};
pub use strategy::LegalizationStrategy;

// Re-export the substrate crates under stable names so downstream users (and the
// examples/benches in this repository) can depend on `qgdp` alone.
pub use qgdp_circuits as circuits;
pub use qgdp_geometry as geometry;
pub use qgdp_legalize as legalize;
pub use qgdp_metrics as metrics;
pub use qgdp_netlist as netlist;
pub use qgdp_placer as placer;
pub use qgdp_topology as topology;
