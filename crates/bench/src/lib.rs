//! # qgdp-bench
//!
//! Benchmark harness regenerating every table and figure of the paper's evaluation.
//!
//! Each artifact has a dedicated binary (run with `--release`; all of them print the
//! same rows/series the paper reports):
//!
//! | paper artifact | binary | contents |
//! |----------------|--------|----------|
//! | Fig. 1 (concept) | `fig1` | layout quality after GP / classic LG / quantum LG / DP |
//! | Fig. 8 | `fig8` | mean worst-case fidelity per topology × benchmark × strategy |
//! | Fig. 9 | `fig9` | mean fidelity, hotspot proportion `P_h`, crossings `X̄` per topology × strategy |
//! | Table I | `table1` | topology and benchmark inventory |
//! | Table II | `table2` | qubit / resonator legalization runtimes (ms) |
//! | Table III | `table3` | qGDP-LG vs qGDP-DP: `I_edge`, `X`, `P_h`, `H_Q` |
//!
//! Criterion benches (`cargo bench -p qgdp-bench`) measure the legalization and
//! detailed-placement runtimes with statistical rigour (the Table II companion).
//!
//! The number of random mappings per benchmark defaults to the paper's 50 and can be
//! overridden with the `QGDP_MAPPINGS` environment variable (useful for quick runs).
//!
//! Additional binaries track this repository's own hot paths rather than a paper
//! artifact: `bench_fidelity` (serial vs parallel fidelity sweep →
//! `BENCH_fidelity.json`), `bench_placer` (optimized vs reference global placer →
//! `BENCH_placer.json`), `bench_legalize` (spatial-index legalization vs O(n²)
//! references → `BENCH_legalize.json`) and `bench_flow` (shared-GP
//! [`qgdp::Session`] batch vs one fresh session per strategy → `BENCH_flow.json`).
//! They share the [`harness`] module: repetition and topology-panel knobs,
//! best-of timing, percentiles and the record writer.
//!
//! # Paper map
//!
//! Tables I–III and Figs. 8–9: the evaluation protocol itself.  Every run drives
//! the staged flow through [`qgdp::Session`] (§III-C/D/E via the `qgdp` core
//! crate): one session per topology, one shared [`qgdp::GlobalPlacement`] artifact
//! per sweep (seeded with [`EXPERIMENT_SEED`], so all strategies score the *same*
//! global placement — the paper's protocol — without recomputing it), and layouts
//! scored with `qgdp-metrics` (Eq. 4/7).

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

use qgdp::prelude::*;

pub mod figures;
pub mod harness;

pub use figures::{fig8_series, fig9_series, Fig8Series, Fig9Point};

/// The GP seed shared by every experiment, so all strategies and artifacts see the
/// same global placements (the paper's "all comparisons are based on the same GP
/// positions").
pub const EXPERIMENT_SEED: u64 = 20_250_331;

/// Number of random qubit mappings per benchmark (the paper uses 50).
///
/// Override with the `QGDP_MAPPINGS` environment variable.
#[must_use]
pub fn mappings_per_benchmark() -> usize {
    std::env::var("QGDP_MAPPINGS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50)
}

/// The flow configuration used by every experiment.
#[must_use]
pub fn experiment_config() -> FlowConfig {
    FlowConfig::default().with_seed(EXPERIMENT_SEED)
}

/// Builds the staged [`Session`] every experiment drives: the topology's netlist is
/// constructed once and shared by every artifact forked from the session.
///
/// # Panics
///
/// Panics if the netlist cannot be built (it never can fail for the standard
/// topologies).
#[must_use]
pub fn experiment_session(topology: StandardTopology) -> Session {
    Session::new(&topology.build(), experiment_config())
        .unwrap_or_else(|e| panic!("session for {topology}: {e}"))
}

/// Runs one flow request on one topology with the shared experiment
/// configuration, returning the terminal staged artifact.
///
/// # Panics
///
/// Panics if the flow fails (it never should for the standard topologies).
#[must_use]
pub fn run_strategy(topology: StandardTopology, request: FlowRequest) -> FlowArtifact {
    experiment_session(topology)
        .run(request)
        .unwrap_or_else(|e| panic!("{} failed on {topology}: {e}", request.strategy))
}

/// Formats a fidelity value the way the paper's Fig. 8 prints it: values below `1e-4`
/// are reported as `<1e-4`.
#[must_use]
pub fn format_fidelity(f: f64) -> String {
    if f < 1e-4 {
        "<1e-4".to_string()
    } else {
        format!("{f:.4}")
    }
}

/// Mean worst-case fidelity of `benchmark` on the final layout of `artifact`,
/// averaged over `mappings` random mappings generated with the shared experiment
/// seed.
#[must_use]
pub fn benchmark_fidelity(artifact: &FlowArtifact, benchmark: Benchmark, mappings: usize) -> f64 {
    artifact.mean_benchmark_fidelity(
        benchmark,
        mappings,
        &NoiseModel::default(),
        EXPERIMENT_SEED ^ benchmark.num_qubits() as u64,
    )
}

/// Pretty-prints a Markdown-style table row.
#[must_use]
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join(" | ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_matches_paper_convention() {
        assert_eq!(format_fidelity(0.5063), "0.5063");
        assert_eq!(format_fidelity(5e-5), "<1e-4");
        assert_eq!(format_fidelity(0.0), "<1e-4");
    }

    #[test]
    fn mapping_count_defaults_to_fifty() {
        // The env var is not set in the test environment.
        if std::env::var("QGDP_MAPPINGS").is_err() {
            assert_eq!(mappings_per_benchmark(), 50);
        }
    }

    #[test]
    fn run_strategy_produces_legal_layouts() {
        let result = run_strategy(
            StandardTopology::Grid,
            FlowRequest::legalize(LegalizationStrategy::Qgdp),
        );
        assert!(result.is_legal());
        let f = benchmark_fidelity(&result, Benchmark::Bv4, 3);
        assert!(f > 0.0 && f <= 1.0);
    }

    #[test]
    fn row_formatting_pads_columns() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a |   bb");
    }
}
