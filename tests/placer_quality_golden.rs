//! Golden-snapshot tests for the global-placer rework.
//!
//! The constants below were captured from the *pre-change* placer (the per-iteration
//! density rebuild + per-net clique expansion, now preserved as
//! `GlobalPlacer::place_reference`) under the shared experiment seed.  The optimized
//! hot path — compiled star-net forces, incremental density — must keep final HPWL
//! and post-legalization fidelity within 1% of those snapshots.
//!
//! On the default geometry every deposited bin area is an exactly-representable
//! integer, so the incremental density bookkeeping is exact and the pseudo-net flow
//! actually reproduces the snapshots bit-for-bit; the 1% envelope is the contract,
//! the bit-equality is a bonus asserted separately against `place_reference`.

use qgdp::prelude::*;

/// The GP seed shared by every experiment (`qgdp_bench::EXPERIMENT_SEED`).
const EXPERIMENT_SEED: u64 = 20_250_331;

/// Mappings per benchmark for the fidelity golden (kept small for test runtime).
const MAPPINGS: usize = 5;

/// Captured from the pre-change placer: (topology, GP HPWL, post-legalization HPWL,
/// mean Bv4 fidelity over 5 mappings on the qGDP-legalized layout).
const GOLDEN: [(StandardTopology, f64, f64, f64); 3] = [
    (
        StandardTopology::Grid,
        10134.553373,
        18068.915966,
        0.7500236691,
    ),
    (
        StandardTopology::Falcon,
        7484.242273,
        15449.184189,
        0.6915434840,
    ),
    (
        StandardTopology::Eagle,
        36429.394673,
        76755.071255,
        0.5707928901,
    ),
];

fn within_one_percent(actual: f64, golden: f64) -> bool {
    (actual - golden).abs() <= 0.01 * golden.abs()
}

fn run(topology: StandardTopology) -> FlowArtifact {
    let cfg = FlowConfig::default().with_seed(EXPERIMENT_SEED);
    Session::new(&topology.build(), cfg)
        .and_then(|session| session.run(FlowRequest::legalize(LegalizationStrategy::Qgdp)))
        .unwrap_or_else(|e| panic!("flow failed on {topology}: {e}"))
}

#[test]
fn gp_and_legalized_hpwl_stay_within_the_quality_envelope() {
    for (topology, golden_gp, golden_legal, _) in GOLDEN {
        let result = run(topology);
        let gp = hpwl(result.netlist(), result.legalized().global().placement());
        assert!(
            within_one_percent(gp, golden_gp),
            "{topology}: GP HPWL {gp:.3} vs golden {golden_gp:.3}"
        );
        let legal = hpwl(result.netlist(), result.final_placement());
        assert!(
            within_one_percent(legal, golden_legal),
            "{topology}: legalized HPWL {legal:.3} vs golden {golden_legal:.3}"
        );
        assert!(result.is_legal(), "{topology}: layout must stay legal");
    }
}

#[test]
fn post_legalization_fidelity_stays_within_the_quality_envelope() {
    for (topology, _, _, golden_fidelity) in GOLDEN {
        let result = run(topology);
        let fidelity = result.mean_benchmark_fidelity(
            Benchmark::Bv4,
            MAPPINGS,
            &NoiseModel::default(),
            EXPERIMENT_SEED ^ Benchmark::Bv4.num_qubits() as u64,
        );
        assert!(
            within_one_percent(fidelity, golden_fidelity),
            "{topology}: fidelity {fidelity:.10} vs golden {golden_fidelity:.10}"
        );
    }
}

#[test]
fn optimized_flow_gp_is_bit_identical_to_the_reference_formulation() {
    // Stronger than the 1% envelope: on the default (integer-area) geometry the
    // optimized hot path must agree with the retained reference implementation
    // bit-for-bit, pin by pin.
    for topology in [StandardTopology::Grid, StandardTopology::Eagle] {
        let topo = topology.build();
        let netlist = topo
            .to_netlist(ComponentGeometry::default(), NetModel::Pseudo)
            .expect("netlist builds");
        let placer = GlobalPlacer::new(GlobalPlacerConfig::default().with_seed(EXPERIMENT_SEED));
        let optimized = placer.place(&netlist, &topo);
        let reference = placer.place_reference(&netlist, &topo);
        assert_eq!(
            optimized, reference,
            "{topology}: optimized GP diverged from the reference"
        );
    }
}
