//! Qualitative "shape" checks against the paper's headline results.
//!
//! Absolute numbers differ (our substrate is a simulator, not the authors' testbed),
//! but the orderings the paper reports must hold: Table I sizes, the qGDP ≥ hybrids ≥
//! classical fidelity ordering of Fig. 8, the P_h ordering of Fig. 9, and the DP
//! improvements of Table III.

use qgdp::prelude::*;

#[test]
fn table1_topology_inventory_matches() {
    let expected: &[(StandardTopology, usize, usize)] = &[
        (StandardTopology::Grid, 25, 40),
        (StandardTopology::Falcon, 27, 28),
        (StandardTopology::Eagle, 127, 144),
        (StandardTopology::Aspen11, 40, 48),
        (StandardTopology::AspenM, 80, 106),
        (StandardTopology::Xtree, 53, 52),
    ];
    for &(t, qubits, couplers) in expected {
        let topo = t.build();
        assert_eq!(topo.num_qubits(), qubits, "{t} qubit count");
        assert_eq!(topo.num_couplings(), couplers, "{t} coupler count");
    }
}

#[test]
fn table1_benchmark_inventory_matches() {
    let expected: &[(Benchmark, usize)] = &[
        (Benchmark::Bv4, 4),
        (Benchmark::Bv9, 9),
        (Benchmark::Bv16, 16),
        (Benchmark::Qaoa4, 4),
        (Benchmark::Ising4, 4),
        (Benchmark::Qgan4, 4),
        (Benchmark::Qgan9, 9),
    ];
    for &(b, n) in expected {
        assert_eq!(b.num_qubits(), n, "{b} qubit count");
        assert!(
            b.circuit().two_qubit_gate_count() > 0,
            "{b} has no 2q gates"
        );
    }
}

#[test]
fn table3_cell_counts_match_the_paper_scale() {
    // Table III reports 490 / 660 / 354 / 1801 / 598 / 1310 cells; with the default
    // geometry (12 blocks per resonator) we land on the same scale: within 25 %.
    let expected: &[(StandardTopology, usize)] = &[
        (StandardTopology::Grid, 490),
        (StandardTopology::Xtree, 660),
        (StandardTopology::Falcon, 354),
        (StandardTopology::Eagle, 1801),
        (StandardTopology::Aspen11, 598),
        (StandardTopology::AspenM, 1310),
    ];
    for &(t, cells) in expected {
        let netlist = t
            .build()
            .to_netlist(ComponentGeometry::default(), NetModel::Pseudo)
            .unwrap();
        let ours = netlist.num_components();
        let ratio = ours as f64 / cells as f64;
        assert!(
            (0.75..=1.25).contains(&ratio),
            "{t}: {ours} cells vs paper's {cells} (ratio {ratio:.2})"
        );
    }
}

/// Runs the flow and returns (LG report, DP report, fidelity of qaoa-4).
fn evaluate(
    topology: StandardTopology,
    strategy: LegalizationStrategy,
) -> (LayoutReport, Option<LayoutReport>, f64) {
    let topo = topology.build();
    let request = if strategy == LegalizationStrategy::Qgdp {
        FlowRequest::detailed(strategy, DetailedPlacerConfig::new())
    } else {
        FlowRequest::legalize(strategy)
    };
    let result = Session::new(&topo, FlowConfig::default().with_seed(31))
        .and_then(|session| session.run(request))
        .expect("flow succeeds");
    let fidelity = result.mean_benchmark_fidelity(Benchmark::Qaoa4, 10, &NoiseModel::default(), 5);
    (
        result.legalized().report().clone(),
        result.detailed().map(|dp| dp.report().clone()),
        fidelity,
    )
}

#[test]
fn fig8_shape_qgdp_beats_classical_legalizers() {
    // The headline claim: qGDP-LG improves fidelity over classical Abacus/Tetris.
    for topology in [StandardTopology::Grid, StandardTopology::Xtree] {
        let (_, _, f_qgdp) = evaluate(topology, LegalizationStrategy::Qgdp);
        let (_, _, f_tetris) = evaluate(topology, LegalizationStrategy::Tetris);
        let (_, _, f_abacus) = evaluate(topology, LegalizationStrategy::Abacus);
        assert!(
            f_qgdp >= f_tetris && f_qgdp >= f_abacus,
            "{topology:?}: qGDP {f_qgdp:.4} vs Tetris {f_tetris:.4} / Abacus {f_abacus:.4}"
        );
    }
}

#[test]
fn fig9_shape_qgdp_has_lowest_hotspot_proportion() {
    for topology in [StandardTopology::Grid, StandardTopology::Aspen11] {
        let (qgdp, _, _) = evaluate(topology, LegalizationStrategy::Qgdp);
        let (tetris, _, _) = evaluate(topology, LegalizationStrategy::Tetris);
        let (abacus, _, _) = evaluate(topology, LegalizationStrategy::Abacus);
        assert!(
            qgdp.hotspot_proportion_percent <= tetris.hotspot_proportion_percent + 1e-9,
            "{topology:?}: P_h qGDP {:.3}% vs Tetris {:.3}%",
            qgdp.hotspot_proportion_percent,
            tetris.hotspot_proportion_percent
        );
        assert!(
            qgdp.hotspot_proportion_percent <= abacus.hotspot_proportion_percent + 1e-9,
            "{topology:?}: P_h qGDP {:.3}% vs Abacus {:.3}%",
            qgdp.hotspot_proportion_percent,
            abacus.hotspot_proportion_percent
        );
    }
}

#[test]
fn fig9_shape_hybrids_fragment_resonators_more_than_qgdp() {
    // Q-Tetris / Q-Abacus fix the qubit stage but still scatter wire blocks, so their
    // cluster counts (and hence crossing risk) stay above qGDP-LG's.
    let (qgdp, _, _) = evaluate(StandardTopology::Grid, LegalizationStrategy::Qgdp);
    let (q_tetris, _, _) = evaluate(StandardTopology::Grid, LegalizationStrategy::QTetris);
    let (q_abacus, _, _) = evaluate(StandardTopology::Grid, LegalizationStrategy::QAbacus);
    assert!(qgdp.total_clusters <= q_tetris.total_clusters);
    assert!(qgdp.total_clusters <= q_abacus.total_clusters);
    assert!(qgdp.unified_resonators >= q_tetris.unified_resonators);
}

#[test]
fn table3_shape_dp_improves_every_reported_metric() {
    for topology in [StandardTopology::Grid, StandardTopology::Xtree] {
        let (lg, dp, _) = evaluate(topology, LegalizationStrategy::Qgdp);
        let dp = dp.expect("DP ran for qGDP");
        assert!(
            dp.unified_resonators >= lg.unified_resonators,
            "{topology:?} I_edge"
        );
        assert!(dp.crossings <= lg.crossings, "{topology:?} X");
        assert!(
            dp.hotspot_proportion_percent <= lg.hotspot_proportion_percent + 1e-9,
            "{topology:?} P_h"
        );
        assert!(dp.hotspot_qubits <= lg.hotspot_qubits, "{topology:?} H_Q");
    }
}

#[test]
fn larger_devices_have_lower_fidelity_for_the_same_benchmark() {
    // Fig. 8's vertical structure: for a fixed legalizer and benchmark, bigger/denser
    // topologies (Eagle) score below small ones (Grid).
    let grid = {
        let topo = StandardTopology::Grid.build();
        let r = Session::new(&topo, FlowConfig::default().with_seed(8))
            .and_then(|session| session.run(FlowRequest::legalize(LegalizationStrategy::Qgdp)))
            .unwrap();
        r.mean_benchmark_fidelity(Benchmark::Bv9, 8, &NoiseModel::default(), 3)
    };
    let eagle = {
        let topo = StandardTopology::Eagle.build();
        let r = Session::new(&topo, FlowConfig::default().with_seed(8))
            .and_then(|session| session.run(FlowRequest::legalize(LegalizationStrategy::Qgdp)))
            .unwrap();
        r.mean_benchmark_fidelity(Benchmark::Bv9, 8, &NoiseModel::default(), 3)
    };
    assert!(
        eagle <= grid + 1e-9,
        "bv-9 fidelity on Eagle ({eagle:.4}) should not exceed Grid ({grid:.4})"
    );
}
