//! Cross-strategy integration tests: the five legalization strategies of the paper
//! are batched through [`Session::try_run_matrix`] — so they share one global placement
//! structurally — and compared on legality, integration and hotspot metrics.

use qgdp::prelude::*;
use std::collections::BTreeMap;

/// Runs all five strategies on one topology off one shared GP artifact.
fn run_all(
    topology: StandardTopology,
    seed: u64,
) -> (Session, BTreeMap<LegalizationStrategy, FlowArtifact>) {
    let session = Session::new(&topology.build(), FlowConfig::default().with_seed(seed))
        .unwrap_or_else(|e| panic!("session for {topology:?}: {e}"));
    let artifacts = session
        .try_run_matrix(&LegalizationStrategy::all(), &[None])
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .unwrap_or_else(|e| panic!("matrix failed on {topology:?}: {e}"));
    let by_strategy = artifacts.into_iter().map(|a| (a.strategy(), a)).collect();
    (session, by_strategy)
}

#[test]
fn every_strategy_produces_a_legal_layout() {
    for topology in [StandardTopology::Grid, StandardTopology::Xtree] {
        let (_, results) = run_all(topology, 1);
        for (strategy, artifact) in results {
            assert!(artifact.is_legal(), "{strategy} illegal on {topology:?}");
        }
    }
}

#[test]
fn qgdp_has_the_fewest_clusters() {
    let (_, results) = run_all(StandardTopology::Grid, 2);
    let clusters: BTreeMap<_, _> = results
        .iter()
        .map(|(s, a)| (*s, a.report().total_clusters))
        .collect();
    let qgdp = clusters[&LegalizationStrategy::Qgdp];
    for (strategy, &c) in &clusters {
        assert!(
            qgdp <= c,
            "qGDP-LG has {qgdp} clusters but {strategy} has {c}"
        );
    }
}

#[test]
fn qgdp_has_no_more_hotspots_than_classical_baselines() {
    let (_, results) = run_all(StandardTopology::Aspen11, 3);
    let qgdp = results[&LegalizationStrategy::Qgdp]
        .report()
        .hotspot_proportion_percent;
    for strategy in [LegalizationStrategy::Tetris, LegalizationStrategy::Abacus] {
        let classical = results[&strategy].report().hotspot_proportion_percent;
        assert!(
            qgdp <= classical + 1e-9,
            "qGDP P_h {qgdp:.3}% vs {strategy} {classical:.3}%"
        );
    }
}

#[test]
fn quantum_qubit_stage_reduces_qubit_hotspots() {
    // Compare Q-Tetris vs Tetris: identical wire-block stage, different qubit stage.
    // The quantum-aware qubit stage must not increase the number of qubit–qubit
    // spatial violations, and must respect the one-cell minimum spacing.
    use qgdp::metrics::find_violations;
    let (session, results) = run_all(StandardTopology::Grid, 4);
    let qubit_violations = |strategy: LegalizationStrategy| {
        let artifact = &results[&strategy];
        find_violations(
            session.netlist(),
            artifact.final_placement(),
            &CrosstalkConfig::default(),
        )
        .iter()
        .filter(|v| v.a.is_qubit() && v.b.is_qubit())
        .count()
    };
    assert!(
        qubit_violations(LegalizationStrategy::QTetris)
            <= qubit_violations(LegalizationStrategy::Tetris)
    );

    // Minimum spacing holds for the quantum qubit stage.
    let artifact = &results[&LegalizationStrategy::QTetris];
    let netlist = session.netlist();
    let placement = artifact.final_placement();
    let spacing = netlist.geometry().min_qubit_spacing();
    let qubits: Vec<QubitId> = netlist.qubit_ids().collect();
    for (i, &a) in qubits.iter().enumerate() {
        for &b in &qubits[i + 1..] {
            let ra = netlist.qubit(a).rect_at(placement.qubit(a));
            let rb = netlist.qubit(b).rect_at(placement.qubit(b));
            assert!(
                ra.gap(&rb) >= spacing - 1e-6,
                "Q-Tetris left qubits {a} and {b} only {:.2} µm apart",
                ra.gap(&rb)
            );
        }
    }
}

#[test]
fn all_strategies_fix_every_qubit_inside_the_die() {
    let (session, results) = run_all(StandardTopology::Xtree, 5);
    for (strategy, artifact) in &results {
        let die = artifact.die();
        for q in session.netlist().qubit_ids() {
            let rect = session
                .netlist()
                .qubit(q)
                .rect_at(artifact.final_placement().qubit(q));
            assert!(
                die.contains_rect(&rect),
                "{strategy}: qubit {q} outside the die"
            );
        }
    }
}

#[test]
fn strategies_share_the_same_gp_input() {
    // The staged API makes the paper's "all comparisons are based on the same GP
    // positions" structural: every artifact of the matrix holds the *same* GP
    // allocation, not a value-equal copy.
    let (_, results) = run_all(StandardTopology::Grid, 6);
    let reference = results[&LegalizationStrategy::Qgdp].legalized().global();
    for (strategy, artifact) in &results {
        let gp = artifact.legalized().global();
        assert!(
            std::ptr::eq(gp.placement(), reference.placement()),
            "{strategy} saw a different GP allocation"
        );
        assert_eq!(
            gp.placement(),
            reference.placement(),
            "{strategy} saw different GP positions"
        );
    }
}

#[test]
fn fidelity_ordering_qgdp_not_worse_than_classical() {
    let (_, results) = run_all(StandardTopology::Grid, 7);
    let noise = NoiseModel::default();
    let fidelity = |s: LegalizationStrategy| {
        results[&s].mean_benchmark_fidelity(Benchmark::Qaoa4, 8, &noise, 99)
    };
    let f_qgdp = fidelity(LegalizationStrategy::Qgdp);
    let f_tetris = fidelity(LegalizationStrategy::Tetris);
    let f_abacus = fidelity(LegalizationStrategy::Abacus);
    assert!(
        f_qgdp >= f_tetris - 1e-9,
        "qGDP fidelity {f_qgdp:.4} below Tetris {f_tetris:.4}"
    );
    assert!(
        f_qgdp >= f_abacus - 1e-9,
        "qGDP fidelity {f_qgdp:.4} below Abacus {f_abacus:.4}"
    );
}
