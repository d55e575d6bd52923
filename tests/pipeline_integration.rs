//! End-to-end integration tests of the staged qGDP pipeline across crates: topology
//! generation, netlist construction, global placement, both legalization stages,
//! detailed placement and metric evaluation all exercised together through the
//! [`Session`] artifact API.

use qgdp::prelude::*;

/// The staged artifacts of one full pipeline run.
struct Staged {
    session: Session,
    gp: GlobalPlacement,
    legalized: CellLegalized,
    detailed: Option<Detailed>,
}

fn flow(topology: StandardTopology, strategy: LegalizationStrategy, dp: bool) -> Staged {
    let session = Session::new(&topology.build(), FlowConfig::default().with_seed(2024))
        .expect("session builds");
    let gp = session.global_place();
    let legalized = gp.legalize(strategy).expect("legalization succeeds");
    let detailed = dp.then(|| legalized.detail());
    Staged {
        session,
        gp,
        legalized,
        detailed,
    }
}

#[test]
fn qgdp_flow_is_legal_on_every_standard_topology() {
    for topology in StandardTopology::all() {
        let staged = flow(topology, LegalizationStrategy::Qgdp, false);
        assert!(
            staged.legalized.is_legal(),
            "{topology:?}: qGDP-LG produced an illegal layout"
        );
        assert_eq!(staged.session.netlist().num_qubits(), topology.num_qubits());
    }
}

#[test]
fn gp_layout_is_illegal_but_legalization_fixes_it() {
    let staged = flow(StandardTopology::Falcon, LegalizationStrategy::Qgdp, false);
    let netlist = staged.session.netlist();
    // The GP layout is expected to contain overlaps (that is the point of legalizing).
    let gp_overlaps = staged.gp.placement().count_overlaps(netlist);
    let lg_overlaps = staged.legalized.placement().count_overlaps(netlist);
    assert!(gp_overlaps > 0, "GP should leave overlaps for LG to fix");
    assert_eq!(lg_overlaps, 0, "legalization must remove every overlap");
}

#[test]
fn legalization_preserves_gp_structure() {
    // Legalization should displace components, not scramble them: the total
    // displacement per component must stay well below the die diagonal.
    let staged = flow(StandardTopology::Grid, LegalizationStrategy::Qgdp, false);
    let per_component = staged
        .legalized
        .placement()
        .total_displacement_from(staged.gp.placement())
        / staged.session.netlist().num_components() as f64;
    let die = staged.gp.die();
    let diagonal = (die.width().powi(2) + die.height().powi(2)).sqrt();
    assert!(
        per_component < diagonal * 0.25,
        "average displacement {per_component:.1} µm vs die diagonal {diagonal:.1} µm"
    );
}

#[test]
fn detailed_placement_only_improves_the_layout() {
    for topology in [
        StandardTopology::Grid,
        StandardTopology::Xtree,
        StandardTopology::Aspen11,
    ] {
        let staged = flow(topology, LegalizationStrategy::Qgdp, true);
        let lg = staged.legalized.report();
        let dp_artifact = staged.detailed.as_ref().expect("DP ran");
        let dp = dp_artifact.report();
        assert!(dp_artifact.is_legal(), "{topology:?}: DP output illegal");
        assert!(
            dp.total_clusters <= lg.total_clusters,
            "{topology:?}: DP increased cluster count"
        );
        assert!(
            dp.unified_resonators >= lg.unified_resonators,
            "{topology:?}: DP reduced I_edge"
        );
        assert!(
            dp.hotspot_proportion_percent <= lg.hotspot_proportion_percent + 1e-9,
            "{topology:?}: DP increased P_h"
        );
        assert!(
            dp.hotspot_qubits <= lg.hotspot_qubits,
            "{topology:?}: DP increased H_Q"
        );
    }
}

#[test]
fn detailed_placement_never_moves_qubits() {
    let staged = flow(StandardTopology::Aspen11, LegalizationStrategy::Qgdp, true);
    let dp = staged.detailed.as_ref().expect("DP ran");
    for q in staged.session.netlist().qubit_ids() {
        assert_eq!(
            dp.placement().qubit(q),
            staged.legalized.placement().qubit(q)
        );
    }
}

#[test]
fn quantum_qubit_legalizer_enforces_min_spacing_on_real_gp() {
    let staged = flow(StandardTopology::Grid, LegalizationStrategy::Qgdp, false);
    let netlist = staged.session.netlist();
    let spacing = netlist.geometry().min_qubit_spacing();
    let legalized = staged.legalized.placement();
    let mut min_gap = f64::INFINITY;
    let qubits: Vec<QubitId> = netlist.qubit_ids().collect();
    for (i, &a) in qubits.iter().enumerate() {
        for &b in &qubits[i + 1..] {
            let ra = netlist.qubit(a).rect_at(legalized.qubit(a));
            let rb = netlist.qubit(b).rect_at(legalized.qubit(b));
            min_gap = min_gap.min(ra.gap(&rb));
        }
    }
    assert!(
        min_gap >= spacing - 1e-6,
        "minimum qubit gap {min_gap:.2} µm below the {spacing:.2} µm requirement"
    );
}

#[test]
fn fidelity_pipeline_produces_sane_numbers() {
    let staged = flow(StandardTopology::Grid, LegalizationStrategy::Qgdp, true);
    let dp = staged.detailed.as_ref().expect("DP ran");
    let noise = NoiseModel::default();
    let f_small = dp.mean_benchmark_fidelity(Benchmark::Bv4, 5, &noise, 42);
    let f_large = dp.mean_benchmark_fidelity(Benchmark::Bv16, 5, &noise, 42);
    assert!(f_small > 0.0 && f_small <= 1.0);
    assert!(f_large > 0.0 && f_large <= 1.0);
    assert!(
        f_large < f_small,
        "bv-16 ({f_large:.4}) should have lower fidelity than bv-4 ({f_small:.4})"
    );
}

#[test]
fn stage_events_are_recorded_in_pipeline_order() {
    let staged = flow(StandardTopology::Falcon, LegalizationStrategy::Qgdp, true);
    let dp = staged.detailed.as_ref().expect("DP ran");
    let events = dp.events();
    let stages: Vec<Stage> = events.iter().map(|e| e.stage).collect();
    assert_eq!(
        stages,
        vec![
            Stage::GlobalPlacement,
            Stage::QubitLegalization,
            Stage::ResonatorLegalization,
            Stage::DetailedPlacement,
        ]
    );
    for event in &events {
        assert!(
            event.duration.as_nanos() > 0,
            "{} took zero time",
            event.stage
        );
    }
    // Each event is the stage time its own artifact reports.
    assert_eq!(events[0].duration, staged.gp.elapsed());
    assert_eq!(events[1].duration, staged.legalized.qubit_stage().elapsed());
    assert_eq!(events[2].duration, staged.legalized.elapsed());
    assert_eq!(events[3].duration, dp.elapsed());
}

#[test]
fn chain_net_model_also_flows_end_to_end() {
    let topo = StandardTopology::Grid.build();
    let session = Session::new(
        &topo,
        FlowConfig::default()
            .with_seed(77)
            .with_net_model(NetModel::Chain),
    )
    .expect("chain-model session builds");
    let artifact = session
        .run(FlowRequest::legalize(LegalizationStrategy::Qgdp))
        .expect("chain-model flow succeeds");
    assert!(artifact.is_legal());
}
