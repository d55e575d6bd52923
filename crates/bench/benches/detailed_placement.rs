//! Criterion benches for the detailed-placement stage (Table III companion) and for
//! the end-to-end flow, plus an ablation of the resonator legalizer's frequency
//! awareness (a design choice called out in DESIGN.md).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qgdp::prelude::*;
use qgdp::{DetailedPlacer, ResonatorLegalizer};
use qgdp_bench::EXPERIMENT_SEED;
use qgdp_legalize::CellLegalizer;

/// The qGDP-legalized artifact of one topology, staged through a [`Session`].
fn legalized(topology: StandardTopology) -> CellLegalized {
    Session::new(
        &topology.build(),
        FlowConfig::default().with_seed(EXPERIMENT_SEED),
    )
    .expect("session builds")
    .global_place()
    .legalize(LegalizationStrategy::Qgdp)
    .expect("legalization succeeds")
}

fn bench_detailed_placement(c: &mut Criterion) {
    let mut group = c.benchmark_group("detailed_placement");
    group.sample_size(10);
    for topology in [
        StandardTopology::Grid,
        StandardTopology::Falcon,
        StandardTopology::Aspen11,
        StandardTopology::AspenM,
    ] {
        let legal = legalized(topology);
        group.bench_with_input(
            BenchmarkId::from_parameter(topology.name()),
            &legal,
            |b, legal| {
                let die = legal.die();
                b.iter(|| DetailedPlacer::new().place(legal.netlist(), &die, legal.placement()));
            },
        );
    }
    group.finish();
}

fn bench_full_flow(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_flow_qgdp");
    group.sample_size(10);
    for topology in [StandardTopology::Grid, StandardTopology::Falcon] {
        let topo = topology.build();
        group.bench_with_input(
            BenchmarkId::from_parameter(topology.name()),
            &topo,
            |b, topo| {
                b.iter(|| {
                    Session::new(topo, FlowConfig::default().with_seed(EXPERIMENT_SEED))
                        .and_then(|session| {
                            session.run(FlowRequest::detailed(
                                LegalizationStrategy::Qgdp,
                                DetailedPlacerConfig::new(),
                            ))
                        })
                        .expect("flow succeeds")
                });
            },
        );
    }
    group.finish();
}

/// Ablation: integration-aware legalization with and without the frequency-adjacency
/// penalty.  The runtime cost of frequency awareness is what this bench quantifies;
/// its quality benefit is reported by the `fig9` binary.
fn bench_frequency_awareness_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("resonator_lg_frequency_ablation");
    group.sample_size(10);
    let qubits = Session::new(
        &StandardTopology::Aspen11.build(),
        FlowConfig::default().with_seed(EXPERIMENT_SEED),
    )
    .expect("session builds")
    .global_place()
    .legalize_qubits(LegalizationStrategy::Qgdp)
    .expect("qubit legalization succeeds");
    let die = qubits.die();
    for (name, penalty) in [("frequency_aware", 3.0), ("frequency_blind", 0.0)] {
        group.bench_function(name, |b| {
            let legalizer = ResonatorLegalizer::new().with_frequency_penalty(penalty);
            b.iter(|| {
                legalizer
                    .legalize_cells(qubits.netlist(), &die, qubits.placement())
                    .expect("legal")
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_detailed_placement,
    bench_full_flow,
    bench_frequency_awareness_ablation
);
criterion_main!(benches);
