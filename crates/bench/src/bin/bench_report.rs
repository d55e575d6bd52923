//! Measures the incremental metrics engine against the from-scratch reference paths
//! and records the result in `BENCH_report.json`.
//!
//! ```bash
//! cargo run --release -p qgdp-bench --bin bench_report
//! ```
//!
//! Three record kinds per benched topology, each an optimized-vs-reference pair on
//! identical inputs whose outputs are asserted **bit-identical** before timing:
//!
//! * **`crossings`** — the [`SegmentGrid`]-indexed crossing detector
//!   ([`crossing_pairs`]) vs the O(n²) pairwise reference
//!   ([`crossing_pairs_reference`]);
//! * **`report-scan-cache`** — assembling a [`LayoutReport`] *and* a
//!   [`FidelityEvaluator`] from one shared [`LayoutScan`] (the session-artifact
//!   cache path) vs paying the layout walk twice with [`LayoutReport::evaluate`] and
//!   [`FidelityEvaluator::new`];
//! * **`delta-moves`** — scoring a deterministic move sequence through one
//!   [`ReportDelta`] (construction amortised over the moves) vs a full
//!   [`LayoutReport::evaluate`] after every move.
//!
//! On the real (legalized) topologies both crossing legs are dominated by the shared
//! route construction, so additional **`crossings-synthetic`** rows measure serpentine
//! chain netlists of growing resonator count, where the reference's quadratic
//! route-pair walk dominates and the index's near-linear behaviour shows.
//!
//! Override the output path with `QGDP_BENCH_OUT`, the topology panel with
//! `QGDP_BENCH_TOPOLOGIES` (comma-separated names) and repetitions with
//! `QGDP_BENCH_REPS` (fastest rep is reported, criterion-style).
//!
//! [`SegmentGrid`]: qgdp::geometry::SegmentGrid
//! [`crossing_pairs`]: qgdp::metrics::crossing_pairs
//! [`crossing_pairs_reference`]: qgdp::metrics::crossing_pairs_reference
//! [`LayoutReport`]: qgdp::metrics::LayoutReport
//! [`LayoutReport::evaluate`]: qgdp::metrics::LayoutReport::evaluate
//! [`FidelityEvaluator`]: qgdp::metrics::FidelityEvaluator
//! [`FidelityEvaluator::new`]: qgdp::metrics::FidelityEvaluator::new
//! [`LayoutScan`]: qgdp::metrics::LayoutScan
//! [`ReportDelta`]: qgdp::metrics::ReportDelta

use qgdp::metrics::{
    crossing_pairs, crossing_pairs_reference, CrosstalkConfig, FidelityEvaluator, LayoutReport,
    LayoutScan, NoiseModel, ReportDelta,
};
use qgdp::prelude::*;
use qgdp_bench::experiment_config;
use qgdp_bench::harness::{self, best_of, time_ms};
use qgdp_geometry::Point;
use qgdp_netlist::{ComponentGeometry, ComponentId, NetlistBuilder, Placement, QuantumNetlist};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Number of moves in the `delta-moves` sequence.
const MOVES: usize = 32;

/// One measured optimized-vs-reference pair.
struct Record {
    kind: &'static str,
    topology: String,
    components: usize,
    resonators: usize,
    optimized_ms: f64,
    reference_ms: f64,
}

impl Record {
    fn speedup(&self) -> f64 {
        self.reference_ms / self.optimized_ms
    }
}

/// The legalized qGDP layout of one topology — the placement every record measures on.
fn legalized_layout(topology: StandardTopology) -> (Session, Placement) {
    let topo = topology.build();
    let session = Session::new(&topo, experiment_config()).expect("session builds");
    let cell = session
        .global_place()
        .legalize(LegalizationStrategy::Qgdp)
        .unwrap_or_else(|e| panic!("qGDP legalization failed on {topology}: {e}"));
    let placement = cell.placement().clone();
    (session, placement)
}

/// The deterministic `delta-moves` sequence: every k-th segment nudged by a small
/// index-derived offset (seed-free, so the verify and timing phases replay it
/// exactly).
fn move_sequence(netlist: &QuantumNetlist, placement: &Placement) -> Vec<(ComponentId, Point)> {
    let segments: Vec<ComponentId> = netlist.segment_ids().map(ComponentId::Segment).collect();
    (0..MOVES)
        .map(|k| {
            let id = segments[(k * 13) % segments.len()];
            let from = placement.component(id);
            let dx = ((k * 37) % 21) as f64 - 10.0;
            let dy = ((k * 53) % 21) as f64 - 10.0;
            (id, Point::new(from.x + dx, from.y + dy))
        })
        .collect()
}

/// Asserts every optimized path is bit-identical to its reference on this layout.
fn verify_bit_identity(
    topology: StandardTopology,
    netlist: &QuantumNetlist,
    placement: &Placement,
    config: &CrosstalkConfig,
) {
    // Indexed crossing detector vs pairwise reference.
    assert_eq!(
        crossing_pairs(netlist, placement),
        crossing_pairs_reference(netlist, placement),
        "{topology}: indexed crossing detector must match the reference"
    );

    // Scan-cached report + evaluator vs the from-scratch pair.
    let scan = LayoutScan::scan(netlist, placement, config);
    let cached_report = LayoutReport::from_scan(netlist, &scan);
    let fresh_report = LayoutReport::evaluate(netlist, placement, config);
    assert_eq!(
        cached_report, fresh_report,
        "{topology}: scan-cached report"
    );
    assert_eq!(
        cached_report.hotspot_proportion_percent.to_bits(),
        fresh_report.hotspot_proportion_percent.to_bits(),
        "{topology}: P_h must be bit-identical"
    );
    let noise = NoiseModel::default();
    let cached_eval = FidelityEvaluator::from_scan(netlist, noise, &scan);
    let fresh_eval = FidelityEvaluator::new(netlist, placement, noise, config);
    assert_eq!(
        cached_eval.violations(),
        fresh_eval.violations(),
        "{topology}: scan-cached evaluator violations"
    );
    assert_eq!(
        cached_eval.crossings(),
        fresh_eval.crossings(),
        "{topology}: scan-cached evaluator crossings"
    );

    // Delta engine vs a full evaluate after every move.
    let mut delta = ReportDelta::new(netlist, placement, config);
    let mut scratch = placement.clone();
    for (id, to) in move_sequence(netlist, placement) {
        delta.apply_move(id, to);
        scratch.set_component(id, to);
        let fresh = LayoutReport::evaluate(netlist, &scratch, config);
        let incremental = delta.report();
        assert_eq!(incremental, fresh, "{topology}: delta report after a move");
        assert_eq!(
            incremental.hotspot_proportion_percent.to_bits(),
            fresh.hotspot_proportion_percent.to_bits(),
            "{topology}: delta P_h must be bit-identical"
        );
    }
}

fn bench_topology(topology: StandardTopology, reps: usize) -> Vec<Record> {
    let (session, placement) = legalized_layout(topology);
    let netlist = session.netlist();
    let config = experiment_config().crosstalk;
    verify_bit_identity(topology, netlist, &placement, &config);

    let components = netlist.num_components();
    let resonators = netlist.num_resonators();
    let row = |kind: &'static str, optimized_ms: f64, reference_ms: f64| Record {
        kind,
        topology: topology.name().to_string(),
        components,
        resonators,
        optimized_ms,
        reference_ms,
    };

    // --- crossings: indexed detector vs pairwise reference.
    let crossings_opt = best_of(reps, || time_ms(|| crossing_pairs(netlist, &placement)));
    let crossings_ref = best_of(reps, || {
        time_ms(|| crossing_pairs_reference(netlist, &placement))
    });

    // --- report-scan-cache: report + fidelity evaluator off one shared scan vs
    // paying the layout walk once per consumer.
    let noise = NoiseModel::default();
    let scan_opt = best_of(reps, || {
        let start = Instant::now();
        let scan = LayoutScan::scan(netlist, &placement, &config);
        std::hint::black_box(LayoutReport::from_scan(netlist, &scan));
        std::hint::black_box(FidelityEvaluator::from_scan(netlist, noise, &scan));
        start.elapsed().as_secs_f64() * 1e3
    });
    let scan_ref = best_of(reps, || {
        let start = Instant::now();
        std::hint::black_box(LayoutReport::evaluate(netlist, &placement, &config));
        std::hint::black_box(FidelityEvaluator::new(netlist, &placement, noise, &config));
        start.elapsed().as_secs_f64() * 1e3
    });

    // --- delta-moves: one ReportDelta scoring the whole sequence (construction
    // amortised) vs a from-scratch evaluate per move.
    let moves = move_sequence(netlist, &placement);
    let delta_opt = best_of(reps, || {
        let start = Instant::now();
        let mut delta = ReportDelta::new(netlist, &placement, &config);
        for &(id, to) in &moves {
            delta.apply_move(id, to);
            std::hint::black_box(delta.report());
        }
        start.elapsed().as_secs_f64() * 1e3
    });
    let delta_ref = best_of(reps, || {
        let start = Instant::now();
        let mut scratch = placement.clone();
        for &(id, to) in &moves {
            scratch.set_component(id, to);
            std::hint::black_box(LayoutReport::evaluate(netlist, &scratch, &config));
        }
        start.elapsed().as_secs_f64() * 1e3
    });

    vec![
        row("crossings", crossings_opt, crossings_ref),
        row("report-scan-cache", scan_opt, scan_ref),
        row("delta-moves", delta_opt, delta_ref),
    ]
}

/// A serpentine chain of `n` resonators well beyond the paper's device sizes, each
/// route jittered but locally confined — the regime where the reference's quadratic
/// route-pair walk dominates while the grid stays near-linear (the real topologies
/// are too small for the detectors to separate from shared route construction).
fn serpentine_chain(n: usize) -> (QuantumNetlist, Placement) {
    let netlist = NetlistBuilder::new(ComponentGeometry::new())
        .qubits(n + 1)
        .couple_all((0..n).map(|i| (i, i + 1)))
        .build()
        .unwrap_or_else(|e| panic!("synthetic-{n}: netlist build failed: {e}"));

    // Qubits on a boustrophedon grid so chain neighbours stay physically adjacent.
    let pitch = 250.0;
    let cols = ((n + 1) as f64).sqrt().ceil() as usize;
    let qubit_at = |k: usize| {
        let row = k / cols;
        let col = if row % 2 == 0 {
            k % cols
        } else {
            cols - 1 - (k % cols)
        };
        Point::new(col as f64 * pitch, row as f64 * pitch)
    };

    // Each resonator's blocks spread along its qubit–qubit axis with enough jitter
    // to fragment the route into a short wiggly polyline near that axis.
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED ^ n as u64);
    let mut placement = Placement::new(&netlist);
    for k in 0..=n {
        placement.set_component(ComponentId::Qubit(qgdp_netlist::QubitId(k)), qubit_at(k));
    }
    for r in 0..n {
        let (a, b) = (qubit_at(r), qubit_at(r + 1));
        let segments = netlist.resonator(qgdp_netlist::ResonatorId(r)).segments();
        let steps = (segments.len() + 1) as f64;
        for (j, &s) in segments.iter().enumerate() {
            let t = (j + 1) as f64 / steps;
            let base = Point::new(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y));
            let jx = rng.gen_range(-30.0..30.0);
            let jy = rng.gen_range(-30.0..30.0);
            placement.set_component(
                ComponentId::Segment(s),
                Point::new(base.x + jx, base.y + jy),
            );
        }
    }
    (netlist, placement)
}

fn bench_synthetic_crossings(n: usize, reps: usize) -> Record {
    let (netlist, placement) = serpentine_chain(n);
    let optimized = crossing_pairs(&netlist, &placement);
    let reference = crossing_pairs_reference(&netlist, &placement);
    assert_eq!(
        optimized, reference,
        "synthetic-{n}: indexed crossing detector must match the reference"
    );

    let optimized_ms = best_of(reps, || time_ms(|| crossing_pairs(&netlist, &placement)));
    let reference_ms = best_of(reps, || {
        time_ms(|| crossing_pairs_reference(&netlist, &placement))
    });
    Record {
        kind: "crossings-synthetic",
        topology: format!("synthetic-{n}"),
        components: netlist.num_components(),
        resonators: netlist.num_resonators(),
        optimized_ms,
        reference_ms,
    }
}

fn main() {
    let reps = harness::reps(5);
    let topologies = harness::topologies(&harness::DEFAULT_PANEL);

    let mut records: Vec<Record> = topologies
        .iter()
        .flat_map(|&t| bench_topology(t, reps))
        .collect();
    if std::env::var("QGDP_BENCH_TOPOLOGIES").is_err() {
        records.extend([4000, 8000, 16000].map(|n| bench_synthetic_crossings(n, reps)));
    }

    let mut rows = String::new();
    for r in &records {
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{ \"kind\": \"{}\", \"topology\": \"{}\", \"components\": {}, \
             \"resonators\": {}, \"moves\": {}, \"optimized_ms\": {:.3}, \
             \"reference_ms\": {:.3}, \"speedup\": {:.2}, \"bit_identical\": true }}",
            r.kind,
            r.topology,
            r.components,
            r.resonators,
            if r.kind == "delta-moves" { MOVES } else { 0 },
            r.optimized_ms,
            r.reference_ms,
            r.speedup(),
        ));
    }
    let host_cpus = harness::host_cpus();
    let json = format!(
        "{{\n  \"benchmark\": \"incremental metrics engine: indexed crossings, shared \
         layout scans and delta reports vs from-scratch reference paths\",\n  \
         \"reps\": {reps},\n  \"host_cpus\": {host_cpus},\n  \"records\": [\n{rows}\n  ]\n}}\n"
    );
    let out_path = harness::write_record("BENCH_report.json", &json);
    for r in &records {
        println!(
            "{:>8} / {:<18} {:>9.3}ms -> {:>8.3}ms ({:.2}x, bit-identical)",
            r.topology,
            r.kind,
            r.reference_ms,
            r.optimized_ms,
            r.speedup(),
        );
    }
    println!("recorded in {out_path}");
}
