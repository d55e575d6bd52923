//! Measures the spatial-index overlap-detection stack against its retained O(n²)
//! references and records the result in `BENCH_legalize.json`.
//!
//! ```bash
//! cargo run --release -p qgdp-bench --bin bench_legalize
//! ```
//!
//! Three kinds of rows are recorded:
//!
//! * `qubit-lg` — the full quantum qubit-legalization path (§III-C relaxation loop)
//!   on the global placement of each benched topology: indexed engine vs
//!   [`qgdp::QuantumQubitLegalizer::legalize_with_spacing_reference`].
//! * `overlap-stats` — the placement overlap statistic on the same GP layout:
//!   sweepline `count_overlaps` vs the brute-force reference.
//! * `qubit-lg-synthetic` — the bare macro engine on uniform-random macro sets well
//!   beyond the paper's device sizes, demonstrating the super-quadratic scaling gap
//!   (the reference grows ~n², the indexed path near-linearly).
//!
//! Every row asserts the optimized and reference outputs are **bit-identical**
//! before timing is reported.  Override the output path with `QGDP_BENCH_OUT`, the
//! topology panel with `QGDP_BENCH_TOPOLOGIES` (comma-separated names) and
//! repetitions with `QGDP_BENCH_REPS` (fastest rep is reported, criterion-style).

use qgdp::legalize::{legalize_macros, legalize_macros_reference, macros_are_legal};
use qgdp::prelude::*;
use qgdp_bench::harness::{self, best_of, time_ms};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One measured workload.
struct Record {
    kind: &'static str,
    workload: String,
    /// Problem size: macros for legalization rows, components for overlap rows.
    size: usize,
    spacing: f64,
    optimized_ms: f64,
    reference_ms: f64,
}

impl Record {
    fn speedup(&self) -> f64 {
        self.reference_ms / self.optimized_ms
    }
}

/// GP input for one topology: the session and its GP artifact (cheap Arc-shared
/// handles — the benched engines borrow the netlist/die/positions from them).
struct GpCase {
    session: Session,
    placed: GlobalPlacement,
}

impl GpCase {
    fn netlist(&self) -> &QuantumNetlist {
        self.session.netlist()
    }

    fn gp(&self) -> &Placement {
        self.placed.placement()
    }
}

fn gp_case(topology: StandardTopology) -> GpCase {
    // One staged session per topology: the netlist is built once and the GP
    // artifact provides the die + positions every benched engine consumes.
    let session = Session::new(&topology.build(), FlowConfig::default())
        .unwrap_or_else(|e| panic!("session for {topology}: {e}"));
    let placed = session.global_place();
    GpCase { session, placed }
}

/// The §III-C qubit-LG path (relaxation loop + engine), optimized vs reference.
fn bench_qubit_lg(topology: StandardTopology, case: &GpCase, reps: usize) -> Record {
    let lg = QuantumQubitLegalizer::new();
    let optimized = lg
        .legalize_with_spacing(case.netlist(), &case.placed.die(), case.gp())
        .unwrap_or_else(|e| panic!("{topology}: qubit legalization failed: {e}"));
    let reference = lg
        .legalize_with_spacing_reference(case.netlist(), &case.placed.die(), case.gp())
        .unwrap_or_else(|e| panic!("{topology}: reference legalization failed: {e}"));
    assert_eq!(
        optimized, reference,
        "{topology}: indexed qubit-LG path must be bit-identical to the reference"
    );

    let optimized_ms = best_of(reps, || {
        time_ms(|| lg.legalize_with_spacing(case.netlist(), &case.placed.die(), case.gp()))
    });
    let reference_ms = best_of(reps, || {
        time_ms(|| {
            lg.legalize_with_spacing_reference(case.netlist(), &case.placed.die(), case.gp())
        })
    });
    Record {
        kind: "qubit-lg",
        workload: topology.name().to_string(),
        size: case.netlist().num_qubits(),
        spacing: optimized.1,
        optimized_ms,
        reference_ms,
    }
}

/// The GP overlap statistic (GpStats.overlaps), sweepline vs brute force.
fn bench_overlap_stats(topology: StandardTopology, case: &GpCase, reps: usize) -> Record {
    let fast = case.gp().count_overlaps(case.netlist());
    let brute = case.gp().count_overlaps_reference(case.netlist());
    assert_eq!(
        fast, brute,
        "{topology}: sweepline overlap count must equal the reference"
    );
    let optimized_ms = best_of(reps, || {
        time_ms(|| case.gp().count_overlaps(case.netlist()))
    });
    let reference_ms = best_of(reps, || {
        time_ms(|| case.gp().count_overlaps_reference(case.netlist()))
    });
    Record {
        kind: "overlap-stats",
        workload: topology.name().to_string(),
        size: case.netlist().num_components(),
        spacing: 0.0,
        optimized_ms,
        reference_ms,
    }
}

/// The bare macro engine on a uniform-random macro set of `n` 40×40 macros at ~35%
/// spacing-inflated utilization — the scaling row.
fn bench_synthetic(n: usize, reps: usize) -> Record {
    let size = 40.0;
    let spacing = 10.0;
    let side = ((n as f64) * (size + spacing) * (size + spacing) / 0.35).sqrt();
    let die = Rect::from_lower_left(Point::new(0.0, 0.0), side, side);
    let mut rng = ChaCha8Rng::seed_from_u64(0xC0FFEE ^ n as u64);
    let desired: Vec<Rect> = (0..n)
        .map(|_| {
            let x = rng.gen_range(size * 0.5..side - size * 0.5);
            let y = rng.gen_range(size * 0.5..side - size * 0.5);
            Rect::from_center(Point::new(x, y), size, size)
        })
        .collect();

    let optimized = legalize_macros(&desired, &die, spacing)
        .unwrap_or_else(|e| panic!("synthetic-{n}: indexed engine failed: {e}"));
    let reference = legalize_macros_reference(&desired, &die, spacing)
        .unwrap_or_else(|e| panic!("synthetic-{n}: reference engine failed: {e}"));
    assert_eq!(
        optimized, reference,
        "synthetic-{n}: engines must be bit-identical"
    );
    assert!(
        macros_are_legal(&desired, &optimized, &die, spacing),
        "synthetic-{n}: result fails the legality oracle"
    );

    let optimized_ms = best_of(reps, || {
        time_ms(|| legalize_macros(&desired, &die, spacing))
    });
    let reference_ms = best_of(reps, || {
        time_ms(|| legalize_macros_reference(&desired, &die, spacing))
    });
    Record {
        kind: "qubit-lg-synthetic",
        workload: format!("synthetic-{n}"),
        size: n,
        spacing,
        optimized_ms,
        reference_ms,
    }
}

fn main() {
    let reps = harness::reps(5);
    let topologies = harness::topologies(&harness::DEFAULT_PANEL);

    let mut records = Vec::new();
    for &topology in &topologies {
        let case = gp_case(topology);
        records.push(bench_qubit_lg(topology, &case, reps));
        records.push(bench_overlap_stats(topology, &case, reps));
    }
    for n in [400, 800, 1600] {
        records.push(bench_synthetic(n, reps));
    }

    let mut rows = String::new();
    for r in &records {
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{ \"kind\": \"{}\", \"workload\": \"{}\", \"size\": {}, \
             \"spacing\": {:.2}, \"optimized_ms\": {:.3}, \"reference_ms\": {:.3}, \
             \"speedup\": {:.2}, \"bit_identical\": true }}",
            r.kind,
            r.workload,
            r.size,
            r.spacing,
            r.optimized_ms,
            r.reference_ms,
            r.speedup(),
        ));
    }
    let host_cpus = harness::host_cpus();
    let json = format!(
        "{{\n  \"benchmark\": \"qubit legalization + overlap stats: spatial index / \
         sweepline vs O(n^2) reference\",\n  \"reps\": {reps},\n  \
         \"host_cpus\": {host_cpus},\n  \"records\": [\n{rows}\n  ]\n}}\n"
    );
    let out_path = harness::write_record("BENCH_legalize.json", &json);
    for r in &records {
        println!(
            "{:>18} {:>14} (n={:>5}): {:>9.3}ms -> {:>8.3}ms ({:.2}x, bit-identical)",
            r.kind,
            r.workload,
            r.size,
            r.reference_ms,
            r.optimized_ms,
            r.speedup(),
        );
    }
    println!("recorded in {out_path}");
}
