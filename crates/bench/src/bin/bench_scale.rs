//! Roadmap-scale wall-clock curves: runs the staged flow on the 1k/10k-qubit
//! heavy-hex generators, fits a log-log slope per stage, and records the result
//! in `BENCH_scale.json` for `scripts/bench_gate` to hold sub-quadratic.
//!
//! ```bash
//! cargo run --release -p qgdp-bench --bin bench_scale
//! ```
//!
//! Three kinds of rows are recorded:
//!
//! * `scale` — one row per (device size, stage) with the best-of-reps wall
//!   clock.  Stages: `gp` (global placement), `qubit-lg` (§III-C relaxation
//!   loop), `report` ([`LayoutReport::evaluate`] on the legalized layout) and
//!   `end-to-end` (netlist build → GP → qubit-LG → report).  At sizes below
//!   `QGDP_SCALE_REFERENCE_CEILING` (default 2500) the retained reference
//!   engine also runs: qubit-LG and the report's violation scan must be
//!   **bit-identical**, GP records its `hpwl_rel_diff` against the quadratic
//!   reference (the placer contract is ULP-level agreement, not bit equality).
//! * `scale-distance` — the distance-provider attestation: after mapping a
//!   benchmark circuit on each device the row records which tier served the
//!   distances and whether the dense O(n²) matrix was ever materialized.  The
//!   binary **panics** if a roadmap-scale device (above the lazy threshold)
//!   materializes the dense matrix — that allocation is the thing this PR
//!   removes.
//! * `scale-slope` — per stage, the least-squares slope of ln(wall-clock)
//!   against ln(size) over the heavy-hex ladder.  `scripts/bench_gate` holds
//!   each slope under its ceiling (default 2.0: sub-quadratic).
//!
//! A multi-chip module (2×2 heavy-hex tiles stitched by inter-chip couplers)
//! runs the end-to-end stage once as an extra `scale` row; it is excluded from
//! the slope fits, which use the single-chip ladder only.
//!
//! Override the size ladder with `QGDP_SCALE_SIZES` (comma-separated target
//! qubit counts), the reference ceiling with `QGDP_SCALE_REFERENCE_CEILING`,
//! the output path with `QGDP_BENCH_OUT` and repetitions with
//! `QGDP_BENCH_REPS` (fastest rep is reported, criterion-style).

use qgdp::metrics::{find_violations, find_violations_reference, CrosstalkConfig, LayoutReport};
use qgdp::prelude::*;
use qgdp::topology::{
    distance_settings_from_env, multi_chip, resolve_tier, roadmap_heavy_hex, DistanceTier, Topology,
};
use qgdp_bench::harness::{self, best_of, time_ms};

/// One measured (size, stage) point.
struct ScaleRow {
    stage: &'static str,
    workload: String,
    size: usize,
    wall_ms: f64,
    /// Reference-engine wall clock, when the size is under the ceiling.
    reference_ms: Option<f64>,
    /// Bit-identity verdict, for stages whose reference contract is exact.
    bit_identical: Option<bool>,
    /// GP-only: relative HPWL disagreement with the quadratic reference.
    hpwl_rel_diff: Option<f64>,
}

/// The distance-provider attestation for one device.
struct DistanceRow {
    workload: String,
    size: usize,
    map_ms: f64,
    tier: DistanceTier,
    dense_materialized: bool,
    rows_materialized: usize,
}

/// Least-squares slope of ln(y) on ln(x).  Points with non-positive wall clock
/// are clamped to 1 µs so a timer-resolution zero cannot poison the fit.
fn log_log_slope(points: &[(usize, f64)]) -> f64 {
    assert!(points.len() >= 2, "slope fit needs at least two sizes");
    let xs: Vec<f64> = points.iter().map(|&(n, _)| (n as f64).ln()).collect();
    let ys: Vec<f64> = points.iter().map(|&(_, ms)| ms.max(1e-3).ln()).collect();
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let cov: f64 = xs
        .iter()
        .zip(&ys)
        .map(|(x, y)| (x - mean_x) * (y - mean_y))
        .sum();
    let var: f64 = xs.iter().map(|x| (x - mean_x) * (x - mean_x)).sum();
    cov / var
}

/// Runs the four benched stages on one device and pushes their rows.
fn bench_device(
    topology: &Topology,
    reps: usize,
    reference_ceiling: usize,
    rows: &mut Vec<ScaleRow>,
) {
    let workload = topology.name().to_string();
    let size = topology.num_qubits();
    let with_reference = size <= reference_ceiling;
    let geometry = ComponentGeometry::default();
    let crosstalk = CrosstalkConfig::default();
    let netlist = topology
        .to_netlist(geometry, NetModel::Pseudo)
        .unwrap_or_else(|e| panic!("{workload}: netlist build failed: {e}"));
    let placer = GlobalPlacer::default();

    // --- gp ---
    let gp = placer.place(&netlist, topology);
    let gp_ms = best_of(reps, || time_ms(|| placer.place(&netlist, topology)));
    let (gp_reference_ms, hpwl_rel_diff) = if with_reference {
        let reference = placer.place_reference(&netlist, topology);
        let diff = (gp.stats.hpwl - reference.stats.hpwl).abs() / reference.stats.hpwl.abs();
        let ms = time_ms(|| placer.place_reference(&netlist, topology));
        (Some(ms), Some(diff))
    } else {
        (None, None)
    };
    rows.push(ScaleRow {
        stage: "gp",
        workload: workload.clone(),
        size,
        wall_ms: gp_ms,
        reference_ms: gp_reference_ms,
        bit_identical: None,
        hpwl_rel_diff,
    });

    // --- qubit-lg ---
    let lg = QuantumQubitLegalizer::new();
    let legalized = lg
        .legalize_with_spacing(&netlist, &gp.die, &gp.placement)
        .unwrap_or_else(|e| panic!("{workload}: qubit legalization failed: {e}"));
    let lg_ms = best_of(reps, || {
        time_ms(|| lg.legalize_with_spacing(&netlist, &gp.die, &gp.placement))
    });
    let (lg_reference_ms, lg_identical) = if with_reference {
        let reference = lg
            .legalize_with_spacing_reference(&netlist, &gp.die, &gp.placement)
            .unwrap_or_else(|e| panic!("{workload}: reference legalization failed: {e}"));
        assert_eq!(
            legalized, reference,
            "{workload}: indexed qubit-LG must be bit-identical to the reference"
        );
        let ms = time_ms(|| lg.legalize_with_spacing_reference(&netlist, &gp.die, &gp.placement));
        (Some(ms), Some(true))
    } else {
        (None, None)
    };
    rows.push(ScaleRow {
        stage: "qubit-lg",
        workload: workload.clone(),
        size,
        wall_ms: lg_ms,
        reference_ms: lg_reference_ms,
        bit_identical: lg_identical,
        hpwl_rel_diff: None,
    });

    // --- report ---
    let report_ms = best_of(reps, || {
        time_ms(|| LayoutReport::evaluate(&netlist, &legalized.0, &crosstalk))
    });
    let (report_reference_ms, report_identical) = if with_reference {
        let fast = find_violations(&netlist, &legalized.0, &crosstalk);
        let reference = find_violations_reference(&netlist, &legalized.0, &crosstalk);
        assert_eq!(
            fast, reference,
            "{workload}: flat violation scan must be bit-identical to the reference"
        );
        let ms = time_ms(|| find_violations_reference(&netlist, &legalized.0, &crosstalk));
        (Some(ms), Some(true))
    } else {
        (None, None)
    };
    rows.push(ScaleRow {
        stage: "report",
        workload: workload.clone(),
        size,
        wall_ms: report_ms,
        reference_ms: report_reference_ms,
        bit_identical: report_identical,
        hpwl_rel_diff: None,
    });

    // --- end-to-end (netlist build -> GP -> qubit-LG -> report) ---
    let e2e_ms = best_of(reps, || {
        time_ms(|| {
            let netlist = topology
                .to_netlist(geometry, NetModel::Pseudo)
                .expect("netlist build");
            let gp = placer.place(&netlist, topology);
            let legalized = lg
                .legalize_with_spacing(&netlist, &gp.die, &gp.placement)
                .expect("qubit legalization");
            LayoutReport::evaluate(&netlist, &legalized.0, &crosstalk)
        })
    });
    rows.push(ScaleRow {
        stage: "end-to-end",
        workload,
        size,
        wall_ms: e2e_ms,
        reference_ms: None,
        bit_identical: None,
        hpwl_rel_diff: None,
    });
}

/// Maps a benchmark circuit on the device and attests which distance tier
/// served it.  Panics when a device above the lazy threshold materializes the
/// dense O(n²) matrix.
fn attest_distances(topology: &Topology) -> DistanceRow {
    let circuit = Benchmark::Bv9.circuit();
    let map_ms = time_ms(|| map_circuit(&circuit, topology, 0xBEEF));
    let dist = topology.distances();
    let (mode, threshold, _) = distance_settings_from_env();
    let expected = resolve_tier(mode, threshold, topology.num_qubits());
    assert_eq!(
        dist.tier(),
        expected,
        "{}: distance tier does not match the policy",
        topology.name()
    );
    if dist.tier() == DistanceTier::Lazy {
        assert!(
            !topology.dense_distances_materialized(),
            "{}: lazy-tier device materialized the dense distance matrix",
            topology.name()
        );
    }
    DistanceRow {
        workload: topology.name().to_string(),
        size: topology.num_qubits(),
        map_ms,
        tier: dist.tier(),
        dense_materialized: topology.dense_distances_materialized(),
        rows_materialized: dist.rows_materialized(),
    }
}

fn main() {
    let reps = harness::reps(3);
    let reference_ceiling: usize = std::env::var("QGDP_SCALE_REFERENCE_CEILING")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2500);
    let sizes: Vec<usize> = std::env::var("QGDP_SCALE_SIZES")
        .unwrap_or_else(|_| "1000,2000,4000,10000".to_string())
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .unwrap_or_else(|_| panic!("QGDP_SCALE_SIZES: bad size {s:?}"))
        })
        .collect();

    let mut rows = Vec::new();
    let mut distance_rows = Vec::new();
    let mut ladder: Vec<(String, usize)> = Vec::new();
    for &target in &sizes {
        let topology = roadmap_heavy_hex(target);
        eprintln!(
            "bench_scale: {} ({} qubits, target {target})",
            topology.name(),
            topology.num_qubits()
        );
        bench_device(&topology, reps, reference_ceiling, &mut rows);
        distance_rows.push(attest_distances(&topology));
        ladder.push((topology.name().to_string(), topology.num_qubits()));
    }

    // One multi-chip module through the end-to-end stage (not part of the fits).
    // Gap is in canonical lattice units (pitch 1.0): a few pitches of street
    // between tiles, as on real multi-chip carriers.
    let chip = roadmap_heavy_hex(*sizes.first().expect("at least one size"));
    let module = multi_chip(&chip, 2, 2, 8, 4.0);
    eprintln!(
        "bench_scale: {} ({} qubits)",
        module.name(),
        module.num_qubits()
    );
    bench_device(&module, reps, reference_ceiling, &mut rows);
    distance_rows.push(attest_distances(&module));

    // Per-stage log-log slopes over the single-chip ladder.
    let ladder_names: Vec<&str> = ladder.iter().map(|(name, _)| name.as_str()).collect();
    let stages = ["gp", "qubit-lg", "report", "end-to-end"];
    let mut slopes: Vec<(&str, f64, usize, usize, usize)> = Vec::new();
    for stage in stages {
        let points: Vec<(usize, f64)> = rows
            .iter()
            .filter(|r| r.stage == stage && ladder_names.contains(&r.workload.as_str()))
            .map(|r| (r.size, r.wall_ms))
            .collect();
        if points.len() >= 2 {
            let slope = log_log_slope(&points);
            let min = points.iter().map(|p| p.0).min().unwrap();
            let max = points.iter().map(|p| p.0).max().unwrap();
            slopes.push((stage, slope, points.len(), min, max));
        }
    }

    // --- JSON ---
    let mut out = String::new();
    for r in &rows {
        if !out.is_empty() {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "    {{ \"kind\": \"scale\", \"stage\": \"{}\", \"workload\": \"{}\", \
             \"size\": {}, \"wall_ms\": {:.3}",
            r.stage, r.workload, r.size, r.wall_ms
        ));
        if let Some(ms) = r.reference_ms {
            out.push_str(&format!(", \"reference_ms\": {ms:.3}"));
        }
        if let Some(ok) = r.bit_identical {
            out.push_str(&format!(", \"bit_identical\": {ok}"));
        }
        if let Some(diff) = r.hpwl_rel_diff {
            out.push_str(&format!(", \"hpwl_rel_diff\": {diff:.3e}"));
        }
        out.push_str(" }");
    }
    for r in &distance_rows {
        out.push_str(&format!(
            ",\n    {{ \"kind\": \"scale-distance\", \"workload\": \"{}\", \"size\": {}, \
             \"map_ms\": {:.3}, \"distance_tier\": \"{}\", \"dense_materialized\": {}, \
             \"rows_materialized\": {} }}",
            r.workload, r.size, r.map_ms, r.tier, r.dense_materialized, r.rows_materialized
        ));
    }
    for (stage, slope, points, min, max) in &slopes {
        out.push_str(&format!(
            ",\n    {{ \"kind\": \"scale-slope\", \"stage\": \"{stage}\", \"slope\": {slope:.3}, \
             \"points\": {points}, \"min_size\": {min}, \"max_size\": {max} }}"
        ));
    }
    let host_cpus = harness::host_cpus();
    let json = format!(
        "{{\n  \"benchmark\": \"roadmap-scale wall-clock curves: staged flow on \
         heavy-hex 1k..10k devices, log-log slope per stage\",\n  \"reps\": {reps},\n  \
         \"host_cpus\": {host_cpus},\n  \"records\": [\n{out}\n  ]\n}}\n"
    );
    let out_path = harness::write_record("BENCH_scale.json", &json);
    for (stage, slope, points, min, max) in &slopes {
        println!("{stage:>12}: slope {slope:+.3} over {points} sizes ({min}..{max})");
    }
    println!("recorded in {out_path}");
}
