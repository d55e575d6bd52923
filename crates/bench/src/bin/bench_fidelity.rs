//! Measures the serial-vs-parallel wall-clock of the Fig. 8 fidelity sweep, verifies
//! the outputs are bit-identical, and records the result in `BENCH_fidelity.json`.
//!
//! ```bash
//! QGDP_MAPPINGS=10 cargo run --release -p qgdp-bench --bin bench_fidelity
//! ```
//!
//! The serial run pins `QGDP_THREADS=1`; the parallel run uses the machine's
//! available parallelism (or an explicit pre-set `QGDP_THREADS`).  Override the
//! output path with `QGDP_BENCH_OUT`, the topology panel with
//! `QGDP_BENCH_TOPOLOGIES` (comma-separated names), and repetitions with
//! `QGDP_BENCH_REPS` (fastest rep is reported, criterion-style).

use qgdp::prelude::*;
use qgdp_bench::harness::{self, best_of};
use qgdp_bench::{fig8_series, mappings_per_benchmark, Fig8Series};
use std::time::Instant;

fn sweep(topologies: &[StandardTopology], mappings: usize, reps: usize) -> (Vec<Fig8Series>, f64) {
    let mut series = Vec::new();
    let best_ms = best_of(reps, || {
        let start = Instant::now();
        series = fig8_series(topologies, mappings);
        start.elapsed().as_secs_f64() * 1e3
    });
    (series, best_ms)
}

fn series_bits(series: &[Fig8Series]) -> Vec<u64> {
    series
        .iter()
        .flat_map(|s| s.per_benchmark.iter().map(|&(_, f)| f.to_bits()))
        .collect()
}

fn main() {
    let mappings = mappings_per_benchmark();
    let reps = harness::reps(3);
    let topologies = harness::topologies(&StandardTopology::all());

    // Worker count for the parallel leg: a pre-set QGDP_THREADS wins; otherwise the
    // machine's available parallelism, but at least 4 workers so the pool path is
    // exercised (and its overhead measured) even on small hosts.
    let threads = match std::env::var("QGDP_THREADS") {
        Ok(_) => worker_threads(),
        Err(_) => worker_threads().max(4),
    };

    // Serial baseline: the exact code path, restricted to one worker.
    std::env::set_var("QGDP_THREADS", "1");
    let (serial_series, serial_ms) = sweep(&topologies, mappings, reps);

    // Parallel run.
    std::env::set_var("QGDP_THREADS", threads.to_string());
    let (parallel_series, parallel_ms) = sweep(&topologies, mappings, reps);

    let identical = series_bits(&serial_series) == series_bits(&parallel_series);
    assert!(
        identical,
        "parallel sweep is not bit-identical to the serial sweep"
    );
    let speedup = serial_ms / parallel_ms;

    let topology_names: Vec<String> = topologies
        .iter()
        .map(|t| format!("\"{}\"", t.name()))
        .collect();
    let host_cpus = harness::host_cpus();
    let json = format!(
        "{{\n  \"benchmark\": \"fig8 fidelity sweep (strategy fan-out + mapping-set worker pool)\",\n  \"topologies\": [{}],\n  \"mappings_per_benchmark\": {mappings},\n  \"reps\": {reps},\n  \"threads\": {threads},\n  \"host_cpus\": {host_cpus},\n  \"serial_ms\": {serial_ms:.1},\n  \"parallel_ms\": {parallel_ms:.1},\n  \"speedup\": {speedup:.2},\n  \"bit_identical\": {identical}\n}}\n",
        topology_names.join(", ")
    );
    let out_path = harness::write_record("BENCH_fidelity.json", &json);
    println!(
        "serial {serial_ms:.1} ms -> parallel {parallel_ms:.1} ms on {threads} threads \
         ({speedup:.2}x, bit-identical), recorded in {out_path}"
    );
}
