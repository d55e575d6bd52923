//! Measures the serving layer's warm-cache latency against the cold compute path
//! and records the result in `BENCH_serve.json`.
//!
//! ```bash
//! cargo run --release -p qgdp-bench --bin bench_serve
//! ```
//!
//! One record per benched topology.  The request mix is all five legalization
//! strategies, each at both stop-after-legalization and detailed-placement depth
//! (ten requests per topology).  Before any timing, every served artifact is
//! asserted **bit-identical** to a direct [`Session`] run of the same request
//! (placement fingerprint and full [`LayoutReport`]) — the serving layer must be
//! invisible in the outputs, warm or cold.
//!
//! Timing is serial per-request latency through [`ServeEngine::execute`]:
//!
//! * **cold** — a fresh engine per repetition; each request pays its own stage
//!   compute (the first also pays the shared global placement);
//! * **warm** — the same engine again; every request is an `Arc`-shared cache
//!   hit.
//!
//! Latencies are pooled across repetitions into p50/p99 summaries.  The record's
//! `reference_ms` is the cold p50, `optimized_ms` the warm p50, and the binary
//! itself asserts warm p50 < cold p50 — the cache must actually pay for itself,
//! not just exist (`scripts/bench_gate` re-checks the committed records).
//!
//! Override the output path with `QGDP_BENCH_OUT`, the topology panel with
//! `QGDP_BENCH_TOPOLOGIES` (comma-separated names) and repetitions with
//! `QGDP_BENCH_REPS`.
//!
//! [`LayoutReport`]: qgdp::metrics::LayoutReport
//! [`ServeEngine::execute`]: qgdp_serve::ServeEngine::execute

use qgdp::prelude::*;
use qgdp::{placement_fingerprint, DetailedPlacerConfig};
use qgdp_bench::experiment_config;
use qgdp_bench::harness::{self, percentile};
use qgdp_serve::engine::{JobRequest, ServeEngine, DEFAULT_QUEUE_DEPTH};
use qgdp_serve::store::StoreConfig;
use std::sync::Arc;
use std::time::Instant;

/// One measured warm-vs-cold serving record.
struct Record {
    topology: String,
    requests: usize,
    cold_p50_ms: f64,
    cold_p99_ms: f64,
    warm_p50_ms: f64,
    warm_p99_ms: f64,
}

impl Record {
    fn speedup(&self) -> f64 {
        self.cold_p50_ms / self.warm_p50_ms
    }
}

/// A deliberately small detail config so the ten-request mix stays fast while
/// still exercising the detailed-placement cache stage.
fn small_detail() -> DetailedPlacerConfig {
    DetailedPlacerConfig {
        max_windows: 6,
        passes: 1,
        ..DetailedPlacerConfig::new()
    }
}

/// The request mix for one topology: every strategy at both flow depths.
fn request_mix(topology: &Arc<Topology>) -> Vec<JobRequest> {
    let mut requests = Vec::new();
    for strategy in LegalizationStrategy::all() {
        for detail in [None, Some(small_detail())] {
            requests.push(JobRequest {
                topology: Arc::clone(topology),
                config: experiment_config(),
                strategy,
                detail,
            });
        }
    }
    requests
}

/// Asserts the served artifact of every request is bit-identical to a direct
/// staged-session run of the same inputs, cold and warm alike.
fn verify_bit_identity(topology: StandardTopology, requests: &[JobRequest]) {
    let session = Session::new(&topology.build(), experiment_config())
        .unwrap_or_else(|e| panic!("{topology}: session builds: {e}"));
    let engine = ServeEngine::new(StoreConfig::default(), DEFAULT_QUEUE_DEPTH);
    for pass in ["cold", "warm"] {
        for request in requests {
            let served = engine
                .execute(request)
                .unwrap_or_else(|e| panic!("{topology}: served request failed: {e}"));
            let cell = session
                .global_place()
                .legalize(request.strategy)
                .unwrap_or_else(|e| panic!("{topology}: direct legalization failed: {e}"));
            let (direct_fp, direct_report) = match &request.detail {
                None => (
                    placement_fingerprint(cell.placement()),
                    cell.report().clone(),
                ),
                Some(cfg) => {
                    let dp = cell.detail_with(*cfg);
                    (placement_fingerprint(dp.placement()), dp.report().clone())
                }
            };
            assert_eq!(
                placement_fingerprint(served.final_placement()),
                direct_fp,
                "{topology}/{}/{pass}: served placement must be bit-identical to direct",
                request.strategy.name(),
            );
            assert_eq!(
                *served.report(),
                direct_report,
                "{topology}/{}/{pass}: served report must match direct",
                request.strategy.name(),
            );
        }
    }
}

fn bench_topology(topology: StandardTopology, reps: usize) -> Record {
    let topo = Arc::new(topology.build());
    let requests = request_mix(&topo);
    verify_bit_identity(topology, &requests);

    let mut cold = Vec::with_capacity(reps * requests.len());
    let mut warm = Vec::with_capacity(reps * requests.len());
    for _ in 0..reps.max(1) {
        // A fresh engine per rep so every cold request pays its own compute.
        let engine = ServeEngine::new(StoreConfig::default(), DEFAULT_QUEUE_DEPTH);
        for (pool, pass) in [(&mut cold, "cold"), (&mut warm, "warm")] {
            for request in &requests {
                let start = Instant::now();
                let served = engine.execute(request);
                let elapsed = start.elapsed().as_secs_f64() * 1e3;
                std::hint::black_box(
                    served.unwrap_or_else(|e| panic!("{topology}/{pass}: request failed: {e}")),
                );
                pool.push(elapsed);
            }
        }
    }

    let record = Record {
        topology: topology.name().to_string(),
        requests: requests.len(),
        cold_p50_ms: percentile(&cold, 0.50),
        cold_p99_ms: percentile(&cold, 0.99),
        warm_p50_ms: percentile(&warm, 0.50),
        warm_p99_ms: percentile(&warm, 0.99),
    };
    assert!(
        record.warm_p50_ms < record.cold_p50_ms,
        "{topology}: warm p50 ({:.4} ms) must beat cold p50 ({:.4} ms)",
        record.warm_p50_ms,
        record.cold_p50_ms,
    );
    record
}

fn main() {
    let reps = harness::reps(5);
    let topologies = harness::topologies(&harness::DEFAULT_PANEL);

    let records: Vec<Record> = topologies
        .iter()
        .map(|&t| bench_topology(t, reps))
        .collect();

    let mut rows = String::new();
    for r in &records {
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{ \"kind\": \"serve-warm-vs-cold\", \"topology\": \"{}\", \
             \"requests\": {}, \"cold_p50_ms\": {:.4}, \"cold_p99_ms\": {:.4}, \
             \"warm_p50_ms\": {:.4}, \"warm_p99_ms\": {:.4}, \
             \"optimized_ms\": {:.4}, \"reference_ms\": {:.4}, \
             \"speedup\": {:.2}, \"bit_identical\": true }}",
            r.topology,
            r.requests,
            r.cold_p50_ms,
            r.cold_p99_ms,
            r.warm_p50_ms,
            r.warm_p99_ms,
            r.warm_p50_ms,
            r.cold_p50_ms,
            r.speedup(),
        ));
    }
    let host_cpus = harness::host_cpus();
    let json = format!(
        "{{\n  \"benchmark\": \"serving layer: content-addressed artifact cache (warm \
         Arc-shared hits) vs the cold staged compute path, per-request latency\",\n  \
         \"reps\": {reps},\n  \"host_cpus\": {host_cpus},\n  \"records\": [\n{rows}\n  ]\n}}\n"
    );
    let out_path = harness::write_record("BENCH_serve.json", &json);
    for r in &records {
        println!(
            "{:>8} cold p50 {:>9.4}ms p99 {:>9.4}ms | warm p50 {:>8.4}ms p99 {:>8.4}ms ({:.0}x, bit-identical)",
            r.topology,
            r.cold_p50_ms,
            r.cold_p99_ms,
            r.warm_p50_ms,
            r.warm_p99_ms,
            r.speedup(),
        );
    }
    println!("recorded in {out_path}");
}
