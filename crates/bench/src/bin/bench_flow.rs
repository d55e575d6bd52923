//! Measures the staged [`Session`] batch path against one fresh session per
//! strategy and records the result in `BENCH_flow.json`.
//!
//! ```bash
//! cargo run --release -p qgdp-bench --bin bench_flow
//! ```
//!
//! For every benched topology the five-strategy matrix (Table II / Figs. 8–9 shape)
//! is produced two ways on identical inputs:
//!
//! * **independent** — five fresh [`Session::run`] calls, each paying its own
//!   netlist build, global placement, GP report and legalized report;
//! * **session** — one [`Session`] whose single [`GlobalPlacement`] artifact is
//!   fanned over the strategies by [`Session::try_run_matrix`] on the `QGDP_THREADS`
//!   worker pool, with the shared GP report computed once and per-strategy reports
//!   forced afterwards (so both legs deliver the same data).
//!
//! Before timing, the binary asserts the session artifacts are **bit-identical** to
//! the fresh per-strategy runs (placements and reports), and that the batch path is
//! bit-identical between 1 worker and a multi-worker pool.  A **fault-injection
//! scenario** then poisons one strategy of the five-strategy matrix via
//! [`FaultInjection`] and asserts the four surviving strategies still return
//! artifacts bit-identical to the all-success run, for 1 and 4 workers alike; the
//! outcome is recorded as a `"kind": "fault-injection"` record that
//! `scripts/bench_gate` requires.  Override the output path with `QGDP_BENCH_OUT`,
//! the topology panel with `QGDP_BENCH_TOPOLOGIES` (comma-separated names) and
//! repetitions with `QGDP_BENCH_REPS` (fastest rep is reported, criterion-style).

use qgdp::prelude::*;
use qgdp_bench::experiment_config;
use qgdp_bench::harness::{self, best_of, time_ms};
use std::time::Instant;

/// One measured topology row.
struct Record {
    topology: String,
    components: usize,
    strategies: usize,
    independent_ms: f64,
    session_ms: f64,
    gp_ms: f64,
}

impl Record {
    fn speedup(&self) -> f64 {
        self.independent_ms / self.session_ms
    }
}

/// Every request of a batch succeeds: the artifacts in request order.
fn all_ok(results: Vec<Result<FlowArtifact, FlowError>>, what: &str) -> Vec<FlowArtifact> {
    results
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| panic!("{what}: {e}"))
}

/// One strategy in a fresh session: its own netlist build and GP run.
fn independent_run(topo: &Topology, strategy: LegalizationStrategy) -> FlowArtifact {
    Session::new(topo, experiment_config())
        .and_then(|session| session.run(FlowRequest::legalize(strategy)))
        .unwrap_or_else(|e| panic!("{strategy} failed on {topo}: {e}"))
}

/// Asserts the batched artifacts equal fresh per-strategy runs bit for bit, and
/// that the batch fan-out is worker-count-invariant.
fn verify_bit_identity(topology: StandardTopology, strategies: &[LegalizationStrategy]) {
    let topo = topology.build();
    let session = Session::new(&topo, experiment_config()).expect("session builds");
    let requests: Vec<FlowRequest> = strategies
        .iter()
        .map(|&s| FlowRequest::legalize(s))
        .collect();
    let serial = all_ok(
        session.try_run_batch_with_threads(&requests, 1),
        "serial batch",
    );
    let parallel = all_ok(
        session.try_run_batch_with_threads(&requests, 4),
        "parallel batch",
    );
    for ((&strategy, a), b) in strategies.iter().zip(&serial).zip(&parallel) {
        assert_eq!(
            a.final_placement(),
            b.final_placement(),
            "{topology}/{strategy}: batch path must be worker-count invariant"
        );
        assert_eq!(
            a.report(),
            b.report(),
            "{topology}/{strategy}: batch reports must be worker-count invariant"
        );
        let fresh = independent_run(&topo, strategy);
        assert_eq!(
            a.legalized().global().placement(),
            fresh.legalized().global().placement(),
            "{topology}/{strategy}: shared GP must equal the per-flow GP"
        );
        assert_eq!(
            a.final_placement(),
            fresh.final_placement(),
            "{topology}/{strategy}: staged layout must equal a fresh session run"
        );
        assert_eq!(
            a.report(),
            fresh.report(),
            "{topology}/{strategy}: staged report must equal a fresh session run"
        );
    }
}

/// Poisons one strategy of the matrix via [`FaultInjection`] and asserts the
/// surviving strategies still return artifacts **bit-identical** to the
/// all-success run, for 1 and 4 workers alike.  Returns the JSON record row.
fn fault_injection_scenario(topology: StandardTopology) -> String {
    let poisoned_strategy = LegalizationStrategy::QTetris;
    let topo = topology.build();
    let strategies = LegalizationStrategy::all();
    let requests: Vec<FlowRequest> = strategies
        .iter()
        .map(|&s| FlowRequest::legalize(s))
        .collect();

    let clean = Session::new(&topo, experiment_config()).expect("session builds");
    let baseline = all_ok(
        clean.try_run_batch_with_threads(&requests, 1),
        "all-success batch",
    );

    let fault = FaultInjection {
        fail_legalization: Some(poisoned_strategy),
        panic_in_legalization: None,
    };
    let poisoned = Session::new(&topo, experiment_config().with_fault_injection(fault))
        .expect("session builds");
    let mut survivors = 0usize;
    for threads in [1, 4] {
        let results = poisoned.try_run_batch_with_threads(&requests, threads);
        assert_eq!(results.len(), requests.len());
        survivors = 0;
        for ((&strategy, result), clean_artifact) in strategies.iter().zip(&results).zip(&baseline)
        {
            if strategy == poisoned_strategy {
                let error = result
                    .as_ref()
                    .expect_err("the poisoned strategy must fail, not vanish");
                assert_eq!(
                    error.strategy(),
                    Some(poisoned_strategy),
                    "{topology}: fault attributed to the wrong strategy"
                );
                continue;
            }
            let artifact = result.as_ref().unwrap_or_else(|e| {
                panic!("{topology}/{strategy}: sibling lost to the injected fault: {e}")
            });
            assert_eq!(
                artifact.final_placement(),
                clean_artifact.final_placement(),
                "{topology}/{strategy}/threads={threads}: surviving placement must be \
                 bit-identical to the all-success run"
            );
            assert_eq!(
                artifact.report(),
                clean_artifact.report(),
                "{topology}/{strategy}/threads={threads}: surviving report must be \
                 bit-identical to the all-success run"
            );
            survivors += 1;
        }
    }
    assert_eq!(survivors, strategies.len() - 1);

    format!(
        "    {{ \"kind\": \"fault-injection\", \"topology\": \"{}\", \"strategies\": {}, \
         \"poisoned\": \"{poisoned_strategy}\", \"surviving\": {survivors}, \
         \"bit_identical\": true }}",
        topology.name(),
        strategies.len(),
    )
}

fn bench_topology(
    topology: StandardTopology,
    strategies: &[LegalizationStrategy],
    reps: usize,
) -> Record {
    let topo = topology.build();
    verify_bit_identity(topology, strategies);

    // Independent leg: one fresh session per strategy (netlist + GP + both
    // reports paid five times).
    let independent_ms = best_of(reps, || {
        time_ms(|| {
            for &strategy in strategies {
                let artifact = independent_run(&topo, strategy);
                std::hint::black_box(artifact.legalized().global().report());
                std::hint::black_box(artifact.report());
            }
        })
    });

    // Session leg: one netlist build, one GP, batched legalizations, shared GP
    // report computed once, per-strategy reports forced so both legs deliver the
    // same data to a Table II/III-style consumer.
    let session_ms = best_of(reps, || {
        let start = Instant::now();
        let session = Session::new(&topo, experiment_config()).expect("session builds");
        let artifacts = all_ok(session.try_run_matrix(strategies, &[None]), "matrix");
        for artifact in &artifacts {
            std::hint::black_box(artifact.report());
        }
        std::hint::black_box(artifacts[0].legalized().global().report());
        start.elapsed().as_secs_f64() * 1e3
    });

    // A fresh session per rep: the session-level GP cache would otherwise make
    // every rep after the first (and hence the best-of) a ~0 ms cache hit.
    let gp_ms = best_of(reps, || {
        let session = Session::new(&topo, experiment_config()).expect("session builds");
        time_ms(|| session.global_place())
    });

    let session = Session::new(&topo, experiment_config()).expect("session builds");

    Record {
        topology: topology.name().to_string(),
        components: session.netlist().num_components(),
        strategies: strategies.len(),
        independent_ms,
        session_ms,
        gp_ms,
    }
}

fn main() {
    let reps = harness::reps(5);
    let topologies = harness::topologies(&harness::DEFAULT_PANEL);
    let strategies = LegalizationStrategy::all();

    let records: Vec<Record> = topologies
        .iter()
        .map(|&t| bench_topology(t, &strategies, reps))
        .collect();

    let mut rows = String::new();
    for r in &records {
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        // `independent_run_flow_ms` keeps its name: scripts/bench_gate reads it.
        rows.push_str(&format!(
            "    {{ \"topology\": \"{}\", \"components\": {}, \"strategies\": {}, \
             \"independent_run_flow_ms\": {:.2}, \"session_matrix_ms\": {:.2}, \
             \"speedup\": {:.2}, \"gp_ms\": {:.2}, \"bit_identical\": true }}",
            r.topology,
            r.components,
            r.strategies,
            r.independent_ms,
            r.session_ms,
            r.speedup(),
            r.gp_ms,
        ));
    }
    // The fault-isolation contract rides in the same file: one poisoned strategy,
    // four bit-identical survivors (gated by scripts/bench_gate).
    let fault_row = fault_injection_scenario(topologies[0]);
    if !rows.is_empty() {
        rows.push_str(",\n");
    }
    rows.push_str(&fault_row);
    let host_cpus = harness::host_cpus();
    let threads = worker_threads();
    let json = format!(
        "{{\n  \"benchmark\": \"five-strategy matrix: staged Session batch (shared GP \
         warm start) vs one fresh Session::run per strategy\",\n  \"reps\": {reps},\n  \
         \"threads\": {threads},\n  \"host_cpus\": {host_cpus},\n  \"records\": [\n{rows}\n  ]\n}}\n"
    );
    let out_path = harness::write_record("BENCH_flow.json", &json);
    for r in &records {
        println!(
            "{:>8} ({} strategies): {:>8.2}ms -> {:>7.2}ms ({:.2}x, one {:.2}ms GP \
             instead of {}, bit-identical)",
            r.topology,
            r.strategies,
            r.independent_ms,
            r.session_ms,
            r.speedup(),
            r.gp_ms,
            r.strategies,
        );
    }
    println!(
        "fault-injection: 1 poisoned strategy of {}, siblings bit-identical (1 and 4 workers)",
        strategies.len()
    );
    println!("recorded in {out_path}");
}
