//! Fault-isolation suite for the Session batch engine.
//!
//! A failing or panicking legalization strategy must poison **only its own
//! requests**: every sibling request still returns an artifact that is
//! bit-identical to what an all-success run produces, the result vector stays in
//! request order, and the per-request outcome vector is invariant under the
//! worker count.  The suite drives both the deterministic [`FaultInjection`]
//! knob and an *organic* config-reachable failure (an over-packed die on which
//! some strategies run out of legal space) through 1, 3 and 8 workers.

use qgdp::prelude::*;

/// The GP seed shared by every experiment (`qgdp_bench::EXPERIMENT_SEED`).
const EXPERIMENT_SEED: u64 = 20_250_331;

const WORKER_COUNTS: [usize; 3] = [1, 3, 8];

fn config() -> FlowConfig {
    FlowConfig::default().with_seed(EXPERIMENT_SEED)
}

/// A config on which legalization fails *organically* for some strategies but
/// not all: double-size qubit pads on a die sized for 90 % utilization leave
/// enough room for the quantum-aware legalizers but starve the classical ones.
fn overpacked_config() -> FlowConfig {
    let geometry = ComponentGeometry {
        qubit_width: 80.0,
        qubit_height: 80.0,
        ..ComponentGeometry::new()
    };
    FlowConfig::default()
        .with_seed(7)
        .with_geometry(geometry)
        .with_gp(GlobalPlacerConfig::default().with_utilization(0.9))
}

fn all_strategy_requests() -> Vec<FlowRequest> {
    LegalizationStrategy::all()
        .into_iter()
        .map(FlowRequest::legalize)
        .collect()
}

/// Asserts two errors describe the same failure.  `StageEvent` durations are
/// wall-clock and excluded: the invariant context is the source (via
/// `Display`), stage, strategy, request index and the *sequence* of completed
/// stages.
fn assert_same_failure(a: &FlowError, b: &FlowError, context: &str) {
    assert_eq!(a.to_string(), b.to_string(), "{context}");
    assert_eq!(a.stage(), b.stage(), "{context}");
    assert_eq!(a.strategy(), b.strategy(), "{context}");
    assert_eq!(a.request(), b.request(), "{context}");
    assert_eq!(
        a.events().iter().map(|e| e.stage).collect::<Vec<_>>(),
        b.events().iter().map(|e| e.stage).collect::<Vec<_>>(),
        "{context}"
    );
}

/// Installs, once per test binary, a panic hook that stays silent for the
/// panics [`FaultInjection`] raises on purpose (their message carries
/// "injected fault") and hands every other panic to the default hook, so no
/// test swaps the process-global hook while its siblings run.
fn quiet_injected_panics() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied());
            let injected = message.is_some_and(|m| m.contains("injected fault"));
            if !injected {
                default(info);
            }
        }));
    });
}

#[test]
fn injected_failure_leaves_siblings_bit_identical_for_every_worker_count() {
    let topo = StandardTopology::Grid.build();
    let fault = FaultInjection {
        fail_legalization: Some(LegalizationStrategy::QTetris),
        panic_in_legalization: None,
    };
    let poisoned = Session::new(&topo, config().with_fault_injection(fault)).expect("session");
    let clean = Session::new(&topo, config()).expect("session");
    let requests = all_strategy_requests();
    let baseline = clean
        .try_run_batch(&requests)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .expect("all strategies succeed without injection");

    for threads in WORKER_COUNTS {
        let results = poisoned.try_run_batch_with_threads(&requests, threads);
        assert_eq!(results.len(), requests.len(), "threads={threads}");
        for (index, (request, result)) in requests.iter().zip(&results).enumerate() {
            if request.strategy == LegalizationStrategy::QTetris {
                let error = result.as_ref().expect_err("poisoned strategy must fail");
                assert_eq!(error.stage(), Some(Stage::QubitLegalization));
                assert_eq!(error.strategy(), Some(LegalizationStrategy::QTetris));
                assert_eq!(error.request(), Some(index), "threads={threads}");
            } else {
                let artifact = result.as_ref().unwrap_or_else(|e| {
                    panic!(
                        "sibling {} lost at threads={threads}: {e}",
                        request.strategy
                    )
                });
                assert_eq!(
                    artifact.final_placement(),
                    baseline[index].final_placement(),
                    "{}/threads={threads}: sibling placement diverged from all-success run",
                    request.strategy
                );
                assert_eq!(
                    artifact.report(),
                    baseline[index].report(),
                    "{}/threads={threads}: sibling report diverged from all-success run",
                    request.strategy
                );
            }
        }
    }
}

#[test]
fn injected_panic_is_contained_for_every_worker_count() {
    let topo = StandardTopology::Grid.build();
    let fault = FaultInjection {
        fail_legalization: None,
        panic_in_legalization: Some(LegalizationStrategy::Abacus),
    };
    let poisoned = Session::new(&topo, config().with_fault_injection(fault)).expect("session");
    let requests = all_strategy_requests();
    quiet_injected_panics();

    for threads in WORKER_COUNTS {
        let results = poisoned.try_run_batch_with_threads(&requests, threads);
        for (index, (request, result)) in requests.iter().zip(&results).enumerate() {
            if request.strategy == LegalizationStrategy::Abacus {
                match result {
                    Err(FlowError::Worker {
                        stage,
                        message,
                        strategy,
                        request,
                    }) => {
                        assert_eq!(*stage, Stage::QubitLegalization, "threads={threads}");
                        assert!(message.contains("injected fault"), "message: {message}");
                        assert_eq!(*strategy, Some(LegalizationStrategy::Abacus));
                        assert_eq!(*request, Some(index), "threads={threads}");
                    }
                    other => panic!("expected a contained Worker error, got {other:?}"),
                }
            } else {
                assert!(
                    result.is_ok(),
                    "{}/threads={threads}: sibling lost to a contained panic: {result:?}",
                    request.strategy
                );
            }
        }
    }
}

#[test]
fn organic_failures_are_request_ordered_and_worker_count_invariant() {
    // No injection here: the over-packed die makes some strategies run out of
    // legal space on their own.  The suite does not hard-code *which* strategies
    // fail — only that failures carry full context and siblings stay intact.
    let topo = StandardTopology::Grid.build();
    let session = Session::new(&topo, overpacked_config()).expect("session");
    // Interleave duplicate requests so request indices and strategy identity
    // disagree — ordering bugs cannot hide.
    let mut requests = all_strategy_requests();
    requests.extend(all_strategy_requests());

    let serial = session.try_run_batch_with_threads(&requests, 1);
    assert_eq!(serial.len(), requests.len());
    let failures = serial.iter().filter(|r| r.is_err()).count();
    assert!(
        failures > 0 && failures < serial.len(),
        "the over-packed config must fail some strategies but not all \
         (got {failures}/{} failures)",
        serial.len()
    );

    for (index, (request, result)) in requests.iter().zip(&serial).enumerate() {
        match result {
            Ok(artifact) => assert_eq!(
                artifact.strategy(),
                request.strategy,
                "request {index}: artifact answers the wrong request"
            ),
            Err(error) => {
                assert_eq!(error.strategy(), Some(request.strategy), "request {index}");
                assert_eq!(error.request(), Some(index));
                assert!(error.stage().is_some(), "request {index}: stage missing");
                assert!(
                    !error.events().is_empty(),
                    "request {index}: the trace up to the failing stage is missing"
                );
            }
        }
    }

    for threads in &WORKER_COUNTS[1..] {
        let parallel = session.try_run_batch_with_threads(&requests, *threads);
        for (index, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            match (a, b) {
                (Ok(a), Ok(b)) => assert_eq!(
                    a.final_placement(),
                    b.final_placement(),
                    "request {index}: placement depends on threads={threads}"
                ),
                (Err(a), Err(b)) => assert_same_failure(
                    a,
                    b,
                    &format!("request {index}: error depends on threads={threads}"),
                ),
                other => panic!("request {index} outcome flipped at threads={threads}: {other:?}"),
            }
        }
    }
}

#[test]
fn organic_failure_siblings_match_their_solo_runs() {
    // Each surviving strategy's batched artifact must be bit-identical to the
    // same strategy run alone — failures elsewhere in the batch are invisible.
    let topo = StandardTopology::Grid.build();
    let session = Session::new(&topo, overpacked_config()).expect("session");
    let requests = all_strategy_requests();
    let batched = session.try_run_batch_with_threads(&requests, 3);

    for (request, result) in requests.iter().zip(&batched) {
        let solo = session.try_run_batch_with_threads(std::slice::from_ref(request), 1);
        match (&solo[0], result) {
            (Ok(solo), Ok(batched)) => {
                assert_eq!(
                    solo.final_placement(),
                    batched.final_placement(),
                    "{}: batched placement differs from the solo run",
                    request.strategy
                );
                assert_eq!(solo.report(), batched.report(), "{}", request.strategy);
            }
            (Err(solo), Err(batched)) => {
                // Context differs only in the request index.
                assert_eq!(solo.strategy(), batched.strategy(), "{}", request.strategy);
                assert_eq!(solo.stage(), batched.stage(), "{}", request.strategy);
            }
            other => panic!(
                "{}: outcome flipped between solo and batched runs: {other:?}",
                request.strategy
            ),
        }
    }
}

#[test]
fn try_matrix_isolates_faults_per_cell() {
    let topo = StandardTopology::Grid.build();
    let fault = FaultInjection {
        fail_legalization: Some(LegalizationStrategy::QAbacus),
        panic_in_legalization: None,
    };
    let session = Session::new(&topo, config().with_fault_injection(fault)).expect("session");
    let strategies = LegalizationStrategy::all();
    let details = [None, Some(DetailedPlacerConfig::new())];
    let results = session.try_run_matrix(&strategies, &details);
    assert_eq!(results.len(), strategies.len() * details.len());
    // Matrix cells are strategy-major: both cells of the poisoned strategy fail,
    // every other cell succeeds.
    for (cell, result) in results.iter().enumerate() {
        let strategy = strategies[cell / details.len()];
        if strategy == LegalizationStrategy::QAbacus {
            let error = result.as_ref().expect_err("poisoned cells must fail");
            assert_eq!(error.strategy(), Some(LegalizationStrategy::QAbacus));
            assert_eq!(error.request(), Some(cell));
        } else {
            assert!(result.is_ok(), "cell {cell} ({strategy}) was lost");
        }
    }
}
