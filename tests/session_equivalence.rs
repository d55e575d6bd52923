//! Golden staged-equivalence suite.
//!
//! Every way of driving the staged flow must produce the same bits: stages
//! forked from one shared [`GlobalPlacement`] artifact must equal a fresh
//! [`Session::run`] per strategy (placements, reports, die), the batch surface
//! must equal serial staging on one worker or many, and artifact fidelities
//! must equal a from-scratch `qgdp_metrics::mean_fidelity` evaluation.

use qgdp::prelude::*;

/// The GP seed shared by every experiment (`qgdp_bench::EXPERIMENT_SEED`).
const EXPERIMENT_SEED: u64 = 20_250_331;

fn config() -> FlowConfig {
    FlowConfig::default().with_seed(EXPERIMENT_SEED)
}

#[test]
fn forked_stages_match_fresh_session_runs_bit_for_bit() {
    // One shared GP artifact per topology feeds all five strategies; every staged
    // output must equal five independent fresh-session flows bit for bit.
    for topology in [
        StandardTopology::Grid,
        StandardTopology::Falcon,
        StandardTopology::Eagle,
    ] {
        let topo = topology.build();
        let session = Session::new(&topo, config()).expect("session builds");
        let gp = session.global_place();
        for strategy in LegalizationStrategy::all() {
            let staged = gp
                .legalize(strategy)
                .unwrap_or_else(|e| panic!("{strategy} failed on {topology}: {e}"));
            let fresh = Session::new(&topo, config())
                .and_then(|fresh| fresh.run(FlowRequest::legalize(strategy)))
                .unwrap_or_else(|e| panic!("{strategy} failed on {topology}: {e}"));
            let fresh_gp = fresh.legalized().global();
            assert_eq!(
                gp.placement(),
                fresh_gp.placement(),
                "{topology}/{strategy}: GP positions diverged"
            );
            assert_eq!(
                staged.qubit_stage().placement(),
                fresh.legalized().qubit_stage().placement(),
                "{topology}/{strategy}: qubit-LG positions diverged"
            );
            assert_eq!(
                staged.placement(),
                fresh.final_placement(),
                "{topology}/{strategy}: legalized positions diverged"
            );
            assert_eq!(
                gp.report(),
                fresh_gp.report(),
                "{topology}/{strategy}: GP report diverged"
            );
            assert_eq!(
                staged.report(),
                fresh.report(),
                "{topology}/{strategy}: legalized report diverged"
            );
            assert_eq!(
                staged.die(),
                fresh.die(),
                "{topology}/{strategy}: die diverged"
            );
        }
    }
}

#[test]
fn staged_detailed_placement_matches_a_fresh_session_run() {
    for topology in [StandardTopology::Grid, StandardTopology::Aspen11] {
        let topo = topology.build();
        let staged = Session::new(&topo, config())
            .expect("session builds")
            .global_place()
            .legalize(LegalizationStrategy::Qgdp)
            .expect("legalization succeeds")
            .detail();
        let fresh = Session::new(&topo, config())
            .and_then(|fresh| {
                fresh.run(FlowRequest::detailed(
                    LegalizationStrategy::Qgdp,
                    config().detail,
                ))
            })
            .expect("fresh flow succeeds");
        let dp = fresh.detailed().expect("DP ran");
        assert_eq!(
            staged.placement(),
            dp.placement(),
            "{topology}: DP positions diverged"
        );
        assert_eq!(
            staged.report(),
            dp.report(),
            "{topology}: DP report diverged"
        );
        assert_eq!(
            staged.legalized().placement(),
            fresh.legalized().placement(),
            "{topology}: legalized positions diverged"
        );
    }
}

#[test]
fn one_forked_gp_equals_five_independent_flows() {
    // Fork-reuse: five legalizations off ONE GlobalPlacement artifact must equal
    // five fully independent sessions each running their own GP.
    let topo = StandardTopology::Grid.build();
    let shared_gp = Session::new(&topo, config())
        .expect("session builds")
        .global_place();
    for strategy in LegalizationStrategy::all() {
        let forked = shared_gp.legalize(strategy).expect("forked legalization");
        let independent = Session::new(&topo, config())
            .expect("session builds")
            .global_place()
            .legalize(strategy)
            .expect("independent legalization");
        assert_eq!(
            forked.placement(),
            independent.placement(),
            "{strategy}: forked and independent layouts diverged"
        );
        assert_eq!(
            forked.report(),
            independent.report(),
            "{strategy}: forked and independent reports diverged"
        );
    }
}

#[test]
fn batch_surface_is_bit_identical_to_serial_staging() {
    let topo = StandardTopology::Falcon.build();
    let session = Session::new(&topo, config()).expect("session builds");
    let requests: Vec<FlowRequest> = LegalizationStrategy::all()
        .into_iter()
        .flat_map(|s| {
            [
                FlowRequest::legalize(s),
                FlowRequest::detailed(s, DetailedPlacerConfig::new()),
            ]
        })
        .collect();

    // Serial reference: drive the stages by hand off one GP.
    let gp = session.global_place();
    let serial: Vec<(Placement, LayoutReport)> = requests
        .iter()
        .map(|req| {
            let cell = gp.legalize(req.strategy).expect("legalization succeeds");
            match req.detail {
                None => (cell.placement().clone(), cell.report().clone()),
                Some(cfg) => {
                    let dp = cell.detail_with(cfg);
                    (dp.placement().clone(), dp.report().clone())
                }
            }
        })
        .collect();

    for threads in [1, 3, 8] {
        let batched = session
            .try_run_batch_with_threads(&requests, threads)
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .expect("batch succeeds");
        assert_eq!(batched.len(), requests.len());
        for ((req, artifact), (placement, report)) in requests.iter().zip(&batched).zip(&serial) {
            assert_eq!(
                artifact.final_placement(),
                placement,
                "{}/detail={:?}/threads={threads}: batched placement diverged",
                req.strategy,
                req.detail.is_some()
            );
            assert_eq!(
                artifact.report(),
                report,
                "{}/detail={:?}/threads={threads}: batched report diverged",
                req.strategy,
                req.detail.is_some()
            );
        }
    }
}

#[test]
fn artifact_fidelity_matches_from_scratch_mean_fidelity_bits() {
    // The artifact evaluates fidelity off its cached layout scan; a from-scratch
    // `mean_fidelity` on a fresh session's layout must give the same bits.
    let topo = StandardTopology::Grid.build();
    let staged = Session::new(&topo, config())
        .expect("session builds")
        .global_place()
        .legalize(LegalizationStrategy::Qgdp)
        .expect("legalization succeeds");
    let fresh = Session::new(&topo, config())
        .and_then(|fresh| fresh.run(FlowRequest::legalize(LegalizationStrategy::Qgdp)))
        .expect("fresh flow succeeds");
    let noise = NoiseModel::default();
    for (benchmark, mappings, seed) in [(Benchmark::Bv4, 8, 7u64), (Benchmark::Qaoa4, 5, 99)] {
        let a = staged.mean_benchmark_fidelity(benchmark, mappings, &noise, seed);
        let maps = random_mappings(&benchmark.circuit(), &topo, mappings, seed);
        let b = mean_fidelity(
            fresh.netlist(),
            fresh.final_placement(),
            &maps,
            &noise,
            &config().crosstalk,
        );
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{benchmark:?}: staged {a:.17} vs from-scratch {b:.17}"
        );
    }
}

#[test]
fn matrix_artifacts_share_one_gp_and_netlist_allocation() {
    // The redesign's point: the strategy matrix shares earlier stages instead of
    // recomputing them.  Assert the sharing structurally (same allocations), not
    // just value equality.
    let topo = StandardTopology::Grid.build();
    let session = Session::new(&topo, config()).expect("session builds");
    let artifacts = session
        .try_run_matrix(&LegalizationStrategy::all(), &[None])
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .expect("matrix succeeds");
    let first = artifacts[0].legalized().global();
    for artifact in &artifacts[1..] {
        assert!(
            std::ptr::eq(artifact.legalized().global().placement(), first.placement()),
            "matrix artifacts must share the GP placement allocation"
        );
        assert!(
            std::ptr::eq(artifact.netlist(), session.netlist()),
            "matrix artifacts must share the session netlist allocation"
        );
    }
}
