//! The staged [`Session`] API: build once, fork stage artifacts, batch strategy
//! matrices.
//!
//! A `Session` owns everything that is constant across a device's placement runs —
//! the [`Topology`], the [`QuantumNetlist`] built from it, and the [`FlowConfig`] —
//! behind one [`Arc`], so every artifact derived from it is a cheap handle.
//! [`Session::run`] drives one [`FlowRequest`] (a strategy plus an optional
//! detailed-placer configuration) through every stage it asks for.
//!
//! ```
//! use qgdp::prelude::*;
//!
//! let topology = StandardTopology::Grid.build();
//! let session = Session::new(&topology, FlowConfig::default().with_seed(7))?;
//! let gp = session.global_place();                    // one GP…
//! let qgdp = gp.legalize(LegalizationStrategy::Qgdp)?; // …feeds any number of
//! let tetris = gp.legalize(LegalizationStrategy::Tetris)?; // legalizations
//! assert!(qgdp.is_legal() && tetris.is_legal());
//! # Ok::<(), qgdp::FlowError>(())
//! ```
//!
//! # Batching
//!
//! [`Session::try_run_batch`] / [`Session::try_run_matrix`] fan a `(strategy ×
//! detail config)` request set over the `QGDP_THREADS` worker pool
//! ([`qgdp_metrics::parallel`]): the GP runs once, each distinct strategy is
//! legalized once, each distinct `(strategy, detail)` pair is detailed once, and
//! the forks run concurrently.  Results come back **one `Result` per request, in
//! request order**, and are bit-identical for every worker count (each stage is a
//! deterministic function of its inputs and the collection points are
//! index-ordered).
//!
//! The `try_` surface is **fault-isolated**: a request whose legalization fails —
//! or whose worker outright panics — poisons only its own slot
//! ([`qgdp_metrics::parallel_try_map`] contains the unwind per item), and every
//! sibling request still returns its artifact, bit-identical to an all-success
//! run of those siblings.  Errors carry the failing [`Stage`], strategy, request
//! index and the [`StageEvent`](crate::StageEvent) trace of the stages that
//! completed ([`FlowError::Legalize`] / [`FlowError::Worker`]).  A caller that
//! wants all or nothing collects the outcomes:
//! `session.try_run_batch(&requests).into_iter().collect::<Result<Vec<_>, _>>()`
//! returns every artifact or the error of the first failing request.

use crate::artifact::{CellLegalized, Detailed, FlowArtifact, GlobalPlacement, GpData, Stage};
use crate::pipeline::FlowConfig;
use crate::{DetailedPlacerConfig, FlowError, LegalizationStrategy};
use qgdp_geometry::Rect;
use qgdp_metrics::{parallel_try_map, worker_threads, ReportDelta};
use qgdp_netlist::{ComponentId, Placement, QuantumNetlist, SegmentId};
use qgdp_placer::GpStats;
use qgdp_topology::Topology;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// The shared, immutable context of one placement session.
#[derive(Debug)]
pub(crate) struct SessionContext {
    pub(crate) topology: Arc<Topology>,
    pub(crate) netlist: Arc<QuantumNetlist>,
    pub(crate) config: FlowConfig,
    /// One-shot cache of the global-placement run: the GP is a deterministic
    /// function of the (immutable) context, so every `global_place()` call after
    /// the first returns a handle to the same cached result.  Holds the
    /// context-free [`GpData`] rather than a [`GlobalPlacement`] (which owns an
    /// `Arc<SessionContext>`) to avoid an `Arc` reference cycle.
    pub(crate) gp_cache: OnceLock<GpData>,
}

/// One flow request: a legalization strategy plus an optional
/// detailed-placement configuration — the input of [`Session::run`] and, many
/// at once, of [`Session::try_run_batch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowRequest {
    /// The legalization strategy to run.
    pub strategy: LegalizationStrategy,
    /// Detailed-placement configuration; `None` stops after legalization.
    pub detail: Option<DetailedPlacerConfig>,
}

impl FlowRequest {
    /// A request that stops after legalization.
    #[must_use]
    pub fn legalize(strategy: LegalizationStrategy) -> Self {
        FlowRequest {
            strategy,
            detail: None,
        }
    }

    /// A request that runs detailed placement with `detail` after legalization.
    #[must_use]
    pub fn detailed(strategy: LegalizationStrategy, detail: DetailedPlacerConfig) -> Self {
        FlowRequest {
            strategy,
            detail: Some(detail),
        }
    }
}

/// A staged placement session over one device topology (see the [module-level
/// docs](self)).
///
/// Cloning a `Session` is cheap (one `Arc` bump) and every clone shares the same
/// topology, netlist and config.
#[derive(Debug, Clone)]
pub struct Session {
    ctx: Arc<SessionContext>,
}

impl Session {
    /// Builds a session for `topology`: the netlist is constructed once here and
    /// shared by every artifact the session produces.
    ///
    /// The topology is cloned once into shared ownership; use [`Session::over`] to
    /// avoid even that copy when you already hold an `Arc<Topology>`.
    ///
    /// # Errors
    ///
    /// Returns a [`FlowError`] when the netlist cannot be built from the topology.
    pub fn new(topology: &Topology, config: FlowConfig) -> Result<Self, FlowError> {
        Session::over(Arc::new(topology.clone()), config)
    }

    /// Builds a session over an already-shared topology (no clone).
    ///
    /// # Errors
    ///
    /// Returns a [`FlowError`] when the netlist cannot be built from the topology.
    pub fn over(topology: Arc<Topology>, config: FlowConfig) -> Result<Self, FlowError> {
        let netlist = Arc::new(topology.to_netlist(config.geometry, config.net_model)?);
        Ok(Session {
            ctx: Arc::new(SessionContext {
                topology,
                netlist,
                config,
                gp_cache: OnceLock::new(),
            }),
        })
    }

    /// The device topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.ctx.topology
    }

    /// The netlist every stage of this session places.
    #[must_use]
    pub fn netlist(&self) -> &QuantumNetlist {
        &self.ctx.netlist
    }

    /// The flow configuration.
    #[must_use]
    pub fn config(&self) -> &FlowConfig {
        &self.ctx.config
    }

    /// Runs global placement and returns the artifact every later stage forks from.
    ///
    /// The placer is a deterministic function of the session's (immutable) context,
    /// so the run is cached on the session: the first call pays for the GP, and
    /// every later call — including the ones inside [`Session::run`] and
    /// [`Session::try_run_batch`] — returns a cheap handle to the same shared result,
    /// bit-identical by construction.
    #[must_use]
    pub fn global_place(&self) -> GlobalPlacement {
        GlobalPlacement::compute(Arc::clone(&self.ctx))
    }

    /// Returns the global-placement artifact **only if** the session's GP cache
    /// is already populated (by [`Session::global_place`], a batch run, or
    /// [`Session::restore_global`]) — never triggers a placer run.  The serving
    /// layer's snapshot export uses this to persist exactly what was computed.
    #[must_use]
    pub fn cached_global(&self) -> Option<GlobalPlacement> {
        self.ctx.gp_cache.get().map(|_| self.global_place())
    }

    /// Seeds the session's global-placement cache with a previously-computed
    /// result instead of running the placer — the snapshot-restore path of the
    /// serving layer — and returns the artifact handle.
    ///
    /// The inputs **must** be the bit-exact outputs of a GP run of an identical
    /// session (same topology, same [`FlowConfig`] stage prefix); the content
    /// identity of [`crate::ArtifactKey`] is what guarantees this at the call
    /// sites.  When the cache is already populated the provided data is ignored
    /// and the live handle is returned, so racing a restore against a live run is
    /// harmless.
    #[must_use]
    pub fn restore_global(
        &self,
        die: Rect,
        placement: Placement,
        stats: GpStats,
        elapsed: Duration,
    ) -> GlobalPlacement {
        self.ctx
            .gp_cache
            .get_or_init(|| GpData::restored(die, placement, stats, elapsed));
        self.global_place()
    }

    /// Runs one flow: global placement (cached on the session), both
    /// legalization stages of `request.strategy`, then detailed placement when
    /// `request.detail` is set.
    ///
    /// # Errors
    ///
    /// Returns a [`FlowError`] when a legalization stage fails.
    pub fn run(&self, request: FlowRequest) -> Result<FlowArtifact, FlowError> {
        let legalized = self.global_place().legalize(request.strategy)?;
        Ok(match request.detail {
            None => FlowArtifact::Legalized(legalized),
            Some(config) => FlowArtifact::Detailed(legalized.detail_with(config)),
        })
    }

    /// Fault-isolated batching: runs `requests` as one batch off a single shared
    /// global placement, fanned over the `QGDP_THREADS` worker pool, and returns
    /// **one `Result` per request, in request order**.  See
    /// [`Session::try_run_batch_with_threads`].
    #[must_use]
    pub fn try_run_batch(&self, requests: &[FlowRequest]) -> Vec<Result<FlowArtifact, FlowError>> {
        self.try_run_batch_with_threads(requests, worker_threads())
    }

    /// [`Session::try_run_batch`] with an explicit worker count.
    ///
    /// One GP run feeds the whole batch; each *distinct* strategy in `requests` is
    /// legalized exactly once (concurrently), then each *distinct* `(strategy,
    /// detail)` pair is detailed exactly once off the shared legalized artifacts
    /// (concurrently) — duplicate requests share the resulting artifact handles.
    ///
    /// The batch is **fault-isolated**: a failing legalization poisons only the
    /// requests of that strategy, a panicking worker is contained to its own
    /// request ([`qgdp_metrics::parallel_try_map`] catches the unwind per item and
    /// surfaces it as [`FlowError::Worker`]), and every sibling request returns its
    /// artifact bit-identically to an all-success run of those siblings.  Each
    /// per-request error is tagged with its request index, failing stage and
    /// strategy.  The outcome vector — successes *and* errors — is identical for
    /// every `threads` value.
    #[must_use]
    pub fn try_run_batch_with_threads(
        &self,
        requests: &[FlowRequest],
        threads: usize,
    ) -> Vec<Result<FlowArtifact, FlowError>> {
        let gp = self.global_place();
        try_batch_from_gp(&gp, requests, threads)
    }

    /// Runs the `strategies × details` cross product as one batch
    /// (strategy-major request order) off a single shared global placement — the
    /// Table II/III strategy matrix in one call — and returns one `Result` per
    /// cell, in request order: a partial matrix survives a poisoned strategy
    /// column.
    ///
    /// Each entry of `details` is `None` to stop after legalization or
    /// `Some(config)` to run detailed placement with that configuration.
    #[must_use]
    pub fn try_run_matrix(
        &self,
        strategies: &[LegalizationStrategy],
        details: &[Option<DetailedPlacerConfig>],
    ) -> Vec<Result<FlowArtifact, FlowError>> {
        self.try_run_batch(&matrix_requests(strategies, details))
    }
}

/// Expands a `strategies × details` cross product into strategy-major requests.
fn matrix_requests(
    strategies: &[LegalizationStrategy],
    details: &[Option<DetailedPlacerConfig>],
) -> Vec<FlowRequest> {
    strategies
        .iter()
        .flat_map(|&strategy| {
            details
                .iter()
                .map(move |&detail| FlowRequest { strategy, detail })
        })
        .collect()
}

/// Distinct strategies of `requests` in first-appearance order (≤ 5 entries; linear
/// scan keeps the order deterministic without a hash map).
fn distinct_strategies(requests: &[FlowRequest]) -> Vec<LegalizationStrategy> {
    let mut strategies: Vec<LegalizationStrategy> = Vec::new();
    for request in requests {
        if !strategies.contains(&request.strategy) {
            strategies.push(request.strategy);
        }
    }
    strategies
}

/// Stage codes for the per-job panic-attribution marker: a legalization worker
/// advances its marker as it crosses the stage boundary, so a contained panic can
/// still be attributed to the stage it unwound from.
const MARK_QUBIT_LG: u8 = 0;
const MARK_RESONATOR_LG: u8 = 1;

fn marker_stage(code: u8) -> Stage {
    if code == MARK_RESONATOR_LG {
        Stage::ResonatorLegalization
    } else {
        Stage::QubitLegalization
    }
}

/// The fault-isolated batch engine: legalize each distinct strategy once, then
/// fork each distinct `(strategy, detail)` pair, both levels on up to `threads`
/// workers with per-item panic containment, and assemble one `Result` per request
/// in request order.
fn try_batch_from_gp(
    gp: &GlobalPlacement,
    requests: &[FlowRequest],
    threads: usize,
) -> Vec<Result<FlowArtifact, FlowError>> {
    // Level 1: one legalization per distinct strategy.  Each job carries a stage
    // marker its worker advances at the qubit→resonator boundary; the marker is
    // only read back when the worker's unwind was contained.
    let jobs: Vec<(LegalizationStrategy, AtomicU8)> = distinct_strategies(requests)
        .into_iter()
        .map(|s| (s, AtomicU8::new(MARK_QUBIT_LG)))
        .collect();
    let legalized = parallel_try_map(&jobs, threads, |(strategy, marker)| {
        let qubits = gp.legalize_qubits(*strategy)?;
        marker.store(MARK_RESONATOR_LG, Ordering::Relaxed);
        qubits.legalize_cells()
    });
    let by_strategy: Vec<(LegalizationStrategy, Result<CellLegalized, FlowError>)> = jobs
        .iter()
        .zip(legalized)
        .map(|((strategy, marker), outcome)| {
            let outcome = outcome.unwrap_or_else(|message| {
                Err(FlowError::Worker {
                    stage: marker_stage(marker.load(Ordering::Relaxed)),
                    message,
                    strategy: Some(*strategy),
                    request: None,
                })
            });
            (*strategy, outcome)
        })
        .collect();
    let lookup = |strategy: LegalizationStrategy| -> &Result<CellLegalized, FlowError> {
        &by_strategy
            .iter()
            .find(|(s, _)| *s == strategy)
            .expect("every request strategy was legalized")
            .1
    };

    // Level 2: one detailed placement per distinct `(strategy, detail)` pair of a
    // successfully legalized strategy — duplicate requests share the artifact
    // handle, like duplicate strategies share one legalization above.  A batch
    // with no detail requests fans out nothing here.
    let mut detail_jobs: Vec<(LegalizationStrategy, DetailedPlacerConfig)> = Vec::new();
    for request in requests {
        if let Some(config) = request.detail {
            let job = (request.strategy, config);
            if lookup(request.strategy).is_ok() && !detail_jobs.contains(&job) {
                detail_jobs.push(job);
            }
        }
    }
    // Scoring bases: one incremental ReportDelta per strategy that is detailed
    // more than once, built off the legalized layout.  Each of that strategy's DP
    // workers clones the base, replays its artifact's component moves and primes
    // the artifact's scan cache with the delta-assembled scan — bit-identical to a
    // from-scratch `LayoutScan` by the `ReportDelta` contract — so sibling detail
    // configs share one full layout walk instead of paying one each when their
    // reports are read.  Single-job strategies keep the lazy from-scratch path
    // (an incremental base would cost a full walk anyway).
    let delta_bases: Vec<(LegalizationStrategy, ReportDelta<'_>)> = distinct_strategies(requests)
        .into_iter()
        .filter(|&s| detail_jobs.iter().filter(|(js, _)| *js == s).count() >= 2)
        .filter_map(|s| {
            lookup(s).as_ref().ok().map(|cell| {
                let base = ReportDelta::new(gp.netlist(), cell.placement(), &gp.config().crosstalk);
                (s, base)
            })
        })
        .collect();
    let detailed: Vec<Result<Detailed, FlowError>> =
        parallel_try_map(&detail_jobs, threads, |&(strategy, config)| {
            let cell = lookup(strategy)
                .as_ref()
                .expect("only successfully legalized strategies are detailed");
            let dp = cell.detail_with(config);
            if let Some((_, base)) = delta_bases.iter().find(|(s, _)| *s == strategy) {
                let mut delta = base.clone();
                let before = cell.placement();
                let after = dp.placement();
                for s in 0..after.num_segments() {
                    let id = SegmentId(s);
                    if before.segment(id) != after.segment(id) {
                        delta.apply_move(ComponentId::Segment(id), after.segment(id));
                    }
                }
                dp.prime_scan(Arc::new(delta.to_scan()));
            }
            dp
        })
        .into_iter()
        .zip(&detail_jobs)
        .map(|(outcome, &(strategy, _))| {
            outcome.map_err(|message| FlowError::Worker {
                stage: Stage::DetailedPlacement,
                message,
                strategy: Some(strategy),
                request: None,
            })
        })
        .collect();
    let lookup_detail = |strategy: LegalizationStrategy,
                         config: DetailedPlacerConfig|
     -> &Result<Detailed, FlowError> {
        detail_jobs
            .iter()
            .zip(&detailed)
            .find(|((s, c), _)| *s == strategy && *c == config)
            .expect("every detail request pair was processed")
            .1
    };

    // Assembly: request order, errors tagged with the request index they poison.
    requests
        .iter()
        .enumerate()
        .map(|(index, request)| match lookup(request.strategy) {
            Err(error) => Err(error.clone().with_request(index)),
            Ok(cell) => match request.detail {
                None => Ok(FlowArtifact::Legalized(cell.clone())),
                Some(config) => match lookup_detail(request.strategy, config) {
                    Ok(dp) => Ok(FlowArtifact::Detailed(dp.clone())),
                    Err(error) => Err(error.clone().with_request(index)),
                },
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgdp_circuits::Benchmark;
    use qgdp_metrics::NoiseModel;
    use qgdp_topology::StandardTopology;

    fn session() -> Session {
        let topo = StandardTopology::Grid.build();
        Session::new(&topo, FlowConfig::default().with_seed(11)).expect("session builds")
    }

    #[test]
    fn session_builds_the_netlist_once_and_shares_it() {
        let s = session();
        let gp1 = s.global_place();
        let gp2 = s.global_place();
        assert!(std::ptr::eq(s.netlist(), gp1.netlist()));
        assert_eq!(gp1.placement(), gp2.placement(), "GP is seed-deterministic");
        assert_eq!(s.topology().num_qubits(), 25);
        assert_eq!(s.config().gp.seed, 11);
    }

    #[test]
    fn global_place_is_cached_on_the_session() {
        let s = session();
        let gp1 = s.global_place();
        let gp2 = s.global_place();
        // Not merely equal: the same allocation — the second call hit the cache.
        assert!(std::ptr::eq(gp1.placement(), gp2.placement()));
        assert_eq!(gp1.elapsed(), gp2.elapsed(), "cached run, cached timing");
        // Session clones share the cache too (one Arc'd context).
        let clone = s.clone();
        assert!(std::ptr::eq(
            clone.global_place().placement(),
            gp1.placement()
        ));
        // The lazy GP report is shared through the cache as well.
        let report = gp1.report().clone();
        assert!(std::ptr::eq(s.global_place().report(), gp1.report()));
        assert_eq!(gp2.report(), &report);
    }

    /// Every request succeeds: the artifacts in request order.
    fn all_ok(results: Vec<Result<FlowArtifact, FlowError>>) -> Vec<FlowArtifact> {
        results
            .into_iter()
            .collect::<Result<_, _>>()
            .expect("every request succeeds")
    }

    #[test]
    fn run_follows_the_request_detail() {
        let topo = StandardTopology::Grid.build();
        let s = Session::new(&topo, FlowConfig::default().with_seed(5)).unwrap();
        let lg_only = s
            .run(FlowRequest::legalize(LegalizationStrategy::Qgdp))
            .unwrap();
        assert!(lg_only.detailed().is_none());
        let with_dp = s
            .run(FlowRequest::detailed(
                LegalizationStrategy::Qgdp,
                DetailedPlacerConfig::new(),
            ))
            .unwrap();
        assert!(with_dp.detailed().is_some());
        assert!(with_dp.is_legal());
    }

    #[test]
    fn flow_runs_for_qgdp_on_grid() {
        let topo = StandardTopology::Grid.build();
        let s = Session::new(&topo, FlowConfig::default().with_seed(3)).unwrap();
        let result = s
            .run(FlowRequest::legalize(LegalizationStrategy::Qgdp))
            .unwrap();
        assert!(result.is_legal());
        assert_eq!(result.strategy(), LegalizationStrategy::Qgdp);
        assert!(result.legalized().qubit_stage().elapsed() > Duration::ZERO);
        assert!(result.legalized().elapsed() > Duration::ZERO);
        assert!(result.detailed().is_none());
        assert!(result.report().total_clusters >= result.netlist().num_resonators());
    }

    #[test]
    fn detailed_flow_never_regresses() {
        let topo = StandardTopology::Grid.build();
        let s = Session::new(&topo, FlowConfig::default().with_seed(5)).unwrap();
        let result = s
            .run(FlowRequest::detailed(
                LegalizationStrategy::Qgdp,
                DetailedPlacerConfig::new(),
            ))
            .unwrap();
        assert!(result.is_legal());
        let dp = result.detailed().expect("DP ran").report();
        let lg = result.legalized().report();
        assert!(dp.total_clusters <= lg.total_clusters);
        assert!(dp.hotspot_proportion_percent <= lg.hotspot_proportion_percent + 1e-9);
        assert_eq!(
            result.events().last().map(|e| e.stage),
            Some(Stage::DetailedPlacement)
        );
    }

    #[test]
    fn all_strategies_produce_legal_layouts_on_falcon() {
        let topo = StandardTopology::Falcon.build();
        let s = Session::new(&topo, FlowConfig::default().with_seed(11)).unwrap();
        for strategy in LegalizationStrategy::all() {
            let result = s.run(FlowRequest::legalize(strategy)).unwrap();
            assert!(result.is_legal(), "{strategy} produced an illegal layout");
        }
    }

    #[test]
    fn qgdp_produces_fewer_clusters_than_classical_baselines() {
        let topo = StandardTopology::Grid.build();
        let s = Session::new(&topo, FlowConfig::default().with_seed(17)).unwrap();
        let qgdp = s
            .run(FlowRequest::legalize(LegalizationStrategy::Qgdp))
            .unwrap();
        let tetris = s
            .run(FlowRequest::legalize(LegalizationStrategy::Tetris))
            .unwrap();
        assert!(
            qgdp.report().total_clusters <= tetris.report().total_clusters,
            "qGDP {} clusters vs Tetris {}",
            qgdp.report().total_clusters,
            tetris.report().total_clusters
        );
    }

    #[test]
    fn fidelity_evaluation_runs() {
        let topo = StandardTopology::Grid.build();
        let s = Session::new(&topo, FlowConfig::default().with_seed(23)).unwrap();
        let result = s
            .run(FlowRequest::legalize(LegalizationStrategy::Qgdp))
            .unwrap();
        let f = result.mean_benchmark_fidelity(Benchmark::Bv4, 3, &NoiseModel::default(), 1);
        assert!(f > 0.0 && f <= 1.0);
    }

    #[test]
    fn batch_results_come_back_in_request_order() {
        let s = session();
        let requests = [
            FlowRequest::legalize(LegalizationStrategy::Tetris),
            FlowRequest::detailed(LegalizationStrategy::Qgdp, DetailedPlacerConfig::new()),
            FlowRequest::legalize(LegalizationStrategy::Qgdp),
        ];
        let artifacts = all_ok(s.try_run_batch_with_threads(&requests, 2));
        assert_eq!(artifacts.len(), 3);
        assert_eq!(artifacts[0].strategy(), LegalizationStrategy::Tetris);
        assert_eq!(artifacts[1].strategy(), LegalizationStrategy::Qgdp);
        assert!(artifacts[1].detailed().is_some());
        assert!(artifacts[2].detailed().is_none());
        // Duplicate-strategy requests share one legalization (same allocation).
        assert!(std::ptr::eq(
            artifacts[1].legalized().placement(),
            artifacts[2].legalized().placement()
        ));
    }

    #[test]
    fn batch_is_bit_identical_for_every_worker_count() {
        let s = session();
        let requests: Vec<FlowRequest> = LegalizationStrategy::all()
            .into_iter()
            .map(FlowRequest::legalize)
            .collect();
        let serial = all_ok(s.try_run_batch_with_threads(&requests, 1));
        for threads in [2, 4, 16] {
            let parallel = all_ok(s.try_run_batch_with_threads(&requests, threads));
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(
                    a.final_placement(),
                    b.final_placement(),
                    "threads={threads}"
                );
                assert_eq!(a.report(), b.report(), "threads={threads}");
            }
        }
    }

    #[test]
    fn try_run_matrix_is_the_strategy_major_cross_product() {
        let s = session();
        let strategies = [LegalizationStrategy::Qgdp, LegalizationStrategy::Tetris];
        let details = [None, Some(DetailedPlacerConfig::new())];
        let artifacts = all_ok(s.try_run_matrix(&strategies, &details));
        assert_eq!(artifacts.len(), 4);
        assert_eq!(artifacts[0].strategy(), LegalizationStrategy::Qgdp);
        assert!(artifacts[0].detailed().is_none());
        assert!(artifacts[1].detailed().is_some());
        assert_eq!(artifacts[2].strategy(), LegalizationStrategy::Tetris);
        assert!(artifacts[3].detailed().is_some());
    }

    #[test]
    fn empty_batch_is_an_empty_vec() {
        assert!(session().try_run_batch(&[]).is_empty());
        assert!(session().try_run_matrix(&[], &[None]).is_empty());
    }

    #[test]
    fn duplicate_requests_share_one_detailed_placement_run() {
        let s = session();
        let config = DetailedPlacerConfig::new();
        let requests = [
            FlowRequest::detailed(LegalizationStrategy::Qgdp, config),
            FlowRequest::legalize(LegalizationStrategy::Qgdp),
            FlowRequest::detailed(LegalizationStrategy::Qgdp, config),
        ];
        let artifacts = all_ok(s.try_run_batch_with_threads(&requests, 2));
        // Identical (strategy, detail) requests share the artifact handle — the
        // same allocation, not merely equal values.
        assert!(std::ptr::eq(
            artifacts[0].final_placement(),
            artifacts[2].final_placement()
        ));
        // The legalization level shares as before.
        assert!(std::ptr::eq(
            artifacts[0].legalized().placement(),
            artifacts[1].legalized().placement()
        ));
    }

    #[test]
    fn delta_scored_matrix_reports_are_bit_identical_to_evaluate() {
        // Two detail configs per strategy trigger the shared ReportDelta scoring
        // base; the primed reports must be bit-identical to both a from-scratch
        // evaluate and the serially-staged artifact path.
        let s = session();
        let strategies = [LegalizationStrategy::Qgdp, LegalizationStrategy::Tetris];
        let details = [
            Some(DetailedPlacerConfig::new()),
            Some(DetailedPlacerConfig::new().with_fidelity_guided(true)),
        ];
        let artifacts = all_ok(s.try_run_matrix(&strategies, &details));
        assert_eq!(artifacts.len(), 4);
        for (index, artifact) in artifacts.iter().enumerate() {
            let dp = artifact.detailed().expect("every request ran DP");
            let fresh = qgdp_metrics::LayoutReport::evaluate(
                dp.netlist(),
                dp.placement(),
                &s.config().crosstalk,
            );
            assert_eq!(dp.report(), &fresh, "request {index}");
            assert_eq!(
                dp.report().hotspot_proportion_percent.to_bits(),
                fresh.hotspot_proportion_percent.to_bits(),
                "request {index}"
            );
            // The serially-staged path (no delta engine) agrees bit for bit.
            let config = details[index % details.len()].unwrap();
            let serial = s
                .global_place()
                .legalize(dp.strategy())
                .unwrap()
                .detail_with(config);
            assert_eq!(dp.placement(), serial.placement(), "request {index}");
            assert_eq!(dp.report(), serial.report(), "request {index}");
        }
    }

    #[test]
    fn restored_artifacts_are_bit_identical_to_live_runs() {
        let topo = StandardTopology::Grid.build();
        let cfg = FlowConfig::default().with_seed(11);
        let live = Session::new(&topo, cfg).unwrap();
        let gp = live.global_place();
        let cell = gp.legalize(LegalizationStrategy::Qgdp).unwrap();
        let dp = cell.detail();

        let fresh = Session::new(&topo, cfg).unwrap();
        let rgp = fresh.restore_global(gp.die(), gp.placement().clone(), gp.stats(), gp.elapsed());
        assert_eq!(rgp.placement(), gp.placement());
        assert_eq!(rgp.elapsed(), gp.elapsed());
        // The restore seeded the session cache: global_place() now returns the
        // restored allocation instead of running the placer.
        assert!(std::ptr::eq(
            fresh.global_place().placement(),
            rgp.placement()
        ));
        // A restore into an already-placed session is ignored.
        let ignored = live.restore_global(
            gp.die(),
            Placement::new(live.netlist()),
            gp.stats(),
            Duration::ZERO,
        );
        assert!(std::ptr::eq(ignored.placement(), gp.placement()));

        let rcell = rgp.restore_legalized(
            LegalizationStrategy::Qgdp,
            cell.qubit_stage().placement().clone(),
            cell.qubit_stage().elapsed(),
            cell.placement().clone(),
            cell.elapsed(),
        );
        assert_eq!(rcell.strategy(), LegalizationStrategy::Qgdp);
        assert_eq!(rcell.placement(), cell.placement());
        assert_eq!(rcell.report(), cell.report());
        assert!(rcell.is_legal());

        let rdp = rcell.restore_detailed(
            dp.placement().clone(),
            dp.windows_processed(),
            dp.windows_accepted(),
            dp.elapsed(),
        );
        assert_eq!(rdp.placement(), dp.placement());
        assert_eq!(rdp.report(), dp.report());
        assert_eq!(rdp.windows_accepted(), dp.windows_accepted());
        assert_eq!(rdp.events(), dp.events());
    }

    #[test]
    fn injected_failure_poisons_only_its_own_requests() {
        let topo = StandardTopology::Grid.build();
        let fault = crate::FaultInjection {
            fail_legalization: Some(LegalizationStrategy::QTetris),
            panic_in_legalization: None,
        };
        let poisoned = Session::new(
            &topo,
            FlowConfig::default()
                .with_seed(11)
                .with_fault_injection(fault),
        )
        .unwrap();
        let clean = session();
        let requests: Vec<FlowRequest> = LegalizationStrategy::all()
            .into_iter()
            .map(FlowRequest::legalize)
            .collect();
        let results = poisoned.try_run_batch_with_threads(&requests, 2);
        let baseline = all_ok(clean.try_run_batch_with_threads(&requests, 2));
        assert_eq!(results.len(), 5);
        for (index, (request, result)) in requests.iter().zip(&results).enumerate() {
            if request.strategy == LegalizationStrategy::QTetris {
                let error = result.as_ref().unwrap_err();
                assert_eq!(error.stage(), Some(Stage::QubitLegalization));
                assert_eq!(error.strategy(), Some(LegalizationStrategy::QTetris));
                assert_eq!(error.request(), Some(index));
                // The trace covers every stage that completed before the failure.
                assert_eq!(
                    error.events().iter().map(|e| e.stage).collect::<Vec<_>>(),
                    vec![Stage::GlobalPlacement]
                );
            } else {
                let artifact = result.as_ref().unwrap();
                assert_eq!(
                    artifact.final_placement(),
                    baseline[index].final_placement(),
                    "sibling {index} diverged from the all-success run"
                );
            }
        }
    }

    #[test]
    fn injected_panic_is_contained_to_its_request() {
        let topo = StandardTopology::Grid.build();
        let fault = crate::FaultInjection {
            fail_legalization: None,
            panic_in_legalization: Some(LegalizationStrategy::Abacus),
        };
        let s = Session::new(
            &topo,
            FlowConfig::default()
                .with_seed(11)
                .with_fault_injection(fault),
        )
        .unwrap();
        let requests: Vec<FlowRequest> = LegalizationStrategy::all()
            .into_iter()
            .map(FlowRequest::legalize)
            .collect();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let results = s.try_run_batch_with_threads(&requests, 3);
        std::panic::set_hook(hook);
        let poisoned_index = 3; // Abacus is the 4th strategy of `all()`.
        match &results[poisoned_index] {
            Err(FlowError::Worker {
                stage,
                message,
                strategy,
                request,
            }) => {
                assert_eq!(*stage, Stage::QubitLegalization);
                assert!(message.contains("injected fault"), "message: {message}");
                assert_eq!(*strategy, Some(LegalizationStrategy::Abacus));
                assert_eq!(*request, Some(poisoned_index));
            }
            other => panic!("expected a contained Worker error, got {other:?}"),
        }
        for (index, result) in results.iter().enumerate() {
            if index != poisoned_index {
                assert!(result.is_ok(), "sibling {index} was lost: {result:?}");
            }
        }
    }

    #[test]
    fn injected_panic_propagates_on_the_single_flow_path() {
        let topo = StandardTopology::Grid.build();
        let fault = crate::FaultInjection {
            fail_legalization: None,
            panic_in_legalization: Some(LegalizationStrategy::Qgdp),
        };
        let s = Session::new(
            &topo,
            FlowConfig::default()
                .with_seed(11)
                .with_fault_injection(fault),
        )
        .unwrap();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.run(FlowRequest::legalize(LegalizationStrategy::Qgdp))
        }));
        std::panic::set_hook(hook);
        assert!(outcome.is_err(), "Session::run must not contain panics");
    }

    #[test]
    fn try_batch_outcomes_are_worker_count_invariant_under_faults() {
        let topo = StandardTopology::Grid.build();
        let fault = crate::FaultInjection {
            fail_legalization: Some(LegalizationStrategy::QAbacus),
            panic_in_legalization: None,
        };
        let s = Session::new(
            &topo,
            FlowConfig::default()
                .with_seed(11)
                .with_fault_injection(fault),
        )
        .unwrap();
        let requests: Vec<FlowRequest> = LegalizationStrategy::all()
            .into_iter()
            .flat_map(|strategy| {
                [
                    FlowRequest::legalize(strategy),
                    FlowRequest::detailed(strategy, DetailedPlacerConfig::new()),
                ]
            })
            .collect();
        let serial = s.try_run_batch_with_threads(&requests, 1);
        for threads in [2, 4, 16] {
            let parallel = s.try_run_batch_with_threads(&requests, threads);
            assert_eq!(serial.len(), parallel.len());
            for (index, (a, b)) in serial.iter().zip(&parallel).enumerate() {
                match (a, b) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(
                            a.final_placement(),
                            b.final_placement(),
                            "request {index}, threads={threads}"
                        );
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b, "request {index}, threads={threads}"),
                    other => {
                        panic!("request {index} outcome flipped at threads={threads}: {other:?}")
                    }
                }
            }
        }
    }
}
