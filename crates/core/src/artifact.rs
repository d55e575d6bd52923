//! Typed, immutable stage artifacts of the staged [`Session`](crate::Session) pipeline.
//!
//! The paper's flow is explicitly staged — global placement, qubit legalization
//! (§III-C), resonator legalization (§III-D), detailed placement (§III-E) — and each
//! stage here produces a dedicated artifact type:
//!
//! ```text
//! Session ──global_place()──▶ GlobalPlacement ──legalize_qubits(s)──▶ QubitLegalized
//!                                     │                                      │
//!                                     └────────legalize(s)─────────┐  legalize_cells()
//!                                                                  ▼         ▼
//!                                                              CellLegalized ──detail()──▶ Detailed
//! ```
//!
//! Every artifact is a **cheap, forkable handle**: the topology, netlist and stage
//! placements are shared through [`Arc`], so cloning an artifact or deriving five
//! legalizations from one [`GlobalPlacement`] never re-runs or deep-copies an earlier
//! stage.  Metrics are computed **lazily**: the first call to `scan()`, `report()` or
//! a fidelity evaluation runs one [`LayoutScan`] of the stage placement and caches it
//! in the artifact (shared across clones), so callers that only need placements never
//! pay for metrics, and callers that need several metric views of one placement pay
//! for the layout walk exactly once.  A [`Detailed`] artifact starts with the
//! detailed placer's final scan in that cache, since the placer maintains it anyway.
//!
//! Wall-clock cost is traced per stage as [`StageEvent`]s ([`CellLegalized::events`]).

use crate::pipeline::FlowConfig;
use crate::session::SessionContext;
use crate::{DetailedPlacer, DetailedPlacerConfig, FlowError, LegalizationStrategy};
use qgdp_circuits::{random_mappings, Benchmark};
use qgdp_geometry::Rect;
use qgdp_legalize::is_legal;
use qgdp_metrics::{FidelityEvaluator, LayoutReport, LayoutScan, NoiseModel};
use qgdp_netlist::{Placement, QuantumNetlist};
use qgdp_placer::{GlobalPlacer, GpStats};
use qgdp_topology::Topology;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The pipeline stages, labelling the trace events artifacts record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum Stage {
    /// Force-directed global placement.
    GlobalPlacement,
    /// Qubit (macro) legalization — §III-C, `t_q` of Table II.
    QubitLegalization,
    /// Resonator (wire-block) legalization — §III-D, `t_e` of Table II.
    ResonatorLegalization,
    /// Windowed detailed placement — §III-E.
    DetailedPlacement,
}

impl Stage {
    /// Stable machine-friendly name (used by bench trace records).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::GlobalPlacement => "global-placement",
            Stage::QubitLegalization => "qubit-legalization",
            Stage::ResonatorLegalization => "resonator-legalization",
            Stage::DetailedPlacement => "detailed-placement",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One wall-clock trace event: a pipeline stage and how long it ran.
///
/// Artifacts accumulate the events of every stage that produced them (see
/// [`CellLegalized::events`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageEvent {
    /// Which stage ran.
    pub stage: Stage,
    /// Wall-clock duration of the stage.
    pub duration: Duration,
}

/// Evaluates the Fig. 8 protocol on one layout scan: mean worst-case fidelity of
/// `benchmark` over `mappings` random qubit mappings.
///
/// Taking the (cached) [`LayoutScan`] instead of a raw placement means the
/// violation/crossing walk is shared with the artifact's quality report — the
/// evaluator construction is bit-identical to a from-scratch scan
/// ([`FidelityEvaluator::from_scan`]).
fn benchmark_fidelity(
    ctx: &SessionContext,
    scan: &LayoutScan,
    benchmark: Benchmark,
    mappings: usize,
    noise: &NoiseModel,
    seed: u64,
) -> f64 {
    let circuit = benchmark.circuit();
    let maps = random_mappings(&circuit, &ctx.topology, mappings, seed);
    FidelityEvaluator::from_scan(&ctx.netlist, *noise, scan).mean(&maps)
}

/// The context-free result of one global-placement run.
///
/// This is what [`SessionContext`](crate::session::SessionContext) caches in its
/// `gp_cache`: it deliberately holds **no** `Arc<SessionContext>` (an artifact
/// stored inside the context it points back to would leak as an `Arc` cycle).
/// [`GlobalPlacement::compute`] re-attaches the context to build the public handle.
#[derive(Debug, Clone)]
pub(crate) struct GpData {
    die: Rect,
    placement: Arc<Placement>,
    stats: GpStats,
    event: StageEvent,
    report: Arc<OnceLock<LayoutReport>>,
    scan: Arc<OnceLock<Arc<LayoutScan>>>,
}

impl GpData {
    /// Rebuilds the cache payload from previously-computed outputs (the
    /// snapshot-restore path; see [`crate::Session::restore_global`]).
    pub(crate) fn restored(
        die: Rect,
        placement: Placement,
        stats: GpStats,
        elapsed: Duration,
    ) -> Self {
        GpData {
            die,
            placement: Arc::new(placement),
            stats,
            event: StageEvent {
                stage: Stage::GlobalPlacement,
                duration: elapsed,
            },
            report: Arc::new(OnceLock::new()),
            scan: Arc::new(OnceLock::new()),
        }
    }
}

/// The global-placement artifact: GP positions for every component, the die outline
/// and the placer's quality statistics.
///
/// This is the fork point of the staged pipeline: one `GlobalPlacement` can feed any
/// number of [`legalize`](GlobalPlacement::legalize) calls (the five-strategy matrix
/// of Table II / Figs. 8–9 shares a single GP run), and cloning the artifact only
/// bumps reference counts.
#[derive(Debug, Clone)]
pub struct GlobalPlacement {
    ctx: Arc<SessionContext>,
    die: Rect,
    placement: Arc<Placement>,
    stats: GpStats,
    event: StageEvent,
    report: Arc<OnceLock<LayoutReport>>,
    scan: Arc<OnceLock<Arc<LayoutScan>>>,
}

impl GlobalPlacement {
    /// Returns the (session-cached) global placement for `ctx` as an artifact.
    ///
    /// The placer runs at most once per session: the first call populates the
    /// context's `gp_cache`, every later call clones the cached handles.
    pub(crate) fn compute(ctx: Arc<SessionContext>) -> Self {
        let data = ctx
            .gp_cache
            .get_or_init(|| {
                let start = Instant::now();
                let gp = GlobalPlacer::new(ctx.config.gp).place(&ctx.netlist, &ctx.topology);
                GpData {
                    die: gp.die,
                    placement: Arc::new(gp.placement),
                    stats: gp.stats,
                    event: StageEvent {
                        stage: Stage::GlobalPlacement,
                        duration: start.elapsed(),
                    },
                    report: Arc::new(OnceLock::new()),
                    scan: Arc::new(OnceLock::new()),
                }
            })
            .clone();
        GlobalPlacement {
            ctx,
            die: data.die,
            placement: data.placement,
            stats: data.stats,
            event: data.event,
            report: data.report,
            scan: data.scan,
        }
    }

    /// The device topology the session was built over.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.ctx.topology
    }

    /// The netlist every stage of this session places.
    #[must_use]
    pub fn netlist(&self) -> &QuantumNetlist {
        &self.ctx.netlist
    }

    /// The flow configuration of the owning session.
    #[must_use]
    pub fn config(&self) -> &FlowConfig {
        &self.ctx.config
    }

    /// The die (placement region) every later stage must stay inside.
    #[must_use]
    pub fn die(&self) -> Rect {
        self.die
    }

    /// The GP positions.
    #[must_use]
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The placer's quality statistics (HPWL, overlaps, peak density).
    #[must_use]
    pub fn stats(&self) -> GpStats {
        self.stats
    }

    /// Wall-clock duration of the global-placement stage.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.event.duration
    }

    /// The trace events recorded so far (just the GP stage for this artifact).
    #[must_use]
    pub fn events(&self) -> Vec<StageEvent> {
        vec![self.event]
    }

    /// The one-pass layout scan of the raw global placement (clusters, violations,
    /// crossings), computed lazily on first call and cached — the shared input of
    /// [`GlobalPlacement::report`] and the fidelity evaluations.
    #[must_use]
    pub fn scan(&self) -> &LayoutScan {
        self.scan_arc()
    }

    /// The cached scan as its shared handle (crate-internal; lets bench code hold
    /// the scan past the artifact without re-scanning).
    pub(crate) fn scan_arc(&self) -> &Arc<LayoutScan> {
        self.scan.get_or_init(|| {
            Arc::new(LayoutScan::scan(
                &self.ctx.netlist,
                &self.placement,
                &self.ctx.config.crosstalk,
            ))
        })
    }

    /// Layout metrics of the raw global placement, computed lazily on first call
    /// and cached (shared by every artifact forked from this GP).
    #[must_use]
    pub fn report(&self) -> &LayoutReport {
        self.report
            .get_or_init(|| LayoutReport::from_scan(&self.ctx.netlist, self.scan()))
    }

    /// Runs the qubit-legalization stage of `strategy` on this GP (§III-C).
    ///
    /// This is also where the [`FaultInjection`](crate::pipeline::FaultInjection)
    /// hooks of the session config trigger, so every path that legalizes the
    /// poisoned strategy — single flows and batches alike — observes the fault.
    ///
    /// # Errors
    ///
    /// Returns a [`FlowError`] naming the stage and strategy when the legalizer
    /// cannot find a legal qubit layout; the error carries the
    /// [`StageEvent`] trace of the stages that completed before it.
    ///
    /// # Panics
    ///
    /// Panics when the session config injects a panic into this strategy's
    /// legalization (`fault.panic_in_legalization`).
    pub fn legalize_qubits(
        &self,
        strategy: LegalizationStrategy,
    ) -> Result<QubitLegalized, FlowError> {
        let fault = &self.ctx.config.fault;
        if fault.panic_in_legalization == Some(strategy) {
            panic!("injected fault: panic in {strategy} qubit legalization");
        }
        let start = Instant::now();
        let legalized = if fault.fail_legalization == Some(strategy) {
            Err(qgdp_legalize::LegalizeError::NoSpace {
                component: format!("injected fault: {strategy} qubit legalization"),
            })
        } else {
            strategy.qubit_legalizer().legalize_qubits(
                &self.ctx.netlist,
                &self.die,
                &self.placement,
            )
        };
        let placement = legalized.map_err(|source| FlowError::Legalize {
            source,
            stage: Stage::QubitLegalization,
            strategy,
            request: None,
            events: self.events(),
        })?;
        let event = StageEvent {
            stage: Stage::QubitLegalization,
            duration: start.elapsed(),
        };
        Ok(QubitLegalized {
            gp: self.clone(),
            strategy,
            placement: Arc::new(placement),
            event,
        })
    }

    /// Runs both legalization stages of `strategy` (qubits, then wire blocks).
    ///
    /// # Errors
    ///
    /// Returns a [`FlowError`] when either legalization stage fails.
    pub fn legalize(&self, strategy: LegalizationStrategy) -> Result<CellLegalized, FlowError> {
        self.legalize_qubits(strategy)?.legalize_cells()
    }

    /// Rebuilds a legalized artifact from previously-computed stage outputs without
    /// re-running either legalization stage — the snapshot-restore path of the
    /// serving layer.
    ///
    /// The placements **must** be the bit-exact outputs of `strategy`'s
    /// legalization stages on this exact GP (same topology, same
    /// [`FlowConfig`] stage prefix); the content identity of
    /// [`crate::ArtifactKey`] is what guarantees this at the call sites.  Lazy
    /// metrics (scan, report) are recomputed on demand and are bit-identical to a
    /// live run's by determinism of the scan.
    #[must_use]
    pub fn restore_legalized(
        &self,
        strategy: LegalizationStrategy,
        qubit_placement: Placement,
        qubit_elapsed: Duration,
        cell_placement: Placement,
        cell_elapsed: Duration,
    ) -> CellLegalized {
        let qubits = QubitLegalized {
            gp: self.clone(),
            strategy,
            placement: Arc::new(qubit_placement),
            event: StageEvent {
                stage: Stage::QubitLegalization,
                duration: qubit_elapsed,
            },
        };
        CellLegalized {
            qubits,
            placement: Arc::new(cell_placement),
            event: StageEvent {
                stage: Stage::ResonatorLegalization,
                duration: cell_elapsed,
            },
            report: Arc::new(OnceLock::new()),
            scan: Arc::new(OnceLock::new()),
        }
    }
}

/// The qubit-legalization artifact (§III-C): qubits at legal, spacing-respecting
/// positions; wire blocks still at their GP positions.
#[derive(Debug, Clone)]
pub struct QubitLegalized {
    gp: GlobalPlacement,
    strategy: LegalizationStrategy,
    placement: Arc<Placement>,
    event: StageEvent,
}

impl QubitLegalized {
    /// The global-placement artifact this stage was derived from.
    #[must_use]
    pub fn global(&self) -> &GlobalPlacement {
        &self.gp
    }

    /// The legalization strategy that produced this artifact.
    #[must_use]
    pub fn strategy(&self) -> LegalizationStrategy {
        self.strategy
    }

    /// The netlist every stage of this session places.
    #[must_use]
    pub fn netlist(&self) -> &QuantumNetlist {
        self.gp.netlist()
    }

    /// The die outline.
    #[must_use]
    pub fn die(&self) -> Rect {
        self.gp.die()
    }

    /// Positions after qubit legalization (wire blocks untouched).
    #[must_use]
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Wall-clock duration of the qubit-legalization stage alone (`t_q` of Table II).
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.event.duration
    }

    /// The trace events of every stage up to and including this one.
    #[must_use]
    pub fn events(&self) -> Vec<StageEvent> {
        let mut events = self.gp.events();
        events.push(self.event);
        events
    }

    /// Runs the wire-block (resonator) legalization stage of the strategy (§III-D).
    ///
    /// # Errors
    ///
    /// Returns a [`FlowError`] naming the stage and strategy when the cell
    /// legalizer cannot find a legal layout; the error carries the [`StageEvent`]
    /// trace of the stages that completed before it (GP and qubit legalization).
    pub fn legalize_cells(&self) -> Result<CellLegalized, FlowError> {
        let start = Instant::now();
        let placement = self
            .strategy
            .cell_legalizer()
            .legalize_cells(self.netlist(), &self.gp.die, &self.placement)
            .map_err(|source| FlowError::Legalize {
                source,
                stage: Stage::ResonatorLegalization,
                strategy: self.strategy,
                request: None,
                events: self.events(),
            })?;
        let event = StageEvent {
            stage: Stage::ResonatorLegalization,
            duration: start.elapsed(),
        };
        Ok(CellLegalized {
            qubits: self.clone(),
            placement: Arc::new(placement),
            event,
            report: Arc::new(OnceLock::new()),
            scan: Arc::new(OnceLock::new()),
        })
    }
}

/// The fully-legalized artifact (§III-C + §III-D): every component at a legal
/// position.  This is the qGDP-LG result for [`LegalizationStrategy::Qgdp`].
///
/// The artifact can be forked into any number of detailed placements
/// ([`detail_with`](CellLegalized::detail_with)) without re-running legalization.
#[derive(Debug, Clone)]
pub struct CellLegalized {
    qubits: QubitLegalized,
    placement: Arc<Placement>,
    event: StageEvent,
    report: Arc<OnceLock<LayoutReport>>,
    scan: Arc<OnceLock<Arc<LayoutScan>>>,
}

impl CellLegalized {
    /// The global-placement artifact at the root of this derivation.
    #[must_use]
    pub fn global(&self) -> &GlobalPlacement {
        self.qubits.global()
    }

    /// The intermediate qubit-legalization artifact.
    #[must_use]
    pub fn qubit_stage(&self) -> &QubitLegalized {
        &self.qubits
    }

    /// The legalization strategy that produced this artifact.
    #[must_use]
    pub fn strategy(&self) -> LegalizationStrategy {
        self.qubits.strategy
    }

    /// The device topology the session was built over.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        self.global().topology()
    }

    /// The netlist every stage of this session places.
    #[must_use]
    pub fn netlist(&self) -> &QuantumNetlist {
        self.qubits.netlist()
    }

    /// The flow configuration of the owning session.
    #[must_use]
    pub fn config(&self) -> &FlowConfig {
        self.global().config()
    }

    /// The die outline.
    #[must_use]
    pub fn die(&self) -> Rect {
        self.qubits.die()
    }

    /// The legalized positions.
    #[must_use]
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Wall-clock duration of the resonator-legalization stage alone (`t_e` of
    /// Table II).
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.event.duration
    }

    /// The trace events of every stage up to and including this one.
    #[must_use]
    pub fn events(&self) -> Vec<StageEvent> {
        let mut events = self.qubits.events();
        events.push(self.event);
        events
    }

    /// The one-pass layout scan of the legalized layout, computed lazily on first
    /// call and cached (shared across clones) — one scan feeds both
    /// [`CellLegalized::report`] and [`CellLegalized::mean_benchmark_fidelity`].
    #[must_use]
    pub fn scan(&self) -> &LayoutScan {
        self.scan_arc()
    }

    pub(crate) fn scan_arc(&self) -> &Arc<LayoutScan> {
        let gp = &self.qubits.gp;
        self.scan.get_or_init(|| {
            Arc::new(LayoutScan::scan(
                gp.netlist(),
                &self.placement,
                &gp.config().crosstalk,
            ))
        })
    }

    /// Layout metrics of the legalized layout, computed lazily on first call and
    /// cached (shared across clones of this artifact).
    #[must_use]
    pub fn report(&self) -> &LayoutReport {
        self.report
            .get_or_init(|| LayoutReport::from_scan(self.netlist(), self.scan()))
    }

    /// Returns `true` if the layout is fully legal (inside the die, no overlaps).
    #[must_use]
    pub fn is_legal(&self) -> bool {
        is_legal(self.netlist(), &self.die(), &self.placement)
    }

    /// Mean worst-case program fidelity of `benchmark` on this layout, averaged over
    /// `mappings` random qubit mappings (the Fig. 8 protocol).
    #[must_use]
    pub fn mean_benchmark_fidelity(
        &self,
        benchmark: Benchmark,
        mappings: usize,
        noise: &NoiseModel,
        seed: u64,
    ) -> f64 {
        benchmark_fidelity(
            &self.qubits.gp.ctx,
            self.scan(),
            benchmark,
            mappings,
            noise,
            seed,
        )
    }

    /// Runs detailed placement (§III-E) with the session's configured
    /// [`DetailedPlacerConfig`].
    #[must_use]
    pub fn detail(&self) -> Detailed {
        self.detail_with(self.config().detail)
    }

    /// Runs detailed placement (§III-E) with an explicit configuration.  One
    /// legalized artifact can be forked into many detailed placements.
    ///
    /// The placer's final layout scan seeds the artifact's scan cache when it was
    /// taken under the session's crosstalk thresholds; otherwise the scan stays
    /// lazy.
    #[must_use]
    pub fn detail_with(&self, config: DetailedPlacerConfig) -> Detailed {
        let start = Instant::now();
        let outcome =
            DetailedPlacer::with_config(config).place(self.netlist(), &self.die(), &self.placement);
        let event = StageEvent {
            stage: Stage::DetailedPlacement,
            duration: start.elapsed(),
        };
        let scan = if config.crosstalk == self.config().crosstalk {
            OnceLock::from(Arc::new(outcome.scan))
        } else {
            OnceLock::new()
        };
        Detailed {
            legalized: self.clone(),
            placement: Arc::new(outcome.placement),
            windows_processed: outcome.windows_processed,
            windows_accepted: outcome.windows_accepted,
            event,
            report: Arc::new(OnceLock::new()),
            scan: Arc::new(scan),
        }
    }

    /// Rebuilds a detailed artifact from a previously-computed refinement without
    /// re-running the detailed placer — the snapshot-restore path of the serving
    /// layer.
    ///
    /// `placement` **must** be the bit-exact output of a detailed-placement run on
    /// this exact legalized layout with the configuration the caller's content
    /// identity ([`crate::ArtifactKey`]) names; lazy metrics are recomputed on
    /// demand, bit-identically to a live run's.
    #[must_use]
    pub fn restore_detailed(
        &self,
        placement: Placement,
        windows_processed: usize,
        windows_accepted: usize,
        elapsed: Duration,
    ) -> Detailed {
        Detailed {
            legalized: self.clone(),
            placement: Arc::new(placement),
            windows_processed,
            windows_accepted,
            event: StageEvent {
                stage: Stage::DetailedPlacement,
                duration: elapsed,
            },
            report: Arc::new(OnceLock::new()),
            scan: Arc::new(OnceLock::new()),
        }
    }
}

/// The detailed-placement artifact (§III-E): wire blocks rerouted through windowed
/// maze re-placement; qubits identical to the legalized layout.
#[derive(Debug, Clone)]
pub struct Detailed {
    legalized: CellLegalized,
    placement: Arc<Placement>,
    windows_processed: usize,
    windows_accepted: usize,
    event: StageEvent,
    report: Arc<OnceLock<LayoutReport>>,
    scan: Arc<OnceLock<Arc<LayoutScan>>>,
}

impl Detailed {
    /// The legalized artifact this stage refined.
    #[must_use]
    pub fn legalized(&self) -> &CellLegalized {
        &self.legalized
    }

    /// The global-placement artifact at the root of this derivation.
    #[must_use]
    pub fn global(&self) -> &GlobalPlacement {
        self.legalized.global()
    }

    /// The legalization strategy that produced the input layout.
    #[must_use]
    pub fn strategy(&self) -> LegalizationStrategy {
        self.legalized.strategy()
    }

    /// The netlist every stage of this session places.
    #[must_use]
    pub fn netlist(&self) -> &QuantumNetlist {
        self.legalized.netlist()
    }

    /// The die outline.
    #[must_use]
    pub fn die(&self) -> Rect {
        self.legalized.die()
    }

    /// The refined positions.
    #[must_use]
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Number of processing windows examined.
    #[must_use]
    pub fn windows_processed(&self) -> usize {
        self.windows_processed
    }

    /// Number of windows whose re-placement was accepted.
    #[must_use]
    pub fn windows_accepted(&self) -> usize {
        self.windows_accepted
    }

    /// Wall-clock duration of the detailed-placement stage alone.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.event.duration
    }

    /// The trace events of every stage up to and including this one.
    #[must_use]
    pub fn events(&self) -> Vec<StageEvent> {
        let mut events = self.legalized.events();
        events.push(self.event);
        events
    }

    /// The one-pass layout scan of the refined layout — the detailed placer's own
    /// scan, or computed lazily on first call when the placer scored under other
    /// crosstalk thresholds than the session's — cached and shared by
    /// [`Detailed::report`] and [`Detailed::mean_benchmark_fidelity`].
    #[must_use]
    pub fn scan(&self) -> &LayoutScan {
        self.scan_arc()
    }

    pub(crate) fn scan_arc(&self) -> &Arc<LayoutScan> {
        self.scan.get_or_init(|| {
            Arc::new(LayoutScan::scan(
                self.netlist(),
                &self.placement,
                &self.legalized.config().crosstalk,
            ))
        })
    }

    /// Layout metrics of the refined layout, computed lazily on first call and cached.
    #[must_use]
    pub fn report(&self) -> &LayoutReport {
        self.report
            .get_or_init(|| LayoutReport::from_scan(self.netlist(), self.scan()))
    }

    /// Returns `true` if the refined layout is fully legal.
    #[must_use]
    pub fn is_legal(&self) -> bool {
        is_legal(self.netlist(), &self.die(), &self.placement)
    }

    /// Mean worst-case program fidelity of `benchmark` on this layout (the Fig. 8
    /// protocol).
    #[must_use]
    pub fn mean_benchmark_fidelity(
        &self,
        benchmark: Benchmark,
        mappings: usize,
        noise: &NoiseModel,
        seed: u64,
    ) -> f64 {
        benchmark_fidelity(
            &self.legalized.global().ctx,
            self.scan(),
            benchmark,
            mappings,
            noise,
            seed,
        )
    }
}

/// The terminal artifact of one flow request: the legalized layout, refined
/// by detailed placement when the request asked for it.
#[derive(Debug, Clone)]
pub enum FlowArtifact {
    /// The request stopped after legalization.
    Legalized(CellLegalized),
    /// The request ran detailed placement on the legalized layout.
    Detailed(Detailed),
}

impl FlowArtifact {
    /// The legalization strategy of this flow.
    #[must_use]
    pub fn strategy(&self) -> LegalizationStrategy {
        self.legalized().strategy()
    }

    /// The legalized artifact (the DP input when detailed placement ran).
    #[must_use]
    pub fn legalized(&self) -> &CellLegalized {
        match self {
            FlowArtifact::Legalized(cell) => cell,
            FlowArtifact::Detailed(dp) => dp.legalized(),
        }
    }

    /// The detailed-placement artifact, when that stage ran.
    #[must_use]
    pub fn detailed(&self) -> Option<&Detailed> {
        match self {
            FlowArtifact::Legalized(_) => None,
            FlowArtifact::Detailed(dp) => Some(dp),
        }
    }

    /// The netlist every stage of this session places.
    #[must_use]
    pub fn netlist(&self) -> &QuantumNetlist {
        self.legalized().netlist()
    }

    /// The die outline.
    #[must_use]
    pub fn die(&self) -> Rect {
        self.legalized().die()
    }

    /// The final placement of the flow (detailed when it ran, otherwise legalized).
    #[must_use]
    pub fn final_placement(&self) -> &Placement {
        match self {
            FlowArtifact::Legalized(cell) => cell.placement(),
            FlowArtifact::Detailed(dp) => dp.placement(),
        }
    }

    /// The layout report of the final placement (lazy, cached).
    #[must_use]
    pub fn report(&self) -> &LayoutReport {
        match self {
            FlowArtifact::Legalized(cell) => cell.report(),
            FlowArtifact::Detailed(dp) => dp.report(),
        }
    }

    /// Returns `true` if the final placement is fully legal.
    #[must_use]
    pub fn is_legal(&self) -> bool {
        match self {
            FlowArtifact::Legalized(cell) => cell.is_legal(),
            FlowArtifact::Detailed(dp) => dp.is_legal(),
        }
    }

    /// The trace events of every stage of this flow.
    #[must_use]
    pub fn events(&self) -> Vec<StageEvent> {
        match self {
            FlowArtifact::Legalized(cell) => cell.events(),
            FlowArtifact::Detailed(dp) => dp.events(),
        }
    }

    /// Mean worst-case program fidelity of `benchmark` on the final layout (the
    /// Fig. 8 protocol).
    #[must_use]
    pub fn mean_benchmark_fidelity(
        &self,
        benchmark: Benchmark,
        mappings: usize,
        noise: &NoiseModel,
        seed: u64,
    ) -> f64 {
        match self {
            FlowArtifact::Legalized(cell) => {
                cell.mean_benchmark_fidelity(benchmark, mappings, noise, seed)
            }
            FlowArtifact::Detailed(dp) => {
                dp.mean_benchmark_fidelity(benchmark, mappings, noise, seed)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;
    use qgdp_topology::StandardTopology;

    fn session() -> Session {
        let topo = StandardTopology::Grid.build();
        Session::new(&topo, FlowConfig::default().with_seed(3)).expect("session builds")
    }

    #[test]
    fn stage_names_are_stable() {
        assert_eq!(Stage::GlobalPlacement.name(), "global-placement");
        assert_eq!(Stage::QubitLegalization.to_string(), "qubit-legalization");
        assert_eq!(
            Stage::ResonatorLegalization.name(),
            "resonator-legalization"
        );
        assert_eq!(Stage::DetailedPlacement.name(), "detailed-placement");
    }

    #[test]
    fn artifacts_accumulate_stage_events_in_order() {
        let gp = session().global_place();
        let cell = gp.legalize(LegalizationStrategy::Qgdp).unwrap();
        let dp = cell.detail();
        let stages: Vec<Stage> = dp.events().iter().map(|e| e.stage).collect();
        assert_eq!(
            stages,
            vec![
                Stage::GlobalPlacement,
                Stage::QubitLegalization,
                Stage::ResonatorLegalization,
                Stage::DetailedPlacement,
            ]
        );
        let events = dp.events();
        assert_eq!(events[0].duration, gp.elapsed());
        assert_eq!(events[3].duration, dp.elapsed());
    }

    #[test]
    fn forked_artifacts_share_the_gp_placement_allocation() {
        let gp = session().global_place();
        let a = gp.legalize(LegalizationStrategy::Qgdp).unwrap();
        let b = gp.legalize(LegalizationStrategy::Tetris).unwrap();
        assert!(Arc::ptr_eq(&a.global().placement, &b.global().placement));
        assert!(Arc::ptr_eq(
            &a.global().ctx.netlist,
            &b.global().ctx.netlist
        ));
        // The lazy GP report cache is shared too: computing it through one fork
        // makes it visible through the other.
        let through_a = a.global().report().clone();
        assert_eq!(b.global().report(), &through_a);
    }

    #[test]
    fn lazy_report_is_cached_across_clones() {
        let cell = session()
            .global_place()
            .legalize(LegalizationStrategy::Qgdp)
            .unwrap();
        let clone = cell.clone();
        let first = cell.report() as *const LayoutReport;
        let second = clone.report() as *const LayoutReport;
        assert_eq!(first, second, "clones must share one cached report");
    }

    #[test]
    fn report_and_fidelity_share_one_cached_scan() {
        let cell = session()
            .global_place()
            .legalize(LegalizationStrategy::Qgdp)
            .unwrap();
        let clone = cell.clone();
        let first = cell.scan() as *const LayoutScan;
        let report = cell.report().clone();
        assert_eq!(clone.scan() as *const LayoutScan, first);
        // The scan-assembled report is bit-identical to a from-scratch evaluate.
        let fresh =
            LayoutReport::evaluate(cell.netlist(), cell.placement(), &cell.config().crosstalk);
        assert_eq!(report, fresh);
        assert_eq!(
            report.hotspot_proportion_percent.to_bits(),
            fresh.hotspot_proportion_percent.to_bits()
        );
        // The detailed artifact caches its own scan the same way.
        let dp = cell.detail();
        let dp_fresh =
            LayoutReport::evaluate(dp.netlist(), dp.placement(), &cell.config().crosstalk);
        assert_eq!(dp.report(), &dp_fresh);
        assert_eq!(
            dp.scan() as *const LayoutScan,
            dp.scan() as *const LayoutScan
        );
    }

    #[test]
    fn detail_forks_do_not_mutate_the_legalized_artifact() {
        let cell = session()
            .global_place()
            .legalize(LegalizationStrategy::Qgdp)
            .unwrap();
        let before = cell.placement().clone();
        let a = cell.detail();
        let b = cell.detail_with(DetailedPlacerConfig::new());
        assert_eq!(cell.placement(), &before);
        assert_eq!(a.placement(), b.placement(), "same config, same refinement");
        assert!(a.is_legal());
    }
}
