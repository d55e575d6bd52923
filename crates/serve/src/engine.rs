//! The serving engine: stage-level artifact reuse over the content-addressed
//! [`ArtifactStore`], plus batch execution with admission control and a
//! self-scheduling fan-out.
//!
//! # Cache discipline
//!
//! Every request is content-addressed with [`qgdp::ArtifactKey`]: the session
//! level keys on the topology plus the GP stage prefix of the [`FlowConfig`],
//! the legalization level nests the strategy under it, and the detail level
//! nests the [`DetailedPlacerConfig`].  Two requests that share a prefix share
//! the cached artifact — *pointer-equal* (`Arc`-shared) on a warm hit, and
//! bit-identical to a cold run by the determinism contract of the staged
//! pipeline.
//!
//! Fault-injected configurations ([`FlowConfig::is_cacheable`] is `false`)
//! **bypass the cache entirely**, in both directions: they never read a cached
//! artifact and never publish one, so a poisoned request cannot contaminate
//! warm state.
//!
//! # Concurrency
//!
//! The store sits behind one mutex, but the heavy stages run *outside* it: a
//! miss releases the lock, computes, then re-locks to publish.  Two threads
//! racing the same key both compute; [`ArtifactStore::insert`]'s first-writer-
//! wins semantics make them converge on one shared artifact (both results are
//! bit-identical, so dropping the loser is free).

use crate::snapshot::{
    DetailedSnapshot, GpSnapshot, LegalizedSnapshot, PlacementData, SessionSnapshot, Snapshot,
};
use crate::store::{ArtifactStore, StoreConfig, StoreStats};
use qgdp::{
    ArtifactKey, DetailedPlacerConfig, FlowArtifact, FlowConfig, FlowError, LegalizationStrategy,
    Session,
};
use qgdp_geometry::Rect;
use qgdp_metrics::parallel_try_map;
use qgdp_netlist::{Placement, QuantumNetlist, QubitId, SegmentId};
use qgdp_topology::Topology;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Default bound on how many requests one batch may admit.
pub const DEFAULT_QUEUE_DEPTH: usize = 1024;

/// One placement job: which device, which flow configuration, which strategy,
/// and optionally a detailed-placement refinement.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// The device topology (shared handles keep batch fan-out cheap).
    pub topology: Arc<Topology>,
    /// The flow configuration (GP stage prefix + optional fault hooks).
    pub config: FlowConfig,
    /// The legalization strategy to run.
    pub strategy: LegalizationStrategy,
    /// Detailed-placement configuration; `None` stops after legalization.
    pub detail: Option<DetailedPlacerConfig>,
}

/// A serving-layer failure for one request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The placement pipeline itself failed (or a worker panicked inside it).
    Flow(FlowError),
    /// The batch exceeded the admission bound; this request was never started.
    QueueFull {
        /// The configured admission bound.
        depth: usize,
        /// This request's position in the submitted batch.
        position: usize,
    },
    /// A serving worker panicked outside the pipeline's own containment.
    Worker(String),
    /// A snapshot being restored described data inconsistent with its netlist.
    Restore(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Flow(e) => write!(f, "{e}"),
            ServeError::QueueFull { depth, position } => write!(
                f,
                "queue full: request {position} exceeds the admission bound of {depth}"
            ),
            ServeError::Worker(msg) => write!(f, "serving worker panicked: {msg}"),
            ServeError::Restore(msg) => write!(f, "snapshot restore rejected: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<FlowError> for ServeError {
    fn from(e: FlowError) -> Self {
        ServeError::Flow(e)
    }
}

/// What the cache stores at each stage level.
#[derive(Debug, Clone)]
enum CacheValue {
    /// Session level: netlist built, GP memoised inside the session.
    Session(Session),
    /// Legalization level: one strategy's fully-legalized layout.
    Legalized(qgdp::CellLegalized),
    /// Detail level: one refinement, with the config that produced it (the
    /// artifact itself does not record it, and snapshot export needs it).
    Detailed {
        artifact: qgdp::Detailed,
        config: DetailedPlacerConfig,
    },
}

/// Counts of what a snapshot restore rebuilt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RestoreStats {
    /// Sessions rebuilt (netlist constructed, GP cache seeded when present).
    pub sessions: usize,
    /// Legalized artifacts rehydrated.
    pub legalized: usize,
    /// Detailed artifacts rehydrated.
    pub detailed: usize,
}

/// The serving engine: one content-addressed artifact store plus the execution
/// paths that populate and reuse it.
#[derive(Debug)]
pub struct ServeEngine {
    store: Mutex<ArtifactStore<CacheValue>>,
    queue_depth: usize,
}

impl Default for ServeEngine {
    fn default() -> Self {
        ServeEngine::new(StoreConfig::from_env(), queue_depth_from_env())
    }
}

/// Reads the batch admission bound from `QGDP_QUEUE_DEPTH` (default
/// [`DEFAULT_QUEUE_DEPTH`]; unparsable or zero values fall back).
#[must_use]
pub fn queue_depth_from_env() -> usize {
    match std::env::var("QGDP_QUEUE_DEPTH")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => DEFAULT_QUEUE_DEPTH,
    }
}

/// Rough live-memory estimate of one placement, in bytes.
fn placement_bytes(netlist: &QuantumNetlist) -> usize {
    (netlist.num_qubits() + netlist.num_segments()) * 16
}

/// Rough live-memory estimate of the netlist an artifact keeps alive (Arc
/// shared, but the cache is what keeps it live): component structs, the
/// coupling graph and the net pin lists.  On roadmap-scale devices this
/// dominates a single placement, so leaving it out made large artifacts look
/// almost free to the byte budget.
fn netlist_bytes(netlist: &QuantumNetlist) -> usize {
    let pins: usize = netlist.nets().iter().map(|n| n.components().len()).sum();
    netlist.num_qubits() * 64
        + netlist.num_segments() * 48
        + netlist.num_resonators() * 64
        + pins * 8
}

/// Rough live-memory estimate of one cached [`qgdp_metrics::LayoutReport`] +
/// its backing layout scan (violation and crossing lists scale with the
/// component count).
fn report_bytes(netlist: &QuantumNetlist) -> usize {
    netlist.num_components() * 8 + netlist.num_resonators() * 32
}

/// Byte estimate for a cached [`CacheValue::Session`]: the shared netlist, the
/// lazily cached GP placement (plus seed/scratch headroom) and its report.
fn session_value_bytes(netlist: &QuantumNetlist) -> usize {
    netlist_bytes(netlist) + placement_bytes(netlist) * 3 + report_bytes(netlist)
}

/// Byte estimate for a cached [`CacheValue::Legalized`]: qubit- and cell-stage
/// placements and their lazily cached stage reports (the netlist is charged to
/// the session entry that shares it).
fn legalized_value_bytes(netlist: &QuantumNetlist) -> usize {
    placement_bytes(netlist) * 2 + report_bytes(netlist) * 2
}

/// Byte estimate for a cached [`CacheValue::Detailed`]: one placement and its
/// lazily cached report.
fn detailed_value_bytes(netlist: &QuantumNetlist) -> usize {
    placement_bytes(netlist) + report_bytes(netlist)
}

fn to_data(p: &Placement) -> PlacementData {
    PlacementData {
        qubits: (0..p.num_qubits()).map(|i| p.qubit(QubitId(i))).collect(),
        segments: (0..p.num_segments())
            .map(|i| p.segment(SegmentId(i)))
            .collect(),
    }
}

/// The snapshot group of one session identity, created empty on first use.
fn session_group<'a>(
    groups: &'a mut BTreeMap<ArtifactKey, SessionSnapshot>,
    topology: &Topology,
    config: &FlowConfig,
) -> &'a mut SessionSnapshot {
    groups
        .entry(ArtifactKey::session(topology, config))
        .or_insert_with(|| SessionSnapshot {
            topology: topology.clone(),
            config: *config,
            gp: None,
            legalized: Vec::new(),
            detailed: Vec::new(),
        })
}

fn gp_snapshot(gp: &qgdp::GlobalPlacement) -> GpSnapshot {
    GpSnapshot {
        die: (gp.die().lower_left(), gp.die().width(), gp.die().height()),
        placement: to_data(gp.placement()),
        stats: gp.stats(),
        elapsed_ns: gp.elapsed().as_nanos() as u64,
    }
}

/// Adds `cell` and the GP it came from to `group`, each unless already there
/// (restore needs the whole chain behind a detailed placement).
fn add_legalized(group: &mut SessionSnapshot, cell: &qgdp::CellLegalized) {
    group.gp.get_or_insert_with(|| gp_snapshot(cell.global()));
    if !group
        .legalized
        .iter()
        .any(|l| l.strategy == cell.strategy())
    {
        group.legalized.push(LegalizedSnapshot {
            strategy: cell.strategy(),
            qubit_placement: to_data(cell.qubit_stage().placement()),
            qubit_ns: cell.qubit_stage().elapsed().as_nanos() as u64,
            cell_placement: to_data(cell.placement()),
            cell_ns: cell.elapsed().as_nanos() as u64,
        });
    }
}

fn from_data(netlist: &QuantumNetlist, data: &PlacementData) -> Result<Placement, ServeError> {
    let mut p = Placement::new(netlist);
    if data.qubits.len() != p.num_qubits() || data.segments.len() != p.num_segments() {
        return Err(ServeError::Restore(format!(
            "placement has {} qubits / {} segments; netlist expects {} / {}",
            data.qubits.len(),
            data.segments.len(),
            p.num_qubits(),
            p.num_segments()
        )));
    }
    for (i, &q) in data.qubits.iter().enumerate() {
        p.set_qubit(QubitId(i), q);
    }
    for (i, &s) in data.segments.iter().enumerate() {
        p.set_segment(SegmentId(i), s);
    }
    Ok(p)
}

impl ServeEngine {
    /// Creates an engine with an explicit store configuration and admission
    /// bound.
    #[must_use]
    pub fn new(store: StoreConfig, queue_depth: usize) -> Self {
        ServeEngine {
            store: Mutex::new(ArtifactStore::new(store)),
            queue_depth: queue_depth.max(1),
        }
    }

    /// Creates an engine configured from the environment (`QGDP_CACHE_ENTRIES`,
    /// `QGDP_CACHE_BYTES`, `QGDP_QUEUE_DEPTH`).
    #[must_use]
    pub fn from_env() -> Self {
        ServeEngine::default()
    }

    /// The batch admission bound.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// Point-in-time cache counters.
    ///
    /// # Panics
    ///
    /// Panics if the store mutex was poisoned by a panicking store operation
    /// (store operations do not run user code, so this does not happen in
    /// practice).
    #[must_use]
    pub fn store_stats(&self) -> StoreStats {
        self.store.lock().expect("store mutex").stats()
    }

    /// Number of cached artifacts across all stage levels.
    ///
    /// # Panics
    ///
    /// Panics if the store mutex was poisoned (see [`ServeEngine::store_stats`]).
    #[must_use]
    pub fn cached_artifacts(&self) -> usize {
        self.store.lock().expect("store mutex").len()
    }

    fn store(&self) -> std::sync::MutexGuard<'_, ArtifactStore<CacheValue>> {
        self.store.lock().expect("store mutex")
    }

    /// Executes one request through the cache.
    ///
    /// Warm hits return `Arc`-shared handles (pointer-equal placements across
    /// requests); cold paths compute outside the store lock and publish with
    /// first-writer-wins semantics.  Fault-injected configurations bypass the
    /// cache entirely.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Flow`] when a pipeline stage fails (or panics, on
    /// the fault-isolated batch surface underneath).
    pub fn execute(&self, request: &JobRequest) -> Result<FlowArtifact, ServeError> {
        if !request.config.is_cacheable() {
            // Fault hooks active: run on a throwaway session, never touching the
            // cache.  The `try_` batch surface contains injected panics so a
            // poisoned request reports instead of unwinding through the server.
            let session = Session::over(Arc::clone(&request.topology), request.config)?;
            let req = qgdp::FlowRequest {
                strategy: request.strategy,
                detail: request.detail,
            };
            let mut results = session.try_run_batch_with_threads(&[req], 1);
            return results
                .pop()
                .expect("one result per request")
                .map_err(ServeError::Flow);
        }

        let session_key = ArtifactKey::session(&request.topology, &request.config);
        let session = self.session_for(&session_key, request)?;

        let legalized_key = session_key.for_strategy(request.strategy);
        let legalized = self.legalized_for(&legalized_key, &session, request.strategy)?;

        let Some(detail) = request.detail else {
            return Ok(FlowArtifact::Legalized(legalized));
        };
        let detail_key = legalized_key.for_detail(&detail);
        let detailed = self.detailed_for(&detail_key, &legalized, detail);
        Ok(FlowArtifact::Detailed(detailed))
    }

    fn session_for(&self, key: &ArtifactKey, request: &JobRequest) -> Result<Session, ServeError> {
        if let Some(CacheValue::Session(s)) = self.store().get(key) {
            return Ok(s);
        }
        let built = Session::over(Arc::clone(&request.topology), request.config)?;
        let bytes = session_value_bytes(built.netlist());
        match self
            .store()
            .insert(key.clone(), CacheValue::Session(built.clone()), bytes)
        {
            CacheValue::Session(winner) => Ok(winner),
            _ => Ok(built),
        }
    }

    fn legalized_for(
        &self,
        key: &ArtifactKey,
        session: &Session,
        strategy: LegalizationStrategy,
    ) -> Result<qgdp::CellLegalized, ServeError> {
        if let Some(CacheValue::Legalized(cell)) = self.store().get(key) {
            return Ok(cell);
        }
        let cell = session.global_place().legalize(strategy)?;
        let bytes = legalized_value_bytes(session.netlist());
        match self
            .store()
            .insert(key.clone(), CacheValue::Legalized(cell.clone()), bytes)
        {
            CacheValue::Legalized(winner) => Ok(winner),
            _ => Ok(cell),
        }
    }

    fn detailed_for(
        &self,
        key: &ArtifactKey,
        legalized: &qgdp::CellLegalized,
        config: DetailedPlacerConfig,
    ) -> qgdp::Detailed {
        if let Some(CacheValue::Detailed { artifact, .. }) = self.store().get(key) {
            return artifact;
        }
        let dp = legalized.detail_with(config);
        let bytes = detailed_value_bytes(legalized.netlist());
        match self.store().insert(
            key.clone(),
            CacheValue::Detailed {
                artifact: dp.clone(),
                config,
            },
            bytes,
        ) {
            CacheValue::Detailed { artifact, .. } => artifact,
            _ => dp,
        }
    }

    /// Executes a batch with admission control and a self-scheduling fan-out:
    /// one `Result` per request, **in request order**, identical for every
    /// worker count.
    ///
    /// Requests beyond the admission bound are refused with
    /// [`ServeError::QueueFull`] without being started; admitted requests run
    /// on `threads` workers that each claim the next unstarted request
    /// ([`qgdp_metrics::parallel_try_map`]), each request's panic contained to
    /// its own slot.
    #[must_use]
    pub fn run_batch(
        &self,
        requests: &[JobRequest],
        threads: usize,
    ) -> Vec<Result<FlowArtifact, ServeError>> {
        let admitted = requests.len().min(self.queue_depth);
        let mut results: Vec<Result<FlowArtifact, ServeError>> =
            parallel_try_map(&requests[..admitted], threads, |req| self.execute(req))
                .into_iter()
                .map(|slot| match slot {
                    Ok(outcome) => outcome,
                    Err(panic_msg) => Err(ServeError::Worker(panic_msg)),
                })
                .collect();
        for position in admitted..requests.len() {
            results.push(Err(ServeError::QueueFull {
                depth: self.queue_depth,
                position,
            }));
        }
        results
    }

    /// Clears every cached artifact (counters survive).
    ///
    /// # Panics
    ///
    /// Panics if the store mutex was poisoned (see [`ServeEngine::store_stats`]).
    pub fn clear(&self) {
        self.store().clear();
    }

    /// Exports the cache as a persistable [`Snapshot`].
    ///
    /// Artifacts are grouped per session identity; a cached detailed placement
    /// drags its legalized parent into the snapshot (restore needs the chain),
    /// and GP state is only exported when it was actually computed — export
    /// never runs a placer.
    ///
    /// # Panics
    ///
    /// Panics if the store mutex was poisoned (see [`ServeEngine::store_stats`]).
    #[must_use]
    pub fn export_snapshot(&self) -> Snapshot {
        // Keyed by session content identity so grouping is deterministic.
        let mut groups: BTreeMap<ArtifactKey, SessionSnapshot> = BTreeMap::new();
        let store = self.store();
        store.for_each(|_, value| match value {
            CacheValue::Session(session) => {
                let group = session_group(&mut groups, session.topology(), session.config());
                if group.gp.is_none() {
                    group.gp = session.cached_global().map(|gp| gp_snapshot(&gp));
                }
            }
            CacheValue::Legalized(cell) => {
                let group = session_group(&mut groups, cell.topology(), cell.config());
                add_legalized(group, cell);
            }
            CacheValue::Detailed { artifact, config } => {
                let cell = artifact.legalized();
                let group = session_group(&mut groups, cell.topology(), cell.config());
                add_legalized(group, cell);
                group.detailed.push(DetailedSnapshot {
                    strategy: artifact.strategy(),
                    detail: *config,
                    placement: to_data(artifact.placement()),
                    windows_processed: artifact.windows_processed() as u64,
                    windows_accepted: artifact.windows_accepted() as u64,
                    elapsed_ns: artifact.elapsed().as_nanos() as u64,
                });
            }
        });
        drop(store);
        Snapshot {
            sessions: groups.into_values().collect(),
        }
    }

    /// Rehydrates a snapshot into the cache: sessions are rebuilt (netlist
    /// constructed once, GP cache seeded from the persisted run), legalized and
    /// detailed artifacts are restored without re-running any placer, and every
    /// entry is published under its content identity.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Restore`] when a session's placement data is
    /// inconsistent with the netlist its topology and config produce, and
    /// [`ServeError::Flow`] when a netlist cannot be rebuilt at all.  Entries
    /// restored before the failure remain cached.
    pub fn restore_snapshot(&self, snapshot: &Snapshot) -> Result<RestoreStats, ServeError> {
        let mut stats = RestoreStats::default();
        for entry in &snapshot.sessions {
            if !entry.config.is_cacheable() {
                // Fault-injected configs are never cached, so a well-formed
                // snapshot cannot contain one; refuse rather than cache it now.
                return Err(ServeError::Restore(
                    "snapshot contains a fault-injected configuration".into(),
                ));
            }
            let topology = Arc::new(entry.topology.clone());
            let session = Session::over(Arc::clone(&topology), entry.config)?;
            let session_key = ArtifactKey::session(&topology, &entry.config);
            let session_bytes = session_value_bytes(session.netlist());
            let session = match self.store().insert(
                session_key.clone(),
                CacheValue::Session(session.clone()),
                session_bytes,
            ) {
                CacheValue::Session(winner) => winner,
                _ => session,
            };
            stats.sessions += 1;

            let Some(gp_snap) = &entry.gp else {
                continue;
            };
            let die = Rect::from_lower_left(gp_snap.die.0, gp_snap.die.1, gp_snap.die.2);
            let gp_placement = from_data(session.netlist(), &gp_snap.placement)?;
            let gp = session.restore_global(
                die,
                gp_placement,
                gp_snap.stats,
                Duration::from_nanos(gp_snap.elapsed_ns),
            );

            for leg in &entry.legalized {
                let qubit = from_data(session.netlist(), &leg.qubit_placement)?;
                let cell = from_data(session.netlist(), &leg.cell_placement)?;
                let restored = gp.restore_legalized(
                    leg.strategy,
                    qubit,
                    Duration::from_nanos(leg.qubit_ns),
                    cell,
                    Duration::from_nanos(leg.cell_ns),
                );
                let key = session_key.for_strategy(leg.strategy);
                let bytes = legalized_value_bytes(session.netlist());
                let restored = match self.store().insert(
                    key.clone(),
                    CacheValue::Legalized(restored.clone()),
                    bytes,
                ) {
                    CacheValue::Legalized(winner) => winner,
                    _ => restored,
                };
                stats.legalized += 1;

                for det in entry.detailed.iter().filter(|d| d.strategy == leg.strategy) {
                    let placement = from_data(session.netlist(), &det.placement)?;
                    let artifact = restored.restore_detailed(
                        placement,
                        det.windows_processed as usize,
                        det.windows_accepted as usize,
                        Duration::from_nanos(det.elapsed_ns),
                    );
                    let bytes = detailed_value_bytes(session.netlist());
                    self.store().insert(
                        key.for_detail(&det.detail),
                        CacheValue::Detailed {
                            artifact,
                            config: det.detail,
                        },
                        bytes,
                    );
                    stats.detailed += 1;
                }
            }
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot;
    use qgdp_topology::StandardTopology;

    fn grid_request(seed: u64, strategy: LegalizationStrategy) -> JobRequest {
        JobRequest {
            topology: Arc::new(StandardTopology::Grid.build()),
            config: FlowConfig::default().with_seed(seed),
            strategy,
            detail: None,
        }
    }

    fn placement_of(artifact: &FlowArtifact) -> &Placement {
        match artifact {
            FlowArtifact::Legalized(cell) => cell.placement(),
            FlowArtifact::Detailed(dp) => dp.placement(),
        }
    }

    #[test]
    fn warm_hits_are_pointer_equal_and_bit_identical() {
        let engine = ServeEngine::new(StoreConfig::default(), 64);
        let req = grid_request(3, LegalizationStrategy::Qgdp);
        let cold = engine.execute(&req).unwrap();
        let warm = engine.execute(&req).unwrap();
        // The placements live behind shared `Arc`s: a warm hit hands back the
        // same allocation, so plain address equality is the witness.
        assert!(
            std::ptr::eq(placement_of(&cold), placement_of(&warm)),
            "warm hit must share the cold artifact's placement allocation"
        );
        assert_eq!(
            qgdp::placement_fingerprint(placement_of(&cold)),
            qgdp::placement_fingerprint(placement_of(&warm))
        );
        let stats = engine.store_stats();
        assert!(stats.hits >= 2, "warm run should hit session + legalized");
    }

    #[test]
    fn fault_injected_requests_never_touch_the_cache() {
        let engine = ServeEngine::new(StoreConfig::default(), 64);
        let mut req = grid_request(3, LegalizationStrategy::Qgdp);
        req.config = req.config.with_fault_injection(qgdp::FaultInjection {
            panic_in_legalization: Some(LegalizationStrategy::Qgdp),
            ..Default::default()
        });
        let out = engine.execute(&req);
        assert!(matches!(
            out,
            Err(ServeError::Flow(FlowError::Worker { .. }))
        ));
        assert_eq!(engine.cached_artifacts(), 0, "fault path must not cache");
        let stats = engine.store_stats();
        assert_eq!(stats.hits + stats.misses, 0, "fault path must not probe");
    }

    #[test]
    fn queue_admission_rejects_overflow_in_position_order() {
        let engine = ServeEngine::new(StoreConfig::default(), 2);
        let reqs: Vec<JobRequest> = (0..4)
            .map(|_| grid_request(3, LegalizationStrategy::Qgdp))
            .collect();
        let results = engine.run_batch(&reqs, 2);
        assert_eq!(results.len(), 4);
        assert!(results[0].is_ok() && results[1].is_ok());
        for (i, r) in results.iter().enumerate().skip(2) {
            match r {
                Err(ServeError::QueueFull { depth, position }) => {
                    assert_eq!((*depth, *position), (2, i));
                }
                other => panic!("expected QueueFull at {i}, got {other:?}"),
            }
        }
    }

    #[test]
    fn snapshot_round_trip_restores_bit_identical_artifacts() {
        let engine = ServeEngine::new(StoreConfig::default(), 64);
        let mut req = grid_request(3, LegalizationStrategy::Qgdp);
        req.detail = Some(DetailedPlacerConfig::new());
        let original = engine.execute(&req).unwrap();
        let snap = engine.export_snapshot();
        let bytes = snapshot::encode(&snap);

        let restored_engine = ServeEngine::new(StoreConfig::default(), 64);
        let stats = restored_engine
            .restore_snapshot(&snapshot::decode(&bytes).unwrap())
            .unwrap();
        assert_eq!((stats.sessions, stats.legalized, stats.detailed), (1, 1, 1));

        let served = restored_engine.execute(&req).unwrap();
        assert_eq!(
            qgdp::placement_fingerprint(placement_of(&original)),
            qgdp::placement_fingerprint(placement_of(&served)),
        );
        // The restored artifact must have been served from cache, not recomputed.
        let s = restored_engine.store_stats();
        assert_eq!(s.misses, 0, "restored cache should serve without misses");
        // And its lazily-recomputed report must match the live one bit for bit.
        let (FlowArtifact::Detailed(live), FlowArtifact::Detailed(back)) = (&original, &served)
        else {
            panic!("expected detailed artifacts");
        };
        assert_eq!(live.report(), back.report());
        assert_eq!(live.elapsed(), back.elapsed(), "persisted stage timing");
    }

    #[test]
    fn export_is_deterministic_regardless_of_insertion_order() {
        let forward = ServeEngine::new(StoreConfig::default(), 64);
        let backward = ServeEngine::new(StoreConfig::default(), 64);
        let reqs = [
            grid_request(3, LegalizationStrategy::Qgdp),
            grid_request(3, LegalizationStrategy::Tetris),
            grid_request(9, LegalizationStrategy::Abacus),
        ];
        for r in &reqs {
            forward.execute(r).unwrap();
        }
        for r in reqs.iter().rev() {
            backward.execute(r).unwrap();
        }
        // Stage timings are wall-clock and differ between live runs; zero them
        // so the comparison isolates the canonical ordering contract.
        let normalized = |engine: &ServeEngine| {
            let mut snap = engine.export_snapshot();
            for session in &mut snap.sessions {
                if let Some(gp) = &mut session.gp {
                    gp.elapsed_ns = 0;
                }
                for l in &mut session.legalized {
                    l.qubit_ns = 0;
                    l.cell_ns = 0;
                }
                for d in &mut session.detailed {
                    d.elapsed_ns = 0;
                }
            }
            snapshot::encode(&snap)
        };
        assert_eq!(normalized(&forward), normalized(&backward));
    }
}
