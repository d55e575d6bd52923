//! Detailed placement (paper §III-E, Algorithm 2).
//!
//! The detailed placer never moves qubits.  It scans the legalized layout for
//! *non-unified* resonators (more than one wire-block cluster) and resonators involved
//! in *frequency hotspots*, builds a processing window around each problematic
//! resonator and its neighbours, rips the window's wire blocks up and re-places each
//! resonator along a maze-routed path of free bins between its two endpoint qubits.
//! The window is accepted only if neither the cluster count nor the hotspot measure
//! got worse — otherwise the previous positions are restored, exactly the guard of
//! Algorithm 2.
//!
//! One engine runs every window: a single [`ReportDelta`] is built from the
//! legalized layout, each pass reads its problem set from it, every rerouted window
//! is mirrored into it before it is scored, and a rejected window is reverted
//! through it (a revert is just a move back).  The final delta state is the
//! refined layout's [`LayoutScan`], handed out with the placement.
//!
//! # Acceptance guards
//!
//! [`DetailedPlacerConfig::fidelity_guided`] picks the guard a window is scored on:
//!
//! - **off** (default): the window-local triple of Algorithm 2 — the cluster count
//!   of the window's resonators, the Eq. 4 hotspot numerator over violations that
//!   touch a window wire block, and the crossings of resonator pairs that touch the
//!   window;
//! - **on**: the global `(cluster count, crossing count, crosstalk cost)` triple,
//!   which prices violations and crossings with the Eq. 8 physics the fidelity
//!   model uses.

use qgdp_geometry::{BinGrid, BinId, BinState, Point, Rect};
use qgdp_metrics::{CrosstalkConfig, CrosstalkModel, LayoutScan, ReportDelta};
use qgdp_netlist::{ComponentId, Placement, QuantumNetlist, ResonatorId, SegmentId};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Exposure time (ns) at which the fidelity-guided mode prices crosstalk: the order
/// of a deep benchmark's schedule makespan, so the Eq. 8 error terms are weighted as
/// the fidelity model would weight them.
const GUIDED_EXPOSURE_NS: f64 = 10_000.0;

/// Slack on the window-local hotspot measure, which sums floating-point
/// contributions; the global crosstalk cost is compared exactly.
const LOCAL_HOTSPOT_TOLERANCE: f64 = 1e-12;

/// Window blocks and their positions before a reroute, in window order
/// (resonators ascending, each resonator's segments in order).
type Snapshot = Vec<(SegmentId, Point)>;

/// Configuration of the detailed placer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetailedPlacerConfig {
    /// Margin added around the problematic resonator's bounding box when building the
    /// processing window, in wire-block units.
    pub window_margin_cells: f64,
    /// Maximum number of windows processed over all passes (a safety bound; the
    /// default is high enough that every problematic resonator is visited).
    pub max_windows: usize,
    /// Number of refinement passes over the problem list.
    pub passes: usize,
    /// Crosstalk thresholds used to detect hotspots.
    pub crosstalk: CrosstalkConfig,
    /// Picks the acceptance guard: **off** (default) scores a window on Algorithm
    /// 2's window-local cluster, hotspot and crossing measures; **on** scores it
    /// on the global `(clusters, crossings, crosstalk cost)` objective.  Both
    /// guards run on the same engine.
    pub fidelity_guided: bool,
}

impl DetailedPlacerConfig {
    /// The default configuration (4-cell margin, 2 passes, fidelity guidance off).
    #[must_use]
    pub fn new() -> Self {
        DetailedPlacerConfig {
            window_margin_cells: 4.0,
            max_windows: 4096,
            passes: 2,
            crosstalk: CrosstalkConfig::default(),
            fidelity_guided: false,
        }
    }

    /// Toggles [`DetailedPlacerConfig::fidelity_guided`] (builder style).
    #[must_use]
    pub fn with_fidelity_guided(mut self, enabled: bool) -> Self {
        self.fidelity_guided = enabled;
        self
    }
}

impl Default for DetailedPlacerConfig {
    fn default() -> Self {
        DetailedPlacerConfig::new()
    }
}

/// The result of a detailed-placement pass.
#[derive(Debug, Clone, PartialEq)]
pub struct DetailedPlacementOutcome {
    /// The refined placement (qubits identical to the input).
    pub placement: Placement,
    /// Number of processing windows examined.
    pub windows_processed: usize,
    /// Number of windows whose re-placement was accepted.
    pub windows_accepted: usize,
    /// The layout scan of `placement` under the placer's
    /// [`DetailedPlacerConfig::crosstalk`] — equal to a from-scratch
    /// [`LayoutScan::scan`].
    pub scan: LayoutScan,
}

/// The qGDP detailed placer (Algorithm 2).
#[derive(Debug, Clone, Default)]
pub struct DetailedPlacer {
    config: DetailedPlacerConfig,
}

impl DetailedPlacer {
    /// Creates a detailed placer with the default configuration.
    #[must_use]
    pub fn new() -> Self {
        DetailedPlacer {
            config: DetailedPlacerConfig::default(),
        }
    }

    /// Creates a detailed placer with an explicit configuration.
    #[must_use]
    pub fn with_config(config: DetailedPlacerConfig) -> Self {
        DetailedPlacer { config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &DetailedPlacerConfig {
        &self.config
    }

    /// Runs detailed placement on `legalized` and returns the refined layout.
    ///
    /// The input must already be legal (no overlaps); the output preserves legality,
    /// never moves qubits, and never regresses the guard's objective.
    #[must_use]
    pub fn place(
        &self,
        netlist: &QuantumNetlist,
        die: &Rect,
        legalized: &Placement,
    ) -> DetailedPlacementOutcome {
        let mut placement = legalized.clone();
        let mut delta = ReportDelta::new(netlist, &placement, &self.config.crosstalk);
        let mut processed = 0usize;
        let mut accepted = 0usize;

        for _ in 0..self.config.passes {
            let budget = self.config.max_windows - processed;
            if budget == 0 {
                break;
            }
            let problems = problem_resonators(netlist, &delta);
            if problems.is_empty() {
                break;
            }
            for &resonator in problems.iter().take(budget) {
                processed += 1;
                if self.optimize_window(netlist, die, &mut placement, &mut delta, resonator) {
                    accepted += 1;
                }
            }
        }

        DetailedPlacementOutcome {
            scan: delta.to_scan(),
            placement,
            windows_processed: processed,
            windows_accepted: accepted,
        }
    }

    /// The window around `resonator` — the problem resonator plus every resonator
    /// with at least one block inside the inflated bounding box of its blocks and
    /// endpoint qubits — and a rollback snapshot of all window blocks.
    fn build_window(
        &self,
        netlist: &QuantumNetlist,
        placement: &Placement,
        resonator: ResonatorId,
    ) -> Option<(BTreeSet<ResonatorId>, Snapshot)> {
        let lb = netlist.geometry().wire_block_size;
        let margin = self.config.window_margin_cells * lb;

        let res = netlist.resonator(resonator);
        let (qa, qb) = res.endpoints();
        let mut rects: Vec<Rect> = res
            .segments()
            .iter()
            .map(|&s| placement.rect(netlist, ComponentId::Segment(s)))
            .collect();
        rects.push(placement.rect(netlist, ComponentId::Qubit(qa)));
        rects.push(placement.rect(netlist, ComponentId::Qubit(qb)));
        let bbox = Rect::bounding_box(rects.iter())?;
        let window = bbox.inflated(margin);

        let mut window_resonators: BTreeSet<ResonatorId> = BTreeSet::new();
        window_resonators.insert(resonator);
        for r in netlist.resonator_ids() {
            if netlist
                .resonator(r)
                .segments()
                .iter()
                .any(|&s| window.contains_point(placement.segment(s)))
            {
                window_resonators.insert(r);
            }
        }

        let snapshot: Snapshot = window_resonators
            .iter()
            .flat_map(|&r| netlist.resonator(r).segments().iter().copied())
            .map(|s| (s, placement.segment(s)))
            .collect();
        Some((window_resonators, snapshot))
    }

    /// Rips up the window's blocks and re-places each window resonator along a
    /// maze-routed path (the problem resonator first).  Returns `false` when any
    /// resonator could not be placed; the caller reverts from its snapshot.
    fn reroute_window(
        &self,
        netlist: &QuantumNetlist,
        die: &Rect,
        placement: &mut Placement,
        window_resonators: &BTreeSet<ResonatorId>,
        resonator: ResonatorId,
    ) -> bool {
        let lb = netlist.geometry().wire_block_size;

        // Occupancy grid: qubits and all blocks outside the window resonators are fixed.
        let mut grid = BinGrid::new(die, lb);
        for q in netlist.qubit_ids() {
            grid.block_rect(&netlist.qubit(q).rect_at(placement.qubit(q)));
        }
        for s in netlist.segment_ids() {
            if !window_resonators.contains(&netlist.block(s).resonator()) {
                if let Some(bin) = grid.bin_at(placement.segment(s)) {
                    grid.set_state(bin, BinState::Occupied);
                }
            }
        }

        // Re-place the problem resonator first, then its window neighbours.
        let mut order: Vec<ResonatorId> = vec![resonator];
        order.extend(
            window_resonators
                .iter()
                .copied()
                .filter(|&r| r != resonator),
        );
        for r in order {
            if !self.reroute_resonator(netlist, &mut grid, placement, r) {
                return false;
            }
        }
        true
    }

    /// Processes one window centred on `resonator`: score it, reroute it, mirror
    /// the moved blocks into `delta`, score it again, then keep the reroute or
    /// revert it (Algorithm 2, lines 7–9).  Returns `true` if it was accepted.
    fn optimize_window(
        &self,
        netlist: &QuantumNetlist,
        die: &Rect,
        placement: &mut Placement,
        delta: &mut ReportDelta<'_>,
        resonator: ResonatorId,
    ) -> bool {
        let Some((window_resonators, snapshot)) = self.build_window(netlist, placement, resonator)
        else {
            return false;
        };

        let before = self.score(netlist, delta, &window_resonators);
        let rerouted = self.reroute_window(netlist, die, placement, &window_resonators, resonator);
        let moved: Snapshot = snapshot
            .into_iter()
            .filter(|&(s, old)| placement.segment(s) != old)
            .collect();
        if !rerouted {
            // The delta never saw these moves, so only the placement is restored.
            for (s, old) in moved {
                placement.set_segment(s, old);
            }
            return false;
        }

        for &(s, _) in &moved {
            delta.apply_move(ComponentId::Segment(s), placement.segment(s));
        }
        let ((c0, h0, x0), (c1, h1, x1)) = (before, self.score(netlist, delta, &window_resonators));
        let tolerance = if self.config.fidelity_guided {
            0.0
        } else {
            LOCAL_HOTSPOT_TOLERANCE
        };
        // Not worse in any term, and strictly better in at least one.
        let accept = (c1 <= c0 && h1 <= h0 + tolerance && x1 <= x0)
            && (c1 < c0 || h1 < h0 - tolerance || x1 < x0);
        if !accept {
            for (s, old) in moved {
                delta.apply_move(ComponentId::Segment(s), old);
                placement.set_segment(s, old);
            }
        }
        accept
    }

    /// The guard's `(clusters, hotspot measure or crosstalk cost, crossings)`
    /// triple for the window over `window_resonators`, read from `delta` (see the
    /// [module docs](self)); lower is better in every term.  Every sum runs in the
    /// from-scratch scans' order, so each reading carries their bits.
    fn score(
        &self,
        netlist: &QuantumNetlist,
        delta: &ReportDelta<'_>,
        window_resonators: &BTreeSet<ResonatorId>,
    ) -> (usize, f64, usize) {
        if self.config.fidelity_guided {
            return (
                delta.total_clusters(),
                delta.crosstalk_cost(&CrosstalkModel::default(), GUIDED_EXPOSURE_NS),
                delta.crossing_count(),
            );
        }
        let in_window = |id: ComponentId| match id {
            ComponentId::Segment(s) => window_resonators.contains(&netlist.block(s).resonator()),
            ComponentId::Qubit(_) => false,
        };
        (
            window_resonators
                .iter()
                .map(|&r| delta.cluster_count(r))
                .sum(),
            delta
                .violations()
                .filter(|v| in_window(v.a) || in_window(v.b))
                .map(|v| v.adjacency_length * v.centroid_distance)
                .sum(),
            delta
                .crossing_pairs()
                .filter(|(a, b, _)| window_resonators.contains(a) || window_resonators.contains(b))
                .map(|(_, _, n)| n)
                .sum(),
        )
    }

    /// Re-places one resonator's blocks along a maze-routed path of free bins between
    /// its endpoint qubits.  Returns `false` when not enough free bins exist.
    fn reroute_resonator(
        &self,
        netlist: &QuantumNetlist,
        grid: &mut BinGrid,
        placement: &mut Placement,
        resonator: ResonatorId,
    ) -> bool {
        let res = netlist.resonator(resonator);
        let (qa, qb) = res.endpoints();
        let n = res.num_segments();
        if n == 0 {
            return true;
        }
        let start = nearest_free_bin(grid, placement.qubit(qa));
        let goal = nearest_free_bin(grid, placement.qubit(qb));
        let (Some(start), Some(goal)) = (start, goal) else {
            return false;
        };

        // Maze route (BFS over free bins).
        let path = bfs_path(grid, start, goal);
        let mut chosen: Vec<BinId> = match path {
            Some(path) if path.len() >= n => {
                // Take the n bins centred on the middle of the path so the reserved
                // area sits between the two qubits.
                let skip = (path.len() - n) / 2;
                path.into_iter().skip(skip).take(n).collect()
            }
            Some(path) => path,
            None => vec![start],
        };
        // Grow with free neighbours until we have n bins.
        if chosen.len() < n {
            let mut seen: BTreeSet<BinId> = chosen.iter().copied().collect();
            let mut queue: VecDeque<BinId> = chosen.iter().copied().collect();
            while chosen.len() < n {
                let Some(bin) = queue.pop_front() else { break };
                for nb in grid.neighbors4(bin) {
                    if grid.state(nb) == BinState::Free && seen.insert(nb) {
                        chosen.push(nb);
                        queue.push_back(nb);
                        if chosen.len() == n {
                            break;
                        }
                    }
                }
            }
        }
        if chosen.len() < n {
            return false;
        }
        for (&s, &bin) in res.segments().iter().zip(chosen.iter()) {
            placement.set_segment(s, grid.bin_center(bin));
            grid.set_state(bin, BinState::Occupied);
        }
        true
    }
}

/// The `E_c ∪ E_h` set of Algorithm 2, read from `delta`: non-unified resonators
/// plus resonators involved in at least one spatial violation, ascending.
fn problem_resonators(netlist: &QuantumNetlist, delta: &ReportDelta<'_>) -> Vec<ResonatorId> {
    let mut set: BTreeSet<ResonatorId> = netlist
        .resonator_ids()
        .filter(|&r| delta.cluster_count(r) > 1)
        .collect();
    for v in delta.violations() {
        for id in [v.a, v.b] {
            if let ComponentId::Segment(s) = id {
                set.insert(netlist.block(s).resonator());
            }
        }
    }
    set.into_iter().collect()
}

/// The free bin nearest to `point` (linear scan; windows are small so this is cheap
/// relative to the BFS that follows).
fn nearest_free_bin(grid: &BinGrid, point: Point) -> Option<BinId> {
    grid.bins_in_state(BinState::Free)
        .map(|b| (grid.bin_center(b).distance_squared(point), b))
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
        .map(|(_, b)| b)
}

/// Breadth-first maze route over free bins from `start` to `goal` (4-connected).
fn bfs_path(grid: &BinGrid, start: BinId, goal: BinId) -> Option<Vec<BinId>> {
    if start == goal {
        return Some(vec![start]);
    }
    let mut parent: HashMap<BinId, BinId> = HashMap::new();
    let mut queue = VecDeque::from([start]);
    parent.insert(start, start);
    while let Some(bin) = queue.pop_front() {
        for n in grid.neighbors4(bin) {
            if grid.state(n) != BinState::Free || parent.contains_key(&n) {
                continue;
            }
            parent.insert(n, bin);
            if n == goal {
                // Reconstruct.
                let mut path = vec![n];
                let mut cur = n;
                while cur != start {
                    cur = parent[&cur];
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            queue.push_back(n);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        FlowConfig, LegalizationStrategy, QuantumQubitLegalizer, ResonatorLegalizer, Session,
    };
    use qgdp_legalize::{is_legal, CellLegalizer as _, QubitLegalizer as _};
    use qgdp_metrics::LayoutReport;
    use qgdp_netlist::{ClusterReport, ComponentGeometry, NetModel};
    use qgdp_placer::{GlobalPlacer, GlobalPlacerConfig};
    use qgdp_topology::StandardTopology;

    fn legalized(topology: StandardTopology) -> (QuantumNetlist, Rect, Placement) {
        let topo = topology.build();
        let netlist = topo
            .to_netlist(ComponentGeometry::default(), NetModel::Pseudo)
            .unwrap();
        let gp = GlobalPlacer::new(GlobalPlacerConfig::default().with_iterations(50))
            .place(&netlist, &topo);
        let qubits = QuantumQubitLegalizer::new()
            .legalize_qubits(&netlist, &gp.die, &gp.placement)
            .unwrap();
        let legal = ResonatorLegalizer::new()
            .legalize_cells(&netlist, &gp.die, &qubits)
            .unwrap();
        (netlist, gp.die, legal)
    }

    #[test]
    fn output_remains_legal_and_qubits_fixed() {
        let (netlist, die, legal) = legalized(StandardTopology::Grid);
        let outcome = DetailedPlacer::new().place(&netlist, &die, &legal);
        assert!(is_legal(&netlist, &die, &outcome.placement));
        for q in netlist.qubit_ids() {
            assert_eq!(outcome.placement.qubit(q), legal.qubit(q));
        }
    }

    #[test]
    fn never_regresses_cluster_count_or_hotspots() {
        for topology in [StandardTopology::Grid, StandardTopology::Aspen11] {
            let (netlist, die, legal) = legalized(topology);
            let cfg = CrosstalkConfig::default();
            let before = LayoutReport::evaluate(&netlist, &legal, &cfg);
            let outcome = DetailedPlacer::new().place(&netlist, &die, &legal);
            let after = LayoutReport::evaluate(&netlist, &outcome.placement, &cfg);
            assert!(
                after.total_clusters <= before.total_clusters,
                "{topology:?}: clusters regressed {} -> {}",
                before.total_clusters,
                after.total_clusters
            );
            assert!(
                after.hotspot_proportion_percent <= before.hotspot_proportion_percent + 1e-9,
                "{topology:?}: hotspots regressed"
            );
            assert!(after.unified_resonators >= before.unified_resonators);
        }
    }

    #[test]
    fn fidelity_guided_defaults_off_and_off_path_is_unchanged() {
        let config = DetailedPlacerConfig::new();
        assert!(!config.fidelity_guided);
        assert!(
            DetailedPlacerConfig::new()
                .with_fidelity_guided(true)
                .fidelity_guided
        );
        // An explicitly-off config picks the window-local guard and matches the
        // default placer exactly.
        let (netlist, die, legal) = legalized(StandardTopology::Grid);
        let default_outcome = DetailedPlacer::new().place(&netlist, &die, &legal);
        let off_outcome =
            DetailedPlacer::with_config(DetailedPlacerConfig::new().with_fidelity_guided(false))
                .place(&netlist, &die, &legal);
        assert_eq!(default_outcome, off_outcome);
    }

    #[test]
    fn fidelity_guided_mode_is_legal_and_never_regresses() {
        for topology in [StandardTopology::Grid, StandardTopology::Aspen11] {
            let (netlist, die, legal) = legalized(topology);
            let config = DetailedPlacerConfig::new().with_fidelity_guided(true);
            let outcome = DetailedPlacer::with_config(config).place(&netlist, &die, &legal);
            assert!(
                is_legal(&netlist, &die, &outcome.placement),
                "{topology:?}: guided output must stay legal"
            );
            for q in netlist.qubit_ids() {
                assert_eq!(outcome.placement.qubit(q), legal.qubit(q));
            }
            assert!(outcome.windows_accepted <= outcome.windows_processed);
            // The guided guard: clusters, crossings and crosstalk cost never regress.
            let cfg = CrosstalkConfig::default();
            let model = CrosstalkModel::default();
            let before = ReportDelta::new(&netlist, &legal, &cfg);
            let after = ReportDelta::new(&netlist, &outcome.placement, &cfg);
            assert!(
                after.total_clusters() <= before.total_clusters(),
                "{topology:?}: clusters regressed {} -> {}",
                before.total_clusters(),
                after.total_clusters()
            );
            assert!(after.crossing_count() <= before.crossing_count());
            assert!(
                after.crosstalk_cost(&model, GUIDED_EXPOSURE_NS)
                    <= before.crosstalk_cost(&model, GUIDED_EXPOSURE_NS),
                "{topology:?}: crosstalk cost regressed"
            );
        }
    }

    #[test]
    fn outcome_scan_is_the_from_scratch_scan_of_the_output() {
        let (netlist, die, legal) = legalized(StandardTopology::Grid);
        for guided in [false, true] {
            let config = DetailedPlacerConfig::new().with_fidelity_guided(guided);
            let outcome = DetailedPlacer::with_config(config).place(&netlist, &die, &legal);
            assert_eq!(
                outcome.scan,
                LayoutScan::scan(&netlist, &outcome.placement, &config.crosstalk),
                "guided={guided}"
            );
        }
    }

    #[test]
    fn window_cap_ends_every_pass() {
        let topo = StandardTopology::Grid.build();
        let session = Session::new(&topo, FlowConfig::default().with_seed(7)).unwrap();
        let cell = session
            .global_place()
            .legalize(LegalizationStrategy::QTetris)
            .unwrap();
        let place = |max_windows| {
            let config = DetailedPlacerConfig {
                max_windows,
                ..DetailedPlacerConfig::new()
            };
            DetailedPlacer::with_config(config).place(cell.netlist(), &cell.die(), cell.placement())
        };
        assert_eq!(place(4096).windows_processed, 61);
        let none = place(0);
        assert_eq!(none.windows_processed, 0);
        assert_eq!(none.windows_accepted, 0);
        assert_eq!(&none.placement, cell.placement());
        assert_eq!(place(3).windows_processed, 3);
    }

    #[test]
    fn clean_layout_is_left_untouched() {
        // Build a layout that is already perfect: every resonator unified, no hotspots.
        let (netlist, die, legal) = legalized(StandardTopology::Grid);
        let report = ClusterReport::analyze(&netlist, &legal);
        let outcome = DetailedPlacer::new().place(&netlist, &die, &legal);
        if report.non_unified().is_empty() && outcome.windows_processed == 0 {
            assert_eq!(outcome.placement, legal);
        }
        // Either way the accepted count never exceeds the processed count.
        assert!(outcome.windows_accepted <= outcome.windows_processed);
    }

    #[test]
    fn bfs_path_finds_shortest_route() {
        let die = Rect::from_lower_left(Point::ORIGIN, 50.0, 50.0);
        let mut grid = BinGrid::new(&die, 10.0);
        // Block the middle column except the top row.
        for row in 0..4 {
            let bin = grid.bin_id(2, row).unwrap();
            grid.set_state(bin, BinState::Blocked);
        }
        let start = grid.bin_id(0, 0).unwrap();
        let goal = grid.bin_id(4, 0).unwrap();
        let path = bfs_path(&grid, start, goal).expect("a detour exists");
        assert_eq!(path.first(), Some(&start));
        assert_eq!(path.last(), Some(&goal));
        // Detour over the top row: 4 right + 4 up/down somewhere = 13 bins total.
        assert_eq!(path.len(), 13);
        // Consecutive bins are 4-neighbours.
        for w in path.windows(2) {
            assert!(grid.neighbors4(w[0]).contains(&w[1]));
        }
    }

    #[test]
    fn bfs_path_returns_none_when_walled_off() {
        let die = Rect::from_lower_left(Point::ORIGIN, 50.0, 50.0);
        let mut grid = BinGrid::new(&die, 10.0);
        for row in 0..5 {
            let bin = grid.bin_id(2, row).unwrap();
            grid.set_state(bin, BinState::Blocked);
        }
        let start = grid.bin_id(0, 0).unwrap();
        let goal = grid.bin_id(4, 0).unwrap();
        assert!(bfs_path(&grid, start, goal).is_none());
        assert_eq!(bfs_path(&grid, start, start), Some(vec![start]));
    }

    #[test]
    fn nearest_free_bin_prefers_closest() {
        let die = Rect::from_lower_left(Point::ORIGIN, 30.0, 30.0);
        let mut grid = BinGrid::new(&die, 10.0);
        grid.set_state(grid.bin_id(0, 0).unwrap(), BinState::Blocked);
        let b = nearest_free_bin(&grid, Point::new(0.0, 0.0)).unwrap();
        // The blocked origin bin is skipped; one of its neighbours is returned.
        assert!(grid.neighbors8(grid.bin_id(0, 0).unwrap()).contains(&b));
    }
}
