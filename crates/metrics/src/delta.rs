//! Incremental (delta) layout reports for move-based optimisation loops.
//!
//! The detailed placer (Algorithm 2) scores thousands of candidate layouts that each
//! differ from the previous one by a handful of single-component moves.  Re-running
//! [`LayoutReport::evaluate`] from scratch per candidate re-walks every resonator
//! pair and every component pair; [`ReportDelta`] instead maintains the violation
//! set, the crossing set, the per-resonator cluster counts and the per-net HPWL
//! *incrementally* under [`ReportDelta::apply_move`], touching only the components,
//! routes and nets a move can actually affect.
//!
//! # Bit-identity contract
//!
//! After any sequence of moves, [`ReportDelta::report`] is **bit-identical** to a
//! from-scratch [`LayoutReport::evaluate`] of the same placement, and
//! [`ReportDelta::hpwl`] to `qgdp_placer::hpwl`.  This works because the engine
//! never keeps running floating-point totals (adding and subtracting contributions
//! would drift in the low-order bits): it maintains the *discrete* metric inputs —
//! violations in a map keyed by component pair, crossings keyed by resonator pair,
//! cluster counts per resonator, HPWL per net — and re-sums the `f64` aggregates in
//! the same canonical order as the from-scratch path at read time.  Each stored
//! entry is computed with exactly the operand order of its reference
//! ([`find_violations`], [`crate::crossing_pairs`], the placer's `hpwl`), so the
//! entries themselves carry identical bits.
//!
//! Following the `DensityGrid` house pattern, debug builds re-derive everything from
//! scratch every [`DEBUG_REBUILD_INTERVAL`] applications and assert the incremental
//! state matches — release builds skip the check.

use crate::hotspot::hotspot_proportion_from;
use crate::{
    find_violations, hotspot_qubits, resonator_route, CrosstalkConfig, CrosstalkModel,
    LayoutReport, LayoutScan, SpatialViolation,
};
use qgdp_geometry::{Point, Polyline, Rect, SpatialGrid};
use qgdp_netlist::{
    resonator_clusters, ClusterReport, ComponentId, Frequency, Placement, QuantumNetlist,
    ResonatorId,
};
use std::collections::{BTreeMap, BTreeSet};

/// Debug builds fully rebuild and cross-check the incremental state every this many
/// applications of [`ReportDelta::apply_move`].
pub const DEBUG_REBUILD_INTERVAL: usize = 16;

/// Inflation applied to route bounding boxes before indexing them: any positive
/// slack turns the zero-measure overlap of e.g. two axis-aligned routes crossing at
/// a point into a positive-measure one, which is what [`SpatialGrid`] guarantees to
/// report.
const ROUTE_BBOX_SLACK: f64 = 1.0;

/// An incrementally-maintained layout report.
///
/// Construct once per optimisation loop with [`ReportDelta::new`], feed it every
/// component move via [`ReportDelta::apply_move`] (including reverts — a revert is
/// just a move back), and read the current metrics with [`ReportDelta::report`],
/// [`ReportDelta::hpwl`] or [`ReportDelta::crosstalk_cost`] at any point.
///
/// # Example
///
/// ```
/// use qgdp_geometry::Point;
/// use qgdp_metrics::{CrosstalkConfig, LayoutReport, ReportDelta};
/// use qgdp_netlist::{ComponentGeometry, ComponentId, NetlistBuilder, Placement, QubitId};
///
/// let netlist = NetlistBuilder::new(ComponentGeometry::default())
///     .qubits(2)
///     .couple(0, 1)
///     .build()?;
/// let mut placement = Placement::new(&netlist);
/// for (i, id) in netlist.component_ids().enumerate() {
///     placement.set_component(id, Point::new(100.0 * i as f64, 0.0));
/// }
/// let cfg = CrosstalkConfig::default();
/// let mut delta = ReportDelta::new(&netlist, &placement, &cfg);
/// delta.apply_move(ComponentId::Qubit(QubitId(0)), Point::new(50.0, 50.0));
/// placement.set_qubit(QubitId(0), Point::new(50.0, 50.0));
/// assert_eq!(delta.report(), LayoutReport::evaluate(&netlist, &placement, &cfg));
/// # Ok::<(), qgdp_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReportDelta<'a> {
    netlist: &'a QuantumNetlist,
    config: CrosstalkConfig,
    placement: Placement,
    // Per-component tables, indexed in `component_ids()` order (qubits first, then
    // segments) — which is exactly ascending `ComponentId` order.
    ids: Vec<ComponentId>,
    rects: Vec<Rect>,
    freqs: Vec<Frequency>,
    owners: Vec<Option<ResonatorId>>,
    // Cluster structure: `|C_e|` per resonator.
    cluster_counts: Vec<usize>,
    // Spatial violations, indexed by half-proximity-inflated component rectangles.
    viol_inflate: f64,
    viol_grid: SpatialGrid,
    violations: BTreeMap<(usize, usize), SpatialViolation>,
    viol_partners: Vec<BTreeSet<usize>>,
    // Crossings, indexed by slack-inflated route bounding boxes.
    routes: Vec<Polyline>,
    route_grid: SpatialGrid,
    crossings: BTreeMap<(usize, usize), usize>,
    // Per-net HPWL, in `nets()` order.
    net_hpwl: Vec<f64>,
    nets_of: Vec<Vec<u32>>,
    // Resonators incident to each qubit (whose routes a qubit move invalidates).
    incident: Vec<Vec<ResonatorId>>,
    applications: usize,
}

impl<'a> ReportDelta<'a> {
    /// Builds the incremental state from a full scan of `placement`.
    #[must_use]
    pub fn new(
        netlist: &'a QuantumNetlist,
        placement: &Placement,
        config: &CrosstalkConfig,
    ) -> Self {
        let placement = placement.clone();
        let ids: Vec<ComponentId> = netlist.component_ids().collect();
        let rects: Vec<Rect> = ids.iter().map(|&id| placement.rect(netlist, id)).collect();
        let freqs: Vec<Frequency> = ids
            .iter()
            .map(|&id| netlist.component_frequency(id))
            .collect();
        let owners: Vec<Option<ResonatorId>> =
            ids.iter().map(|&id| netlist.owning_resonator(id)).collect();

        // Violation index: same cell sizing and inflation as `find_violations`, so
        // the same coverage argument applies — a pair whose edge gap is below the
        // proximity threshold has positively-overlapping inflated rectangles.
        let viol_inflate = config.proximity_threshold * 0.5;
        let viol_cell = (config.proximity_threshold + netlist.geometry().wire_block_size).max(1.0);
        let viol_bounds = union_of(rects.iter().map(|r| r.inflated(viol_inflate)));
        let mut viol_grid = SpatialGrid::new(&viol_bounds, viol_cell, rects.len());
        for (i, r) in rects.iter().enumerate() {
            viol_grid.insert(i, &r.inflated(viol_inflate));
        }
        let mut violations = BTreeMap::new();
        let mut viol_partners = vec![BTreeSet::new(); ids.len()];
        let index_of = |id: ComponentId| match id {
            ComponentId::Qubit(q) => q.index(),
            ComponentId::Segment(s) => netlist.num_qubits() + s.index(),
        };
        for v in find_violations(netlist, &placement, config) {
            let (i, j) = (index_of(v.a), index_of(v.b));
            viol_partners[i].insert(j);
            viol_partners[j].insert(i);
            violations.insert((i, j), v);
        }

        // Crossing index over route bounding boxes.
        let routes: Vec<Polyline> = netlist
            .resonator_ids()
            .map(|r| resonator_route(netlist, &placement, r))
            .collect();
        let route_rects: Vec<Rect> = routes.iter().map(route_rect_of).collect();
        let route_bounds = union_of(route_rects.iter().copied());
        let mean_dim = if route_rects.is_empty() {
            1.0
        } else {
            route_rects
                .iter()
                .map(|r| r.width().max(r.height()))
                .sum::<f64>()
                / route_rects.len() as f64
        };
        let mut route_grid = SpatialGrid::new(&route_bounds, mean_dim.max(1.0), routes.len());
        for (i, r) in route_rects.iter().enumerate() {
            route_grid.insert(i, r);
        }
        let crossings = crate::crossing_pairs(netlist, &placement)
            .into_iter()
            .map(|(a, b, n)| ((a.index(), b.index()), n))
            .collect();

        let nets = netlist.nets();
        let mut nets_of = vec![Vec::new(); ids.len()];
        for (k, net) in nets.iter().enumerate() {
            for &pin in net.components() {
                nets_of[index_of(pin)].push(k as u32);
            }
        }
        let net_hpwl = (0..nets.len())
            .map(|k| net_hpwl_of(&placement, &nets[k]))
            .collect();

        let mut incident = vec![Vec::new(); netlist.num_qubits()];
        for r in netlist.resonator_ids() {
            let (qa, qb) = netlist.resonator(r).endpoints();
            incident[qa.index()].push(r);
            if qb != qa {
                incident[qb.index()].push(r);
            }
        }

        ReportDelta {
            netlist,
            config: *config,
            cluster_counts: ClusterReport::analyze(netlist, &placement).cluster_counts,
            placement,
            ids,
            rects,
            freqs,
            owners,
            viol_inflate,
            viol_grid,
            violations,
            viol_partners,
            routes,
            route_grid,
            crossings,
            net_hpwl,
            nets_of,
            incident,
            applications: 0,
        }
    }

    fn index_of(&self, id: ComponentId) -> usize {
        match id {
            ComponentId::Qubit(q) => q.index(),
            ComponentId::Segment(s) => self.netlist.num_qubits() + s.index(),
        }
    }

    /// The placement the delta state currently describes.
    #[must_use]
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Number of `apply_move` calls so far.
    #[must_use]
    pub fn applications(&self) -> usize {
        self.applications
    }

    /// Total cluster count `Σ_e |C_e|` (Eq. 3 objective) of the current placement.
    #[must_use]
    pub fn total_clusters(&self) -> usize {
        self.cluster_counts.iter().sum()
    }

    /// `|C_e|` of resonator `r` in the current placement.
    #[must_use]
    pub fn cluster_count(&self, r: ResonatorId) -> usize {
        self.cluster_counts[r.index()]
    }

    /// The current spatial violations, in [`find_violations`] order.
    pub fn violations(&self) -> impl Iterator<Item = &SpatialViolation> + '_ {
        self.violations.values()
    }

    /// The current crossing pairs `(a, b, count)`, in [`crate::crossing_pairs`]
    /// order.
    pub fn crossing_pairs(&self) -> impl Iterator<Item = (ResonatorId, ResonatorId, usize)> + '_ {
        self.crossings
            .iter()
            .map(|(&(a, b), &n)| (ResonatorId(a), ResonatorId(b), n))
    }

    /// Total crossing count `X` of the current placement.
    #[must_use]
    pub fn crossing_count(&self) -> usize {
        self.crossings.values().sum()
    }

    /// Number of spatial violations in the current placement.
    #[must_use]
    pub fn violation_count(&self) -> usize {
        self.violations.len()
    }

    /// Moves one component to `to` and updates every affected metric input.
    ///
    /// Cost is proportional to the component's spatial neighbourhood: its violation
    /// candidates, the routes of its (owning or incident) resonators and their
    /// bounding-box neighbours, and the nets it pins — not to the layout size.
    pub fn apply_move(&mut self, id: ComponentId, to: Point) {
        let idx = self.index_of(id);
        self.placement.set_component(id, to);
        self.rects[idx] = self.placement.rect(self.netlist, id);

        // --- Violations: drop every pair involving the mover, re-test candidates.
        let inflated = self.rects[idx].inflated(self.viol_inflate);
        self.viol_grid.relocate(idx, &inflated);
        let old_partners = std::mem::take(&mut self.viol_partners[idx]);
        for p in old_partners {
            self.violations.remove(&(idx.min(p), idx.max(p)));
            self.viol_partners[p].remove(&idx);
        }
        let mut cand: Vec<u32> = Vec::new();
        self.viol_grid.candidates(&inflated, &mut cand);
        for &j in &cand {
            let j = j as usize;
            if j == idx {
                continue;
            }
            let (lo, hi) = (idx.min(j), idx.max(j));
            if let Some(v) = self.check_violation(lo, hi) {
                self.violations.insert((lo, hi), v);
                self.viol_partners[lo].insert(hi);
                self.viol_partners[hi].insert(lo);
            }
        }

        // --- Clusters and routes of the affected resonators.
        let mut affected: Vec<ResonatorId> = Vec::new();
        match id {
            ComponentId::Qubit(q) => affected.extend(self.incident[q.index()].iter().copied()),
            ComponentId::Segment(s) => {
                let r = self.netlist.block(s).resonator();
                self.cluster_counts[r.index()] =
                    resonator_clusters(self.netlist, &self.placement, r).len();
                affected.push(r);
            }
        }
        if !affected.is_empty() {
            let aff: BTreeSet<usize> = affected.iter().map(|r| r.index()).collect();
            for &r in &affected {
                let ri = r.index();
                self.routes[ri] = resonator_route(self.netlist, &self.placement, r);
                let rect = route_rect_of(&self.routes[ri]);
                self.route_grid.relocate(ri, &rect);
            }
            self.crossings
                .retain(|&(a, b), _| !aff.contains(&a) && !aff.contains(&b));
            for &r in &affected {
                let ri = r.index();
                let rect = route_rect_of(&self.routes[ri]);
                self.route_grid.candidates(&rect, &mut cand);
                for &r2 in &cand {
                    let r2 = r2 as usize;
                    if r2 == ri || (aff.contains(&r2) && r2 < ri) {
                        continue;
                    }
                    let n = self.routes[ri].crossings_with(&self.routes[r2]);
                    if n > 0 {
                        self.crossings.insert((ri.min(r2), ri.max(r2)), n);
                    }
                }
            }
        }

        // --- HPWL of the nets pinning the mover.
        for &net in &self.nets_of[idx] {
            self.net_hpwl[net as usize] =
                net_hpwl_of(&self.placement, &self.netlist.nets()[net as usize]);
        }

        self.applications += 1;
        #[cfg(debug_assertions)]
        self.debug_validate();
    }

    /// Re-runs the exact `find_violations` filter chain on the index pair `(i, j)`
    /// (`i < j`, which is also ascending `ComponentId` order).
    fn check_violation(&self, i: usize, j: usize) -> Option<SpatialViolation> {
        if self.owners[i].is_some() && self.owners[i] == self.owners[j] {
            return None;
        }
        let detuning = self.freqs[i].detuning(self.freqs[j]);
        if detuning > self.config.detuning_threshold_ghz {
            return None;
        }
        let gap = self.rects[i].gap(&self.rects[j]);
        if gap >= self.config.proximity_threshold {
            return None;
        }
        let adjacency_length = self.rects[i]
            .inflated(self.viol_inflate)
            .contact_length(&self.rects[j].inflated(self.viol_inflate));
        if adjacency_length <= 0.0 {
            return None;
        }
        Some(SpatialViolation {
            a: self.ids[i],
            b: self.ids[j],
            adjacency_length,
            centroid_distance: self.rects[i].centroid_distance(&self.rects[j]),
            detuning_ghz: detuning,
        })
    }

    /// The current layout report — bit-identical to a from-scratch
    /// [`LayoutReport::evaluate`] of [`ReportDelta::placement`].
    #[must_use]
    pub fn report(&self) -> LayoutReport {
        let violations: Vec<SpatialViolation> = self.violations().cloned().collect();
        LayoutReport {
            num_cells: self.netlist.num_components(),
            unified_resonators: self.cluster_counts.iter().filter(|&&c| c == 1).count(),
            total_resonators: self.cluster_counts.len(),
            total_clusters: self.total_clusters(),
            crossings: self.crossing_count(),
            hotspot_proportion_percent: hotspot_proportion_from(&violations, self.netlist),
            hotspot_qubits: hotspot_qubits(self.netlist, &violations).len(),
            violations: violations.len(),
        }
    }

    /// The current state as a [`LayoutScan`] — bit-identical to
    /// [`LayoutScan::scan`] of [`ReportDelta::placement`].
    #[must_use]
    pub fn to_scan(&self) -> LayoutScan {
        LayoutScan {
            clusters: ClusterReport {
                cluster_counts: self.cluster_counts.clone(),
            },
            violations: self.violations().cloned().collect(),
            crossings: self.crossing_pairs().collect(),
        }
    }

    /// Total half-perimeter wirelength — bit-identical to `qgdp_placer::hpwl` of
    /// [`ReportDelta::placement`] (per-net values in net order, serial summation).
    #[must_use]
    pub fn hpwl(&self) -> f64 {
        self.net_hpwl.iter().sum()
    }

    /// A scalar crosstalk cost for move scoring: the sum of the Eq. 8 violation
    /// errors plus the per-crossing parasitic errors at exposure time `exposure_ns`.
    ///
    /// This is the fidelity model's layout-dependent error mass — lower is better —
    /// summed deterministically in component/resonator pair order.  The detailed
    /// placer's fidelity-guided mode uses it to rank candidate windows.
    #[must_use]
    pub fn crosstalk_cost(&self, model: &CrosstalkModel, exposure_ns: f64) -> f64 {
        let mut cost = 0.0;
        for v in self.violations.values() {
            cost += model.violation_error(v.adjacency_length, v.detuning_ghz, exposure_ns);
        }
        for (&(ra, rb), &n) in &self.crossings {
            let detuning = self
                .netlist
                .resonator(ResonatorId(ra))
                .frequency()
                .detuning(self.netlist.resonator(ResonatorId(rb)).frequency());
            cost += model.crossing_error(detuning, exposure_ns) * n as f64;
        }
        cost
    }

    /// Full-rebuild cross-check of the incremental state (debug builds only, every
    /// [`DEBUG_REBUILD_INTERVAL`] applications).
    #[cfg(debug_assertions)]
    fn debug_validate(&self) {
        if self.applications % DEBUG_REBUILD_INTERVAL != 0 {
            return;
        }
        let fresh = find_violations(self.netlist, &self.placement, &self.config);
        let ours: Vec<SpatialViolation> = self.violations.values().cloned().collect();
        assert_eq!(
            ours, fresh,
            "delta violation set diverged from full rebuild"
        );
        let fresh = crate::crossing_pairs(self.netlist, &self.placement);
        let ours: Vec<(ResonatorId, ResonatorId, usize)> = self
            .crossings
            .iter()
            .map(|(&(a, b), &n)| (ResonatorId(a), ResonatorId(b), n))
            .collect();
        assert_eq!(ours, fresh, "delta crossing set diverged from full rebuild");
        assert_eq!(
            self.cluster_counts,
            ClusterReport::analyze(self.netlist, &self.placement).cluster_counts,
            "delta cluster counts diverged from full rebuild"
        );
        for (k, net) in self.netlist.nets().iter().enumerate() {
            assert_eq!(
                self.net_hpwl[k].to_bits(),
                net_hpwl_of(&self.placement, net).to_bits(),
                "delta HPWL of net {k} diverged from full rebuild"
            );
        }
    }
}

/// The indexable rectangle of one route: its bounding box inflated by
/// [`ROUTE_BBOX_SLACK`].
fn route_rect_of(route: &Polyline) -> Rect {
    route
        .bounding_box()
        .unwrap_or_else(|| Rect::from_center(Point::ORIGIN, 1.0, 1.0))
        .inflated(ROUTE_BBOX_SLACK)
}

/// HPWL of one net — the exact per-net arithmetic of `qgdp_placer::hpwl`.
fn net_hpwl_of(placement: &Placement, net: &qgdp_netlist::Net) -> f64 {
    let mut min_x = f64::INFINITY;
    let mut max_x = f64::NEG_INFINITY;
    let mut min_y = f64::INFINITY;
    let mut max_y = f64::NEG_INFINITY;
    for &pin in net.components() {
        let p = placement.component(pin);
        min_x = min_x.min(p.x);
        max_x = max_x.max(p.x);
        min_y = min_y.min(p.y);
        max_y = max_y.max(p.y);
    }
    if min_x.is_finite() {
        (max_x - min_x) + (max_y - min_y)
    } else {
        0.0
    }
}

/// Union bounding box of an iterator of rectangles (unit square at the origin when
/// empty).
fn union_of(rects: impl Iterator<Item = Rect>) -> Rect {
    let mut out: Option<Rect> = None;
    for r in rects {
        out = Some(match out {
            Some(acc) => acc.union(&r),
            None => r,
        });
    }
    out.unwrap_or_else(|| Rect::from_center(Point::ORIGIN, 1.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgdp_netlist::{ComponentGeometry, NetlistBuilder, QubitId, SegmentId};

    fn square_netlist() -> QuantumNetlist {
        NetlistBuilder::new(ComponentGeometry::default())
            .qubits(4)
            .couple(0, 1)
            .couple(1, 2)
            .couple(2, 3)
            .couple(3, 0)
            .couple(0, 2)
            .couple(1, 3)
            .build()
            .unwrap()
    }

    fn spread(netlist: &QuantumNetlist) -> Placement {
        let mut p = Placement::new(netlist);
        for (i, id) in netlist.component_ids().enumerate() {
            p.set_component(
                id,
                Point::new((i % 10) as f64 * 120.0, (i / 10) as f64 * 120.0),
            );
        }
        p
    }

    #[test]
    fn fresh_delta_matches_evaluate() {
        let nl = square_netlist();
        let p = spread(&nl);
        let cfg = CrosstalkConfig::default();
        let delta = ReportDelta::new(&nl, &p, &cfg);
        assert_eq!(delta.report(), LayoutReport::evaluate(&nl, &p, &cfg));
        assert_eq!(delta.to_scan(), LayoutScan::scan(&nl, &p, &cfg));
    }

    #[test]
    fn moves_converge_to_from_scratch_report() {
        let nl = square_netlist();
        let mut p = spread(&nl);
        let cfg = CrosstalkConfig::default();
        let mut delta = ReportDelta::new(&nl, &p, &cfg);
        // A deterministic zig-zag of qubit and segment moves, enough applications to
        // trip the debug full-rebuild checkpoint several times.
        let moves: Vec<(ComponentId, Point)> = (0..40)
            .map(|k| {
                let id = if k % 3 == 0 {
                    ComponentId::Qubit(QubitId(k % nl.num_qubits()))
                } else {
                    ComponentId::Segment(SegmentId((k * 7) % nl.segment_ids().count()))
                };
                (
                    id,
                    Point::new(((k * 53) % 700) as f64, ((k * 31) % 700) as f64),
                )
            })
            .collect();
        for (id, to) in moves {
            delta.apply_move(id, to);
            p.set_component(id, to);
        }
        let from_scratch = LayoutReport::evaluate(&nl, &p, &cfg);
        let incremental = delta.report();
        assert_eq!(incremental, from_scratch);
        assert_eq!(
            incremental.hotspot_proportion_percent.to_bits(),
            from_scratch.hotspot_proportion_percent.to_bits(),
            "P_h must be bit-identical, not merely approximately equal"
        );
        assert!(delta.applications() >= 2 * DEBUG_REBUILD_INTERVAL);
    }

    #[test]
    fn revert_restores_the_original_report() {
        let nl = square_netlist();
        let p = spread(&nl);
        let cfg = CrosstalkConfig::default();
        let mut delta = ReportDelta::new(&nl, &p, &cfg);
        let before = delta.report();
        let hpwl_before = delta.hpwl();
        let id = ComponentId::Qubit(QubitId(2));
        let original = p.component(id);
        delta.apply_move(id, Point::new(13.0, 17.0));
        delta.apply_move(id, original);
        assert_eq!(delta.report(), before);
        assert_eq!(delta.hpwl().to_bits(), hpwl_before.to_bits());
    }

    #[test]
    fn crowding_components_raises_the_crosstalk_cost() {
        let nl = square_netlist();
        let p = spread(&nl);
        let cfg = CrosstalkConfig::default();
        let mut delta = ReportDelta::new(&nl, &p, &cfg);
        let model = CrosstalkModel::default();
        let base = delta.crosstalk_cost(&model, 10_000.0);
        // Pile the blocks of two different resonators on top of each other.
        let r0 = nl.resonator(ResonatorId(0)).segments().to_vec();
        let r1 = nl.resonator(ResonatorId(1)).segments().to_vec();
        for (k, (&a, &b)) in r0.iter().zip(&r1).enumerate() {
            delta.apply_move(
                ComponentId::Segment(a),
                Point::new(4000.0 + 10.0 * k as f64, 4000.0),
            );
            delta.apply_move(
                ComponentId::Segment(b),
                Point::new(4000.0 + 10.0 * k as f64, 4010.0),
            );
        }
        let crowded = delta.crosstalk_cost(&model, 10_000.0);
        assert!(
            crowded > base,
            "piling resonators together must raise the cost ({base:e} -> {crowded:e})"
        );
        assert!(delta.violation_count() > 0);
    }
}
