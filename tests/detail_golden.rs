//! Golden output of detailed placement (Algorithm 2) in both guard modes.
//!
//! Each row runs the staged flow `Session` → GP → legalization → detailed
//! placement at seed 7 and pins the refined placement's fingerprint plus the
//! window counters.  The rows were chosen because they accept windows, and on
//! Aspen-11 the default (window-local) guard and the fidelity-guided (global)
//! guard take different decisions, so a change to either guard, to the window
//! bookkeeping or to the reroute shows up here.

use qgdp::placement_fingerprint;
use qgdp::prelude::*;

/// (device, strategy, fidelity-guided, placement fingerprint, windows processed,
/// windows accepted).
type Row = (
    StandardTopology,
    LegalizationStrategy,
    bool,
    u64,
    usize,
    usize,
);

/// Captured at seed 7 before detailed placement moved onto one `ReportDelta`.
const GOLDEN: [Row; 4] = [
    (
        StandardTopology::Grid,
        LegalizationStrategy::QAbacus,
        false,
        0xc7a8_333b_6cab_83b4,
        37,
        1,
    ),
    (
        StandardTopology::Grid,
        LegalizationStrategy::QAbacus,
        true,
        0xc7a8_333b_6cab_83b4,
        37,
        1,
    ),
    (
        StandardTopology::Aspen11,
        LegalizationStrategy::QTetris,
        false,
        0xaa48_c209_0034_f582,
        54,
        3,
    ),
    (
        StandardTopology::Aspen11,
        LegalizationStrategy::QTetris,
        true,
        0x3f8f_f209_6070_f2d1,
        51,
        2,
    ),
];

#[test]
fn detailed_placement_is_pinned_in_both_guard_modes() {
    for (device, strategy, guided, fingerprint, processed, accepted) in GOLDEN {
        let topo = device.build();
        let session = Session::new(&topo, FlowConfig::default().with_seed(7)).unwrap();
        let dp = session
            .global_place()
            .legalize(strategy)
            .unwrap()
            .detail_with(DetailedPlacerConfig::default().with_fidelity_guided(guided));
        let row = format!("{device:?} {strategy} guided={guided}");
        assert_eq!(
            placement_fingerprint(dp.placement()),
            fingerprint,
            "{row}: placement fingerprint {:#018x}",
            placement_fingerprint(dp.placement())
        );
        assert_eq!(
            dp.windows_processed(),
            processed,
            "{row}: windows processed"
        );
        assert_eq!(dp.windows_accepted(), accepted, "{row}: windows accepted");
    }
}
