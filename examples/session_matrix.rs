//! The staged `Session` API end to end: one global placement feeding the whole
//! five-strategy legalization matrix, plus one legalized artifact forked into
//! several detailed-placer configurations — without recomputing any earlier stage.
//!
//! This is the miniature version of what `bench_flow` measures: the Table II/III
//! strategy matrix run as five fresh sessions costs five netlist builds and five
//! identical global placements; with one session it costs one of each.
//!
//! ```bash
//! cargo run --release -p qgdp --example session_matrix
//! ```

use qgdp::prelude::*;

fn main() -> Result<(), FlowError> {
    let topology = StandardTopology::Falcon.build();
    let session = Session::new(&topology, FlowConfig::default().with_seed(7))?;
    println!("device: {topology}");

    // One GP artifact...
    let gp = session.global_place();
    println!(
        "global placement: {:.2} ms, HPWL {:.0} (runs once for the whole matrix)",
        gp.elapsed().as_secs_f64() * 1e3,
        gp.stats().hpwl
    );

    // ...forked into all five strategies.  `try_run_matrix` does the same fan-out over
    // the QGDP_THREADS worker pool; the explicit loop shows the artifact flow.
    println!();
    println!(
        "{:<10} | {:>8} | {:>8} | {:>8} | {:>8}",
        "strategy", "tq (ms)", "te (ms)", "I_edge", "clusters"
    );
    println!("{}", "-".repeat(56));
    for strategy in LegalizationStrategy::all() {
        let legalized = gp.legalize(strategy)?;
        let report = legalized.report();
        println!(
            "{:<10} | {:>8.3} | {:>8.3} | {:>8} | {:>8}",
            strategy.name(),
            legalized.qubit_stage().elapsed().as_secs_f64() * 1e3,
            legalized.elapsed().as_secs_f64() * 1e3,
            report.integration_ratio(),
            report.total_clusters,
        );
    }

    // One legalized artifact forked into multiple detailed-placer configurations:
    // the legalization stages are not re-run either.
    let legalized = gp.legalize(LegalizationStrategy::Qgdp)?;
    println!();
    println!("qGDP-LG artifact forked into detailed-placement configs:");
    for (label, passes) in [("1 pass", 1), ("2 passes (default)", 2), ("4 passes", 4)] {
        let mut config = DetailedPlacerConfig::new();
        config.passes = passes;
        let dp = legalized.detail_with(config);
        println!(
            "  {label:<18}: {:.2} ms, windows {}/{}, clusters {} -> {}",
            dp.elapsed().as_secs_f64() * 1e3,
            dp.windows_accepted(),
            dp.windows_processed(),
            legalized.report().total_clusters,
            dp.report().total_clusters,
        );
    }

    // The batched surface produces the same artifacts in one call, one `Result`
    // per request; collecting them keeps all or fails on the first error.
    let batched = session
        .try_run_matrix(
            &[LegalizationStrategy::Qgdp, LegalizationStrategy::Tetris],
            &[None, Some(DetailedPlacerConfig::new())],
        )
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    println!();
    println!(
        "try_run_matrix(2 strategies x [LG, DP]) returned {} artifacts in request order",
        batched.len()
    );
    Ok(())
}
