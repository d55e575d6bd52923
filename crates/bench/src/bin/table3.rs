//! Regenerates Table III: the detailed-placement evaluation.  For every topology the
//! qGDP-LG layout and the qGDP-DP layout are compared on the number of unified
//! resonators (`I_edge`), coupler crossings (`X`), frequency-hotspot proportion
//! (`P_h`) and the number of qubits under hotspots (`H_Q`).
//!
//! Each flow is one staged [`qgdp::Session`] run whose [`Detailed`] artifact carries
//! both reports: the qGDP-LG columns come from the legalized artifact the DP stage
//! forked from, so nothing is recomputed.
//!
//! ```bash
//! cargo run --release -p qgdp-bench --bin table3
//! ```

use qgdp::prelude::*;
use qgdp_bench::run_strategy;

/// Runs the qGDP-DP flow for every topology on [`worker_threads`] scoped workers,
/// returning artifacts in [`StandardTopology::all`] order (each flow is an
/// independent seed-deterministic computation, so the table is identical for any
/// worker count).
fn run_all_topologies() -> Vec<(StandardTopology, FlowArtifact)> {
    let topologies = StandardTopology::all();
    let results = parallel_map(&topologies, worker_threads(), |&topology| {
        run_strategy(
            topology,
            FlowRequest::detailed(LegalizationStrategy::Qgdp, DetailedPlacerConfig::new()),
        )
    });
    topologies.into_iter().zip(results).collect()
}

fn main() {
    println!("TABLE III: detailed placement evaluation (qGDP-LG vs qGDP-DP)");
    println!();
    println!(
        "{:<10} {:>6} | {:>8} {:>4} {:>7} {:>4} | {:>8} {:>4} {:>7} {:>4}",
        "Topology", "#Cells", "I_edge", "X", "Ph(%)", "HQ", "I_edge", "X", "Ph(%)", "HQ"
    );
    println!(
        "{:<10} {:>6} | {:^27} | {:^27}",
        "", "", "qGDP-LG", "qGDP-DP"
    );
    println!("{}", "-".repeat(78));
    for (topology, artifact) in run_all_topologies() {
        let lg = artifact.legalized().report();
        let dp = artifact.detailed().expect("DP ran").report();
        println!(
            "{:<10} {:>6} | {:>8} {:>4} {:>7.2} {:>4} | {:>8} {:>4} {:>7.2} {:>4}",
            topology.name(),
            artifact.netlist().num_components(),
            lg.integration_ratio(),
            lg.crossings,
            lg.hotspot_proportion_percent,
            lg.hotspot_qubits,
            dp.integration_ratio(),
            dp.crossings,
            dp.hotspot_proportion_percent,
            dp.hotspot_qubits,
        );
    }
    println!();
    println!("higher I_edge is better; lower X, Ph and HQ are better");
}
