//! Compare the five legalization strategies of the paper (qGDP-LG, Q-Abacus, Q-Tetris,
//! Abacus, Tetris) on one topology: the miniature version of Figs. 8 and 9.
//!
//! All five strategies are batched through [`Session::try_run_matrix`], so the global
//! placement runs exactly once and its artifact is forked per strategy — the
//! paper's "same GP positions" protocol, structurally guaranteed.
//!
//! Pass a topology name (`grid`, `xtree`, `falcon`, `eagle`, `aspen-11`, `aspen-m`) as
//! the first argument; the default is `falcon`.
//!
//! ```bash
//! cargo run --release -p qgdp --example strategy_comparison -- aspen-11
//! ```

use qgdp::prelude::*;

fn parse_topology(name: &str) -> StandardTopology {
    match name.to_ascii_lowercase().as_str() {
        "grid" => StandardTopology::Grid,
        "xtree" => StandardTopology::Xtree,
        "falcon" => StandardTopology::Falcon,
        "eagle" => StandardTopology::Eagle,
        "aspen-11" | "aspen11" => StandardTopology::Aspen11,
        "aspen-m" | "aspenm" => StandardTopology::AspenM,
        other => {
            eprintln!("unknown topology `{other}`, using falcon");
            StandardTopology::Falcon
        }
    }
}

fn main() -> Result<(), FlowError> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "falcon".into());
    let topology = parse_topology(&name).build();
    let session = Session::new(&topology, FlowConfig::default().with_seed(1234))?;
    println!("device: {topology}");
    println!();

    let noise = NoiseModel::default();
    let benchmarks = [Benchmark::Bv4, Benchmark::Qaoa4, Benchmark::Qgan4];
    let mappings = 15;

    println!(
        "{:<10} | {:>8} | {:>3} | {:>7} | {:>4} | {:>8} | {:>8} | {:>8}",
        "strategy", "I_edge", "X", "P_h (%)", "H_Q", "bv-4", "qaoa-4", "qgan-4"
    );
    println!("{}", "-".repeat(80));
    // One GP run feeds all five strategies, fanned over the QGDP_THREADS pool.
    let artifacts = session
        .try_run_matrix(&LegalizationStrategy::all(), &[None])
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    for artifact in &artifacts {
        let report = artifact.report();
        let fidelities: Vec<f64> = benchmarks
            .iter()
            .map(|&b| artifact.mean_benchmark_fidelity(b, mappings, &noise, 7))
            .collect();
        println!(
            "{:<10} | {:>8} | {:>3} | {:>7.3} | {:>4} | {:>8.4} | {:>8.4} | {:>8.4}",
            artifact.strategy().name(),
            report.integration_ratio(),
            report.crossings,
            report.hotspot_proportion_percent,
            report.hotspot_qubits,
            fidelities[0],
            fidelities[1],
            fidelities[2],
        );
    }
    println!();
    println!("(higher fidelity and I_edge are better; lower X, P_h and H_Q are better — the");
    println!(" same conventions as Figs. 8–9 of the paper)");
    Ok(())
}
