//! Quickstart: run the staged qGDP pipeline on the 25-qubit grid device and print
//! the layout quality after each stage.
//!
//! The [`Session`] API stages the flow: a session builds the netlist once,
//! `global_place()` produces a forkable GP artifact, and each later stage is a
//! typed artifact with lazy, cached reports.  (`session.run(request)` drives a
//! whole [`FlowRequest`] in one call and returns the same bits.)
//!
//! ```bash
//! cargo run --release -p qgdp --example quickstart
//! ```

use qgdp::prelude::*;

fn main() -> Result<(), FlowError> {
    // 1. Pick a device topology (Table I of the paper) and open a session: the
    //    quantum netlist is built once here and shared by every stage artifact.
    let topology = StandardTopology::Grid.build();
    let session = Session::new(&topology, FlowConfig::default().with_seed(42))?;
    println!("device   : {topology}");

    // 2. Drive the staged pipeline: global placement -> qubit legalization ->
    //    integration-aware resonator legalization -> detailed placement.  Each step
    //    returns an immutable artifact; earlier artifacts stay usable (and can be
    //    forked into other strategies or configs without recomputing).
    let gp = session.global_place();
    let legalized = gp.legalize(LegalizationStrategy::Qgdp)?;
    let detailed = legalized.detail();

    println!(
        "die      : {:.0} x {:.0} µm",
        gp.die().width(),
        gp.die().height()
    );
    println!("cells    : {}", session.netlist().num_components());
    println!();
    println!("stage            | I_edge  |  X | P_h (%) | H_Q");
    println!("-----------------+---------+----+---------+----");
    let row = |name: &str, report: &LayoutReport| {
        println!(
            "{name:<17}| {:>7} | {:>2} | {:>7.3} | {:>3}",
            report.integration_ratio(),
            report.crossings,
            report.hotspot_proportion_percent,
            report.hotspot_qubits
        );
    };
    // Reports are computed lazily on first call and cached inside the artifact.
    row("global placement", gp.report());
    row("qGDP-LG", legalized.report());
    row("qGDP-DP", detailed.report());

    // 3. Estimate the program fidelity of a NISQ benchmark on the final layout,
    //    averaged over random qubit mappings (the Fig. 8 protocol).
    let noise = NoiseModel::default();
    println!();
    println!("benchmark fidelity on the final layout (20 mappings each):");
    for benchmark in [Benchmark::Bv4, Benchmark::Qaoa4, Benchmark::Qgan4] {
        let f = detailed.mean_benchmark_fidelity(benchmark, 20, &noise, 7);
        println!("  {:<8} {f:.4}", benchmark.name());
    }

    // 4. Stage runtimes (the quantities of Table II), from the artifact's trace.
    println!();
    let runtime: Vec<String> = detailed
        .events()
        .iter()
        .map(|e| format!("{} {:.3} ms", e.stage, e.duration.as_secs_f64() * 1e3))
        .collect();
    println!("runtime: {}", runtime.join(", "));
    Ok(())
}
