//! Measures the optimized global-placer hot path against the reference formulation
//! (per-iteration density rebuild + per-net clique expansion) and records the result
//! in `BENCH_placer.json`.
//!
//! ```bash
//! cargo run --release -p qgdp-bench --bin bench_placer
//! ```
//!
//! For every benched topology the two implementations run on identical inputs (same
//! netlist, same seed) and the final HPWL is compared: on the pseudo net model the
//! optimized path must be *bit-identical*, on the clique net model (star-decomposed
//! hypernets) it must agree within floating-point round-off.  Override the output
//! path with `QGDP_BENCH_OUT`, the topology panel with `QGDP_BENCH_TOPOLOGIES`
//! (comma-separated names) and repetitions with `QGDP_BENCH_REPS` (fastest rep is
//! reported, criterion-style).

use qgdp::prelude::*;
use qgdp_bench::harness::{self, best_of, time_ms};
use qgdp_placer::hpwl;

/// One measured topology × net-model cell.
struct Record {
    topology: String,
    model: &'static str,
    components: usize,
    iterations: usize,
    optimized_ms: f64,
    reference_ms: f64,
    hpwl_rel_diff: f64,
}

impl Record {
    fn speedup(&self) -> f64 {
        self.reference_ms / self.optimized_ms
    }

    fn optimized_iters_per_sec(&self) -> f64 {
        self.iterations as f64 / (self.optimized_ms / 1e3)
    }

    fn reference_iters_per_sec(&self) -> f64 {
        self.iterations as f64 / (self.reference_ms / 1e3)
    }
}

fn bench_cell(
    topology: StandardTopology,
    model: NetModel,
    model_name: &'static str,
    reps: usize,
) -> Record {
    // The session builds (and would share) the netlist; the placer itself is
    // driven directly because the reference formulation `place_reference` is not
    // part of the staged artifact surface.
    let session = Session::new(
        &topology.build(),
        FlowConfig::default().with_net_model(model),
    )
    .unwrap_or_else(|e| panic!("session for {topology}: {e}"));
    let topo = session.topology();
    let netlist = session.netlist();
    let cfg = GlobalPlacerConfig::default();
    let placer = GlobalPlacer::new(cfg);

    let optimized_ms = best_of(reps, || time_ms(|| placer.place(netlist, topo)));
    let reference_ms = best_of(reps, || time_ms(|| placer.place_reference(netlist, topo)));

    let optimized = placer.place(netlist, topo);
    let reference = placer.place_reference(netlist, topo);
    let h_opt = hpwl(netlist, &optimized.placement);
    let h_ref = hpwl(netlist, &reference.placement);
    let hpwl_rel_diff = ((h_opt - h_ref) / h_ref).abs();
    match model {
        NetModel::Pseudo | NetModel::Chain => assert_eq!(
            optimized, reference,
            "optimized placer must be bit-identical to the reference on 2-pin nets \
             ({topology}, {model_name})"
        ),
        NetModel::Clique => assert!(
            hpwl_rel_diff < 1e-9,
            "star-decomposed placement drifted {hpwl_rel_diff:e} from the clique \
             reference on {topology}"
        ),
    }

    Record {
        topology: topology.name().to_string(),
        model: model_name,
        components: netlist.num_components(),
        iterations: cfg.iterations,
        optimized_ms,
        reference_ms,
        hpwl_rel_diff,
    }
}

fn main() {
    let reps = harness::reps(5);
    let topologies = harness::topologies(&harness::DEFAULT_PANEL);

    let mut records = Vec::new();
    for &topology in &topologies {
        records.push(bench_cell(topology, NetModel::Pseudo, "pseudo", reps));
        records.push(bench_cell(topology, NetModel::Clique, "clique-star", reps));
    }

    let mut rows = String::new();
    for r in &records {
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{ \"topology\": \"{}\", \"net_model\": \"{}\", \"components\": {}, \
             \"iterations\": {}, \"optimized_ms\": {:.2}, \"reference_ms\": {:.2}, \
             \"speedup\": {:.2}, \"optimized_iters_per_sec\": {:.0}, \
             \"reference_iters_per_sec\": {:.0}, \"hpwl_rel_diff\": {:.3e} }}",
            r.topology,
            r.model,
            r.components,
            r.iterations,
            r.optimized_ms,
            r.reference_ms,
            r.speedup(),
            r.optimized_iters_per_sec(),
            r.reference_iters_per_sec(),
            r.hpwl_rel_diff,
        ));
    }
    let host_cpus = harness::host_cpus();
    let json = format!(
        "{{\n  \"benchmark\": \"global placement: compiled star-net forces + \
         incremental density vs reference rebuild\",\n  \"reps\": {reps},\n  \
         \"host_cpus\": {host_cpus},\n  \"records\": [\n{rows}\n  ]\n}}\n"
    );
    let out_path = harness::write_record("BENCH_placer.json", &json);
    for r in &records {
        println!(
            "{:>8} {:>11}: {:>7.2}ms -> {:>6.2}ms ({:.2}x, {:.0} -> {:.0} iters/s, \
             hpwl rel diff {:.1e})",
            r.topology,
            r.model,
            r.reference_ms,
            r.optimized_ms,
            r.speedup(),
            r.reference_iters_per_sec(),
            r.optimized_iters_per_sec(),
            r.hpwl_rel_diff,
        );
    }
    println!("recorded in {out_path}");
}
