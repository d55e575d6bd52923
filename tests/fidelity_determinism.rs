//! Determinism regression suite for the parallel fidelity pipeline.
//!
//! Two contracts are locked down with golden values captured from the pre-cache,
//! single-threaded implementation:
//!
//! 1. **Mapping stability** — caching the topology's distance matrix must not change
//!    `map_circuit` output for any seed: the op streams of four (topology, benchmark,
//!    seed) probes are pinned by FNV-1a hashes.
//! 2. **Reduction stability** — `FidelityEvaluator::mean` must return bit-identical
//!    results for every thread count (`QGDP_THREADS=1` vs `QGDP_THREADS=4`, and the
//!    explicit `mean_with_threads` API), and those bits must equal the golden value of
//!    the serial pre-refactor implementation.

use qgdp::circuits::{Gate, GateKind, PhysicalOp};
use qgdp::metrics::FidelityEvaluator;
use qgdp::prelude::*;

/// FNV-1a over a stable encoding of a mapped circuit's op stream.
fn hash_mapped(m: &MappedCircuit) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    let kind_code = |k: GateKind| -> u64 {
        match k {
            GateKind::H => 0,
            GateKind::X => 1,
            GateKind::Z => 2,
            GateKind::Rz(a) => 100 ^ a.to_bits(),
            GateKind::Rx(a) => 200 ^ a.to_bits(),
            GateKind::Ry(a) => 300 ^ a.to_bits(),
            GateKind::Cx => 3,
            GateKind::Cz => 4,
            GateKind::Swap => 5,
            GateKind::Measure => 6,
            _ => 7,
        }
    };
    eat(m.num_physical_qubits() as u64);
    eat(m.swaps_inserted() as u64);
    for op in m.ops() {
        match *op {
            PhysicalOp::Single { qubit, kind } => {
                eat(1);
                eat(qubit as u64);
                eat(kind_code(kind));
            }
            PhysicalOp::Two { a, b, kind } => {
                eat(2);
                eat(a as u64);
                eat(b as u64);
                eat(kind_code(kind));
            }
        }
    }
    h
}

/// The Grid qGDP flow layout every fidelity golden below is evaluated on.
fn flow() -> CellLegalized {
    let topo = StandardTopology::Grid.build();
    Session::new(&topo, FlowConfig::default().with_seed(20_250_331))
        .and_then(|session| session.global_place().legalize(LegalizationStrategy::Qgdp))
        .expect("qGDP flow succeeds on the grid")
}

#[test]
fn map_circuit_is_unchanged_from_pre_cache_implementation() {
    let grid = StandardTopology::Grid.build();
    let falcon = StandardTopology::Falcon.build();
    // (topology, benchmark, seed, golden op-stream hash, swaps, ops) captured from
    // the pre-cache implementation (per-call BFS, nested Vec<Vec<usize>> distances).
    let probes: [(&Topology, Benchmark, u64, u64, usize, usize); 4] = [
        (&grid, Benchmark::Bv4, 42, 0x634161b3d98332b5, 3, 23),
        (&grid, Benchmark::Qaoa4, 7, 0x1bcd42d7a2c30cfe, 2, 30),
        (&falcon, Benchmark::Bv9, 3, 0x756da05c309c1874, 22, 100),
        (&falcon, Benchmark::Qgan9, 123, 0xd43e3cc8c4c39126, 54, 258),
    ];
    for (topo, bench, seed, golden_hash, golden_swaps, golden_ops) in probes {
        let mapped = map_circuit(&bench.circuit(), topo, seed);
        assert_eq!(mapped.swaps_inserted(), golden_swaps, "{bench:?}/{seed}");
        assert_eq!(mapped.ops().len(), golden_ops, "{bench:?}/{seed}");
        assert_eq!(
            hash_mapped(&mapped),
            golden_hash,
            "{bench:?}/{seed}: op stream drifted from the pre-cache implementation"
        );
    }
}

#[test]
fn mean_fidelity_matches_pre_refactor_golden_bits() {
    let result = flow();
    let noise = NoiseModel::default();
    // (benchmark, mappings, seed, golden f64 bits of the serial pre-refactor mean).
    for (bench, count, seed, golden_bits) in [
        (Benchmark::Bv4, 8, 7u64, 0x3fe9b9e8d50aa212u64),
        (Benchmark::Qaoa4, 5, 99, 0x3fe2935c393e5e5e),
    ] {
        let maps = random_mappings(&bench.circuit(), result.topology(), count, seed);
        let mean = mean_fidelity(
            result.netlist(),
            result.placement(),
            &maps,
            &noise,
            &result.config().crosstalk,
        );
        assert_eq!(
            mean.to_bits(),
            golden_bits,
            "{bench:?}: mean {mean:.17} drifted from the pre-refactor golden"
        );
    }
}

#[test]
fn qgdp_threads_env_does_not_change_bits() {
    let result = flow();
    let evaluator = FidelityEvaluator::new(
        result.netlist(),
        result.placement(),
        NoiseModel::default(),
        &result.config().crosstalk,
    );
    let maps = random_mappings(&Benchmark::Qaoa4.circuit(), result.topology(), 50, 4242);

    // The env-driven path: QGDP_THREADS=1 vs QGDP_THREADS=4.  The determinism
    // contract makes the env value immaterial to the bits, so this sequence is safe
    // even if another test in this binary evaluates a mean concurrently.
    std::env::set_var("QGDP_THREADS", "1");
    assert_eq!(worker_threads(), 1);
    let serial = evaluator.mean(&maps);
    std::env::set_var("QGDP_THREADS", "4");
    assert_eq!(worker_threads(), 4);
    let parallel = evaluator.mean(&maps);
    std::env::remove_var("QGDP_THREADS");
    assert!(worker_threads() >= 1);
    assert_eq!(
        serial.to_bits(),
        parallel.to_bits(),
        "QGDP_THREADS=1 ({serial:.17}) vs QGDP_THREADS=4 ({parallel:.17})"
    );

    // The explicit API across a spread of pool sizes, including more threads than
    // mappings.
    for threads in [2, 3, 7, 50, 128] {
        assert_eq!(
            evaluator.mean_with_threads(&maps, threads).to_bits(),
            serial.to_bits(),
            "threads={threads}"
        );
    }
}

#[test]
fn single_qubit_circuits_survive_the_worker_pool() {
    let result = flow();
    let evaluator = FidelityEvaluator::new(
        result.netlist(),
        result.placement(),
        NoiseModel::default(),
        &result.config().crosstalk,
    );
    // A one-qubit benchmark has no two-qubit gates: no SWAPs, no active resonators.
    let mut circuit = Circuit::new(1);
    circuit.push(Gate::one(GateKind::H, 0));
    circuit.push(Gate::one(GateKind::Measure, 0));
    let maps = random_mappings(&circuit, result.topology(), 6, 11);
    for m in &maps {
        assert_eq!(m.swaps_inserted(), 0);
        assert_eq!(m.active_qubits().len(), 1);
    }
    let serial = evaluator.mean_with_threads(&maps, 1);
    let parallel = evaluator.mean_with_threads(&maps, 4);
    assert!(serial > 0.0 && serial <= 1.0);
    assert_eq!(serial.to_bits(), parallel.to_bits());
}
