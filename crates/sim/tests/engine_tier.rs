//! Property-based equivalence suite for the engine tier.
//!
//! The cheap engines (stabilizer tableau, sparse statevector) must be
//! *exact* replacements for the dense oracle on their admissible program
//! classes, the trie scheduler must stay bit-identical to per-job
//! execution under every engine, and `Backend::Auto`'s per-program
//! selection must never change results — only cost.

use proptest::prelude::*;
use qt_circuit::{Circuit, Gate};
use qt_dist::Distribution;
use qt_sim::{Backend, BatchJob, Executor, NoiseModel, Program, Runner};

/// Clifford-only gate stream: the stabilizer engine's full alphabet.
fn arb_clifford_gate(n: usize) -> impl Strategy<Value = (Gate, Vec<usize>)> {
    let q = 0..n;
    let q2 = (0..n, 0..n).prop_filter("distinct", |(a, b)| a != b);
    prop_oneof![
        q.clone().prop_map(|a| (Gate::H, vec![a])),
        q.clone().prop_map(|a| (Gate::S, vec![a])),
        q.clone().prop_map(|a| (Gate::Sdg, vec![a])),
        q.clone().prop_map(|a| (Gate::Sx, vec![a])),
        q.clone().prop_map(|a| (Gate::X, vec![a])),
        q.clone().prop_map(|a| (Gate::Y, vec![a])),
        q.clone().prop_map(|a| (Gate::Z, vec![a])),
        q2.clone().prop_map(|(a, b)| (Gate::Cx, vec![a, b])),
        q2.clone().prop_map(|(a, b)| (Gate::Cy, vec![a, b])),
        q2.clone().prop_map(|(a, b)| (Gate::Cz, vec![a, b])),
        q2.prop_map(|(a, b)| (Gate::Swap, vec![a, b])),
    ]
}

/// General gate stream including non-Clifford rotations and phases.
fn arb_any_gate(n: usize) -> impl Strategy<Value = (Gate, Vec<usize>)> {
    let q = 0..n;
    let q2 = (0..n, 0..n).prop_filter("distinct", |(a, b)| a != b);
    prop_oneof![
        q.clone().prop_map(|a| (Gate::H, vec![a])),
        q.clone().prop_map(|a| (Gate::T, vec![a])),
        (q.clone(), -3.0..3.0f64).prop_map(|(a, t)| (Gate::Ry(t), vec![a])),
        (q.clone(), -3.0..3.0f64).prop_map(|(a, t)| (Gate::Rz(t), vec![a])),
        (q2.clone(), -3.0..3.0f64).prop_map(|((a, b), t)| (Gate::Cp(t), vec![a, b])),
        q2.prop_map(|(a, b)| (Gate::Cx, vec![a, b])),
    ]
}

fn circuit_of(n: usize, instrs: Vec<(Gate, Vec<usize>)>) -> Circuit {
    let mut c = Circuit::new(n);
    for (g, qs) in instrs {
        c.push(g, qs);
    }
    c
}

fn arb_clifford_circuit(n: usize, len: usize) -> impl Strategy<Value = Circuit> {
    prop::collection::vec(arb_clifford_gate(n), 1..len).prop_map(move |i| circuit_of(n, i))
}

fn arb_any_circuit(n: usize, len: usize) -> impl Strategy<Value = Circuit> {
    prop::collection::vec(arb_any_gate(n), 1..len).prop_map(move |i| circuit_of(n, i))
}

fn dist_of(
    backend: Backend,
    noise: &NoiseModel,
    circ: &Circuit,
    measured: &[usize],
) -> Distribution {
    Executor::with_backend(noise.clone(), backend)
        .noisy_distribution(&Program::from_circuit(circ), measured)
}

fn assert_close(a: &Distribution, b: &Distribution, tol: f64, what: &str) {
    assert_eq!(a.n_bits(), b.n_bits(), "{what}: width mismatch");
    for i in 0..1u64 << a.n_bits() {
        let (x, y) = (a.prob(i), b.prob(i));
        assert!((x - y).abs() < tol, "{what}: index {i}: {x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Stabilizer engine vs the density-matrix oracle, noise-free, on
    /// random Clifford circuits with random measurement subsets.
    #[test]
    fn stabilizer_matches_dense_oracle_ideally(
        circ in arb_clifford_circuit(4, 24),
        k in 1usize..5,
    ) {
        let measured: Vec<usize> = (0..k).rev().collect();
        let noise = NoiseModel::ideal();
        let a = dist_of(Backend::Stabilizer, &noise, &circ, &measured);
        let b = dist_of(Backend::DensityMatrix, &noise, &circ, &measured);
        assert_close(&a, &b, 1e-9, "stabilizer vs dense (ideal)");
    }

    /// Stabilizer engine's analytic Pauli-noise mixing vs the exact Kraus
    /// evolution of the density matrix.
    #[test]
    fn stabilizer_matches_dense_oracle_under_pauli_noise(
        circ in arb_clifford_circuit(4, 16),
        p1 in 0.0..0.08f64,
        p2 in 0.0..0.08f64,
    ) {
        let measured = [0, 1, 2, 3];
        let noise = NoiseModel::depolarizing(p1, p2);
        let a = dist_of(Backend::Stabilizer, &noise, &circ, &measured);
        let b = dist_of(Backend::DensityMatrix, &noise, &circ, &measured);
        assert_close(&a, &b, 1e-9, "stabilizer vs dense (depolarizing)");
    }

    /// Sparse statevector engine vs the dense oracle on arbitrary
    /// (non-Clifford) noise-free circuits, across the densify crossover.
    #[test]
    fn sparse_matches_dense_oracle(
        circ in arb_any_circuit(4, 20),
        k in 1usize..5,
    ) {
        let measured: Vec<usize> = (0..k).collect();
        let noise = NoiseModel::ideal();
        let a = dist_of(Backend::Sparse, &noise, &circ, &measured);
        let b = dist_of(Backend::DensityMatrix, &noise, &circ, &measured);
        assert_close(&a, &b, 1e-9, "sparse vs dense (ideal)");
    }

    /// `Backend::Auto` routes programs to cheap engines but must never
    /// change results relative to the exact oracle.
    #[test]
    fn auto_selection_never_changes_results(
        clifford in arb_clifford_circuit(4, 16),
        general in arb_any_circuit(4, 12),
        p1 in 0.0..0.05f64,
        p2 in 0.0..0.05f64,
    ) {
        let measured = [0, 1, 2, 3];
        let noise = NoiseModel::depolarizing(p1, p2);
        for circ in [&clifford, &general] {
            let a = dist_of(Backend::default(), &noise, circ, &measured);
            let b = dist_of(Backend::DensityMatrix, &noise, circ, &measured);
            assert_close(&a, &b, 1e-9, "auto vs dense");
        }
    }

    /// Forcing a cheap engine on an inadmissible program falls back to the
    /// dense path per program — still exact, never a panic.
    #[test]
    fn forced_engines_fall_back_exactly(circ in arb_any_circuit(3, 12), p in 0.0..0.05f64) {
        let measured = [0, 1, 2];
        let noise = NoiseModel::depolarizing(p, p);
        let oracle = dist_of(Backend::DensityMatrix, &noise, &circ, &measured);
        for forced in [Backend::Stabilizer, Backend::Sparse] {
            let a = dist_of(forced, &noise, &circ, &measured);
            assert_close(&a, &oracle, 1e-9, "forced-engine fallback");
        }
    }
}

/// A batch of programs sharing a common prefix, as the trie scheduler
/// expects from mitigation ensembles.
fn prefix_family(prefix: &Circuit, n: usize) -> Vec<BatchJob> {
    let gates: [(Gate, Vec<usize>); 4] = [
        (Gate::X, vec![0]),
        (Gate::Z, vec![1]),
        (Gate::Cx, vec![1, 0]),
        (Gate::S, vec![n - 1]),
    ];
    let mut jobs = Vec::new();
    for (g, qs) in gates {
        let mut c = prefix.clone();
        c.push(g, qs);
        let measured: Vec<usize> = (0..n).collect();
        jobs.push(BatchJob::new(Program::from_circuit(&c), measured));
    }
    jobs.push(BatchJob::new(
        Program::from_circuit(prefix),
        (0..n).collect::<Vec<_>>(),
    ));
    jobs
}

/// Trie-scheduled execution is bit-identical to per-job execution for the
/// fork-capable cheap engines, like it already is for the dense ones.
#[test]
fn trie_is_bit_identical_to_per_job_for_each_engine() {
    let n = 4;
    let mut prefix = Circuit::new(n);
    prefix.h(0);
    for q in 1..n {
        prefix.cx(q - 1, q);
    }
    prefix.s(2).sdg(3).cz(0, 2);

    let cases = [
        (Backend::Stabilizer, NoiseModel::depolarizing(0.01, 0.03)),
        (Backend::Stabilizer, NoiseModel::ideal()),
        (Backend::Sparse, NoiseModel::ideal()),
        (Backend::DensityMatrix, NoiseModel::depolarizing(0.01, 0.03)),
    ];
    for (backend, noise) in cases {
        let jobs = prefix_family(&prefix, n);
        let exec = Executor::with_backend(noise, backend);
        let a = exec.run_batch(&jobs);
        let b: Vec<_> = jobs
            .iter()
            .map(|j| exec.run(&j.program, &j.measured))
            .collect();
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            let xs: Vec<(u64, f64)> = x.dist.iter().collect();
            let ys: Vec<(u64, f64)> = y.dist.iter().collect();
            assert_eq!(xs.len(), ys.len(), "{backend:?}: job {i} support sizes");
            for (&(ix, p), &(iy, q)) in xs.iter().zip(&ys) {
                assert!(
                    ix == iy && p.to_bits() == q.to_bits(),
                    "{backend:?}: job {i}: ({ix}, {p:?}) != ({iy}, {q:?}) (bitwise)"
                );
            }
        }
    }
}

/// The Auto ladder's routing decisions, observed through the engine-mix
/// report: Clifford programs ride the tableau, wide low-entanglement
/// programs ride the sparse map, dense programs keep the density matrix.
#[test]
fn auto_ladder_routes_by_program_class() {
    let exec = Executor::new(NoiseModel::ideal());

    // 4q Clifford → stabilizer.
    let mut cliff = Circuit::new(4);
    cliff.h(0).cx(0, 1).cx(1, 2).cx(2, 3).s(3);

    // 30 qubits, one superposing gate, a non-Clifford phase: too wide for
    // any dense engine, bounded support → sparse statevector.
    let mut wide = Circuit::new(30);
    wide.h(0).t(0);
    for q in 1..30 {
        wide.cx(q - 1, q);
    }

    // 4q with dense superposition everywhere and a T gate → density matrix.
    let mut dense = Circuit::new(4);
    dense.h(0).h(1).h(2).h(3).t(0).cx(0, 1);

    let jobs: Vec<BatchJob> = [&cliff, &wide, &dense]
        .iter()
        .map(|c| {
            let k = 4.min(c.n_qubits());
            BatchJob::new(Program::from_circuit(c), (0..k).collect::<Vec<_>>())
        })
        .collect();
    let mix = exec.engine_mix(&jobs).expect("executor reports engines");
    assert_eq!(
        mix,
        vec![
            ("density-matrix".to_string(), 1),
            ("sparse-statevector".to_string(), 1),
            ("stabilizer".to_string(), 1),
        ]
    );

    // And the routed batch still executes correctly end to end.
    let outs = exec.run_batch(&jobs);
    assert_eq!(outs.len(), 3);
    for out in &outs {
        let total: f64 = out.dist.total();
        assert!((total - 1.0).abs() < 1e-9, "normalized: {total}");
    }
    // GHZ+S distribution: half |0000⟩, half |1111⟩.
    assert!((outs[0].dist.prob(0) - 0.5).abs() < 1e-12);
    assert!((outs[0].dist.prob(15) - 0.5).abs() < 1e-12);
}
