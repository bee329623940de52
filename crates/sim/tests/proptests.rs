//! Property-based tests for the simulation engines.

use proptest::prelude::*;
use qt_circuit::{Circuit, Gate};
use qt_sim::{
    sample_counts_deterministic, Backend, DensityMatrix, Executor, KrausChannel, NoiseModel,
    Program, StateVector,
};

fn arb_gate(n: usize) -> impl Strategy<Value = (Gate, Vec<usize>)> {
    let q = 0..n;
    let q2 = (0..n, 0..n).prop_filter("distinct", |(a, b)| a != b);
    prop_oneof![
        q.clone().prop_map(|a| (Gate::H, vec![a])),
        q.clone().prop_map(|a| (Gate::S, vec![a])),
        (q.clone(), -3.0..3.0f64).prop_map(|(a, t)| (Gate::Rx(t), vec![a])),
        (q.clone(), -3.0..3.0f64).prop_map(|(a, t)| (Gate::Ry(t), vec![a])),
        q2.clone().prop_map(|(a, b)| (Gate::Cx, vec![a, b])),
        q2.clone().prop_map(|(a, b)| (Gate::Cz, vec![a, b])),
        q2.prop_map(|(a, b)| (Gate::Swap, vec![a, b])),
    ]
}

fn arb_circuit(n: usize, len: usize) -> impl Strategy<Value = Circuit> {
    prop::collection::vec(arb_gate(n), 1..len).prop_map(move |instrs| {
        let mut c = Circuit::new(n);
        for (g, qs) in instrs {
            c.push(g, qs);
        }
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The density-matrix engine and the state-vector engine agree exactly
    /// on noiseless circuits.
    #[test]
    fn dm_matches_sv_noiselessly(circ in arb_circuit(4, 20)) {
        let sv = StateVector::from_circuit(&circ);
        let dm = DensityMatrix::from_circuit(&circ);
        let a = sv.probabilities();
        let b = dm.diagonal();
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-10);
        }
        prop_assert!((dm.purity() - 1.0).abs() < 1e-9);
    }

    /// Noisy distributions are normalized and non-negative for any circuit.
    #[test]
    fn noisy_distributions_are_probability_vectors(
        circ in arb_circuit(4, 16),
        p1 in 0.0..0.05f64,
        p2 in 0.0..0.1f64,
        ro in 0.0..0.2f64,
    ) {
        let exec = Executor::with_backend(
            NoiseModel::depolarizing(p1, p2).with_readout(ro),
            Backend::DensityMatrix,
        );
        let dist = exec.noisy_distribution(&Program::from_circuit(&circ), &[0, 1, 2, 3]);
        prop_assert!((dist.total() - 1.0).abs() < 1e-8);
        prop_assert!(dist.iter().all(|(_, p)| p >= -1e-12));
    }

    /// Depolarizing fast path equals the Kraus-sum path.
    #[test]
    fn depolarizing_fast_path_is_exact(
        circ in arb_circuit(3, 12),
        p in 0.0..0.5f64,
        a in 0usize..3,
        b in 0usize..3,
    ) {
        prop_assume!(a != b);
        let mut fast = DensityMatrix::from_circuit(&circ);
        let mut slow = fast.clone();
        fast.apply_depolarizing(&[a, b], p);
        slow.apply_kraus(KrausChannel::depolarizing(2, p).ops(), &[a, b]);
        let x = fast.diagonal();
        let y = slow.diagonal();
        for (u, v) in x.iter().zip(&y) {
            prop_assert!((u - v).abs() < 1e-9, "fast {u} vs slow {v}");
        }
    }

    /// Reset channels preserve trace and sever correlations.
    #[test]
    fn reset_preserves_trace(circ in arb_circuit(3, 12), q in 0usize..3) {
        let mut prog = Program::from_circuit(&circ);
        prog.push_reset_state(&[q], qt_math::states::PrepState::PlusI);
        let exec = Executor::with_backend(NoiseModel::ideal(), Backend::DensityMatrix);
        let rho = exec.run_dm(&prog);
        prop_assert!((rho.trace().re - 1.0).abs() < 1e-9);
        // Reset qubit must be exactly |i⟩.
        let m = rho.partial_trace(&[q]).to_matrix();
        prop_assert!(m.approx_eq(&qt_math::states::PrepState::PlusI.projector(), 1e-9));
    }

    /// Program remapping through a permutation relabels outcomes exactly.
    #[test]
    fn remapping_is_a_relabeling(circ in arb_circuit(3, 12)) {
        let prog = Program::from_circuit(&circ);
        let map = vec![2usize, 0, 1];
        let remapped = prog.remapped(&map);
        let exec = Executor::with_backend(NoiseModel::ideal(), Backend::DensityMatrix);
        let a = exec.noisy_distribution(&prog, &[0, 1, 2]);
        let b = exec.noisy_distribution(&remapped, &[2, 0, 1]);
        for i in 0..8 {
            prop_assert!((a.prob(i) - b.prob(i)).abs() < 1e-10);
        }
    }

    /// Sampled counts converge to the exact distribution.
    #[test]
    fn sampling_matches_distribution(seed in 0u64..1000) {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let exec = Executor::with_backend(
            NoiseModel::ideal().with_readout(0.1),
            Backend::DensityMatrix,
        );
        let prog = Program::from_circuit(&c);
        let exact = exec.noisy_distribution(&prog, &[0, 1]);
        let counts = sample_counts_deterministic(&exact, 20_000, seed, 1);
        prop_assert!(counts.shots() == 20_000);
        for i in 0..4 {
            let f = counts.frequency(i);
            prop_assert!((f - exact.prob(i)).abs() < 0.03, "bin {i}: {f} vs {}", exact.prob(i));
        }
    }
}
