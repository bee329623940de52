//! Property-based tests over random circuits and distributions, spanning
//! the simulator, cutting, checks and recombination crates.

use proptest::prelude::*;
use qutracer::circuit::{passes, Circuit, Gate};
use qutracer::dist::{hellinger_fidelity, recombine, Distribution};
use qutracer::sim::{ideal_distribution, Program, StateVector};

/// A random gate on up to `n` qubits.
fn arb_instruction(n: usize) -> impl Strategy<Value = (Gate, Vec<usize>)> {
    let q = 0..n;
    let q2 = (0..n, 0..n).prop_filter("distinct", |(a, b)| a != b);
    prop_oneof![
        q.clone().prop_map(|a| (Gate::H, vec![a])),
        (q.clone(), -3.0..3.0f64).prop_map(|(a, t)| (Gate::Ry(t), vec![a])),
        (q.clone(), -3.0..3.0f64).prop_map(|(a, t)| (Gate::Rz(t), vec![a])),
        q2.clone().prop_map(|(a, b)| (Gate::Cx, vec![a, b])),
        q2.clone().prop_map(|(a, b)| (Gate::Cz, vec![a, b])),
        (q2, -3.0..3.0f64).prop_map(|((a, b), t)| (Gate::Cp(t), vec![a, b])),
    ]
}

fn arb_circuit(n: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
    prop::collection::vec(arb_instruction(n), 1..max_len).prop_map(move |instrs| {
        let mut c = Circuit::new(n);
        for (g, qs) in instrs {
            c.push(g, qs);
        }
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn statevector_stays_normalized(circ in arb_circuit(4, 24)) {
        let sv = StateVector::from_circuit(&circ);
        prop_assert!((sv.norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reduction_preserves_single_qubit_marginals(
        circ in arb_circuit(4, 20),
        target in 0usize..4,
    ) {
        let red = passes::reduce_for_z_measurement(&circ, &[target]);
        let full = StateVector::from_circuit(&circ).marginal_probabilities(&[target]);
        let reduced = StateVector::from_circuit(&red.circuit).marginal_probabilities(&[target]);
        prop_assert!((full[0] - reduced[0]).abs() < 1e-9,
            "marginal changed: {} vs {}", full[0], reduced[0]);
        prop_assert!(red.circuit.len() <= circ.len());
    }

    #[test]
    fn reduction_preserves_pair_marginals(
        circ in arb_circuit(5, 18),
        a in 0usize..5,
        b in 0usize..5,
    ) {
        prop_assume!(a != b);
        let red = passes::reduce_for_z_measurement(&circ, &[a, b]);
        let full = StateVector::from_circuit(&circ).marginal_probabilities(&[a, b]);
        let reduced = StateVector::from_circuit(&red.circuit).marginal_probabilities(&[a, b]);
        for (x, y) in full.iter().zip(&reduced) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn segmentation_reproduces_unitary_when_supported(
        circ in arb_circuit(4, 14),
        target in 0usize..4,
    ) {
        if let Ok(segs) = passes::split_into_segments(&circ, &[target]) {
            let mut rebuilt = Circuit::new(4);
            for s in &segs {
                for i in s.local.iter().chain(&s.check) {
                    rebuilt.push(i.gate.clone(), i.qubits.clone());
                }
            }
            prop_assert!(rebuilt.unitary().approx_eq(&circ.unitary(), 1e-8));
        }
    }

    #[test]
    fn hellinger_fidelity_bounds_and_identity(
        probs in prop::collection::vec(0.0..1.0f64, 8),
        other in prop::collection::vec(0.0..1.0f64, 8),
    ) {
        prop_assume!(probs.iter().sum::<f64>() > 1e-6);
        prop_assume!(other.iter().sum::<f64>() > 1e-6);
        let p = Distribution::try_from_probs(3, probs).expect("3-bit table").normalized();
        let q = Distribution::try_from_probs(3, other).expect("3-bit table").normalized();
        let f = hellinger_fidelity(&p, &q);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&f));
        prop_assert!((hellinger_fidelity(&p, &p) - 1.0).abs() < 1e-9);
        prop_assert!((f - hellinger_fidelity(&q, &p)).abs() < 1e-12);
    }

    #[test]
    fn bayesian_update_sets_marginal_and_preserves_normalization(
        probs in prop::collection::vec(0.01..1.0f64, 16),
        local in prop::collection::vec(0.01..1.0f64, 2),
        pos in 0usize..4,
    ) {
        let g = Distribution::try_from_probs(4, probs).expect("4-bit table").normalized();
        let l = Distribution::try_from_probs(1, local).expect("1-bit table").normalized();
        let updated = recombine::try_bayesian_update(&g, &l, &[pos]).expect("position in range");
        prop_assert!((updated.total() - 1.0).abs() < 1e-9);
        let m = updated.marginal(&[pos]);
        prop_assert!((m.prob(0) - l.prob(0)).abs() < 1e-9);
    }

    #[test]
    fn wire_cut_reconstructs_random_circuits(
        circ in arb_circuit(3, 10),
        position in 1usize..8,
    ) {
        let position = position.min(circ.len());
        let cut = qutracer::cut::CutPoint { qubit: 0, position };
        let programs = qutracer::cut::build_cut_programs(&circ, cut, &qutracer::cut::reduced_cut_terms());
        let mut results = Vec::new();
        for cp in &programs {
            let dist = ideal_distribution(&cp.program, &[cp.old_wire, cp.new_wire, 1, 2]);
            results.push((cp.term.clone(), dist));
        }
        let quasi = qutracer::cut::recombine(&results);
        let direct = ideal_distribution(&Program::from_circuit(&circ), &[0, 1, 2]);
        for (i, a) in quasi.iter().enumerate() {
            let b = direct.prob(i as u64);
            prop_assert!((a - b).abs() < 1e-7, "cut mismatch {a} vs {b}");
        }
    }

    #[test]
    fn twirled_channels_remain_trace_preserving(
        t1 in 1.0e4..2.0e5f64,
        ratio in 0.2..1.9f64,
        time in 1.0..800.0f64,
    ) {
        let t2 = (t1 * ratio).min(2.0 * t1);
        let ch = qutracer::sim::KrausChannel::thermal_relaxation(t1, t2, time);
        let tw = ch.pauli_twirled().expect("1q channel twirls");
        let probs = tw.mixture_probs().expect("twirled is a mixture");
        let total: f64 = probs.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-8);
    }
}
