//! Property-based tests for the check machinery: QSPC must agree exactly
//! with the severed density-matrix reference in the noiseless limit for
//! *arbitrary* inputs, and checks must never break normalization.

use proptest::prelude::*;
use qt_circuit::Circuit;
use qt_math::{Matrix, Pauli};
use qt_pcs::{combine_single_mitigated, tabulate_single, QspcConfig, QspcSingleSpec, QspcStats};
use qt_sim::{Backend, Executor, NoiseModel, Program, Runner};
use std::collections::BTreeMap;

/// Mitigated expectations on traced qubit 0 in plan form: build the
/// ensemble, execute it as one batch, tabulate and combine.
fn mitigate(
    exec: &Executor,
    prefix: &Circuit,
    segment: &Circuit,
    config: QspcConfig,
    rho_in: &Matrix,
    outputs: &[Pauli],
) -> (BTreeMap<Pauli, f64>, f64, QspcStats) {
    let spec = QspcSingleSpec {
        qubit: 0,
        prefix,
        segment,
        config,
    };
    let ens = spec.ensemble(&spec.mitigated_bases(outputs));
    let (e, stats) = tabulate_single(&ens.keys, &exec.run_batch(&ens.jobs));
    let (exps, den) = combine_single_mitigated(&config, rho_in, outputs, &e);
    (exps, den, stats)
}

/// A random Z-checkable segment on 3 qubits for the traced qubit 0:
/// diagonal couplings from qubit 0, anything on qubits 1–2.
fn arb_segment() -> impl Strategy<Value = Circuit> {
    prop::collection::vec(
        prop_oneof![
            (-2.0..2.0f64).prop_map(|t| (0usize, t)), // cp(0,1,t)
            (-2.0..2.0f64).prop_map(|t| (1usize, t)), // cp(0,2,t)
            (-2.0..2.0f64).prop_map(|t| (2usize, t)), // ry(1,t)
            (-2.0..2.0f64).prop_map(|t| (3usize, t)), // ry(2,t)
            (-2.0..2.0f64).prop_map(|t| (4usize, t)), // cz(1,2) ignore t
            (-2.0..2.0f64).prop_map(|t| (5usize, t)), // rz(0,t)
        ],
        1..8,
    )
    .prop_map(|ops| {
        let mut c = Circuit::new(3);
        for (kind, t) in ops {
            match kind {
                0 => c.cp(0, 1, t),
                1 => c.cp(0, 2, t),
                2 => c.ry(1, t),
                3 => c.ry(2, t),
                4 => c.cz(1, 2),
                _ => c.rz(0, t),
            };
        }
        c
    })
}

fn arb_prefix() -> impl Strategy<Value = Circuit> {
    ((-2.0..2.0f64), (-2.0..2.0f64)).prop_map(|(a, b)| {
        let mut c = Circuit::new(3);
        c.ry(1, a).ry(2, b);
        c
    })
}

fn arb_bloch() -> impl Strategy<Value = Matrix> {
    (-0.57f64..0.57, -0.57f64..0.57, -0.57f64..0.57)
        .prop_map(|(x, y, z)| qt_math::states::density_from_bloch([x, y, z]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Noiseless QSPC equals the severed DM reference for any mixed input
    /// and any Z-checkable segment, with den = 1.
    #[test]
    fn noiseless_qspc_matches_reference(
        prefix in arb_prefix(),
        segment in arb_segment(),
        rho_in in arb_bloch(),
    ) {
        let exec = Executor::with_backend(NoiseModel::ideal(), Backend::DensityMatrix);
        let (exps, den, _) = mitigate(
            &exec,
            &prefix,
            &segment,
            QspcConfig::default(),
            &rho_in,
            &[Pauli::X, Pauli::Y, Pauli::Z],
        );
        prop_assert!((den - 1.0).abs() < 1e-7, "den {den}");

        // Reference: prefix; reset(0 → rho_in); segment — exact DM.
        let mut rho = exec.run_dm(&Program::from_circuit(&prefix));
        rho.reset_qubits(&[0], &rho_in);
        for i in segment.instructions() {
            rho.apply_instruction(i);
        }
        for (p, m) in [
            (Pauli::X, qt_math::pauli::x2()),
            (Pauli::Y, qt_math::pauli::y2()),
            (Pauli::Z, qt_math::pauli::z2()),
        ] {
            let want = rho.expectation_local(&m, &[0]).re;
            prop_assert!((exps[&p] - want).abs() < 1e-7,
                "⟨{p}⟩: {} vs {}", exps[&p], want);
        }
    }

    /// Under noise, mitigated expectations stay in [−1, 1] and the
    /// denominator stays meaningful (bounded by 1 + tolerance).
    #[test]
    fn noisy_qspc_stays_physical(
        prefix in arb_prefix(),
        segment in arb_segment(),
        rho_in in arb_bloch(),
        p2 in 0.0..0.12f64,
        ro in 0.0..0.2f64,
    ) {
        let exec = Executor::with_backend(
            NoiseModel::depolarizing(0.002, p2).with_readout(ro),
            Backend::DensityMatrix,
        );
        let (exps, den, stats) = mitigate(
            &exec,
            &prefix,
            &segment,
            QspcConfig::default(),
            &rho_in,
            &[Pauli::X, Pauli::Z],
        );
        prop_assert!(den <= 1.0 + 1e-6, "den {den}");
        prop_assert!(den > 0.0, "den {den}");
        for (&p, &v) in &exps {
            prop_assert!((-1.0..=1.0).contains(&v), "⟨{p}⟩ = {v}");
        }
        prop_assert!(stats.n_circuits >= 4);
    }

    /// The SQEM configuration (6 preps, no optimization) agrees with the
    /// default configuration in the noiseless limit.
    #[test]
    fn sqem_config_agrees_noiselessly(
        prefix in arb_prefix(),
        segment in arb_segment(),
        rho_in in arb_bloch(),
    ) {
        let exec = Executor::with_backend(NoiseModel::ideal(), Backend::DensityMatrix);
        let run =
            |config: QspcConfig| mitigate(&exec, &prefix, &segment, config, &rho_in, &[Pauli::Z]);
        let (a, _, sa) = run(QspcConfig::default());
        let (b, _, sb) = run(QspcConfig::sqem());
        prop_assert!((a[&Pauli::Z] - b[&Pauli::Z]).abs() < 1e-7);
        // SQEM runs more circuits (6 preps vs 4).
        prop_assert!(sb.n_circuits > sa.n_circuits);
    }
}
