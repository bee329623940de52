//! Truncated Neumann-series measurement-error mitigation (Wang, Yu &
//! Wang, "Mitigating Quantum Errors via Truncated Neumann Series").
//!
//! The measured distribution is `p̃ = A·p` where `A` is the readout
//! confusion map. Calibration-matrix methods invert `A` explicitly —
//! exponential in the register width and numerically brittle. The Neumann
//! approach instead expands the inverse as a truncated geometric series,
//!
//! ```text
//! A⁻¹ ≈ Σ_{k=0}^{K} (I − A)^k  =  Σ_{j=0}^{K} (−1)^j · C(K+1, j+1) · A^j
//! ```
//!
//! (the right-hand form by the hockey-stick identity), which converges
//! whenever readout error rates stay below one half (‖I − A‖ < 1). The
//! mitigated estimate therefore needs only *forward* applications of `A`
//! to the measured distribution — here applied classically from the known
//! calibration model via [`qt_sim::apply_readout`], so the whole method
//! costs one circuit execution and no inversion. The truncation order `K`
//! trades residual bias `(I − A)^{K+1}` against noise amplification.

use crate::strategy::{execute_strategy, ExecutionRecord, MitigationStrategy, StrategyError};
use crate::OverheadStats;
use qt_circuit::Circuit;
use qt_dist::Distribution;
use qt_sim::{apply_readout, BatchJob, Program, ReadoutModel, Runner};

/// Result of a truncated-Neumann mitigation run.
#[derive(Debug, Clone)]
pub struct NeumannReport {
    /// The mitigated distribution over the measured qubits (clamped to
    /// the simplex and renormalized).
    pub distribution: Distribution,
    /// The unmitigated (noisy) global distribution.
    pub global: Distribution,
    /// Truncation order `K` actually applied.
    pub order: usize,
    /// Overheads.
    pub stats: OverheadStats,
}

/// Stage-1 output of the Neumann baseline: a single global job plus the
/// calibration model and truncation order recombination needs.
#[derive(Debug, Clone)]
pub struct NeumannPlan {
    job: BatchJob,
    measured: Vec<usize>,
    readout: ReadoutModel,
    order: usize,
}

/// Plans a truncated-Neumann run: one global execution of `circuit` over
/// `measured`, mitigated classically with the readout calibration model
/// at truncation order `order` (`order = 0` is the identity — the raw
/// measurement).
pub fn plan_neumann(
    circuit: &Circuit,
    measured: &[usize],
    readout: &ReadoutModel,
    order: usize,
) -> NeumannPlan {
    NeumannPlan {
        job: BatchJob::new(Program::from_circuit(circuit), measured.to_vec()),
        measured: measured.to_vec(),
        readout: readout.clone(),
        order,
    }
}

impl NeumannPlan {
    /// Number of circuit copies the batched execution runs (always 1: the
    /// series is applied classically, not by re-measurement).
    pub fn n_programs(&self) -> usize {
        1
    }

    /// The truncation order.
    pub fn order(&self) -> usize {
        self.order
    }
}

impl MitigationStrategy for NeumannPlan {
    type Report = NeumannReport;

    fn name(&self) -> &'static str {
        "neumann"
    }

    fn batch_jobs(&self) -> Vec<BatchJob> {
        vec![self.job.clone()]
    }

    fn n_jobs(&self) -> usize {
        1
    }

    fn recombine_outputs(
        &self,
        outputs: Vec<qt_sim::RunOutput>,
        record: &ExecutionRecord,
    ) -> Result<NeumannReport, StrategyError> {
        if outputs.len() != 1 {
            return Err(StrategyError::ResultCountMismatch {
                expected: 1,
                got: outputs.len(),
            });
        }
        if let Some(f) = &record.failures {
            f.ensure_no_failures()?;
        }
        let global_out = &outputs[0];
        let global = global_out.dist.clone();
        let mitigated = neumann_mitigate(&global, &self.measured, &self.readout, self.order);
        Ok(NeumannReport {
            distribution: mitigated,
            global,
            order: self.order,
            stats: OverheadStats {
                n_circuits: 1,
                normalized_shots: 1.0,
                avg_two_qubit_gates: global_out.two_qubit_gates as f64,
                global_two_qubit_gates: global_out.two_qubit_gates,
                batch: None,
                total_shots: record.sampled_shots.as_ref().map(|s| s.iter().sum()),
                round_shots: record.round_shots.clone(),
                engine_mix: record.engine_mix.clone(),
                failures: record.failures.as_ref().map(|f| f.stats),
            },
        })
    }
}

/// Applies the truncated Neumann series of order `K = order` to a noisy
/// distribution: `p ≈ Σ_{j=0}^{K} (−1)^j · C(K+1, j+1) · Aʲ · p̃`, with
/// `A` the forward readout map of `readout` over `measured`. The signed
/// combination can leave the simplex; negative mass is clamped to zero
/// and the result renormalized (the standard projection).
///
/// `order = 0` returns the input unchanged (coefficient `C(1,1) = 1`).
///
/// # Panics
///
/// Panics if `noisy` has more bits than `measured` entries, or if a noisy
/// readout is requested over a distribution too wide to densify (the
/// forward map fills the outcome space).
pub fn neumann_mitigate(
    noisy: &Distribution,
    measured: &[usize],
    readout: &ReadoutModel,
    order: usize,
) -> Distribution {
    let n_bits = noisy.n_bits();
    assert_eq!(
        n_bits,
        measured.len(),
        "distribution width must match the measured register"
    );
    let mut acc: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    let mut cur = noisy.clone();
    // c_j = (−1)^j · C(K+1, j+1), built incrementally from c_0 = K+1.
    let k = order as f64;
    let mut binom = k + 1.0; // C(K+1, 1)
    for j in 0..=order {
        let coeff = if j % 2 == 0 { binom } else { -binom };
        for (outcome, p) in cur.iter() {
            *acc.entry(outcome).or_insert(0.0) += coeff * p;
        }
        if j < order {
            binom *= (k + 1.0 - (j + 1) as f64) / (j + 2) as f64;
            cur = apply_readout(&cur, measured, readout);
        }
    }
    let entries: Vec<(u64, f64)> = acc.into_iter().filter(|&(_, p)| p > 0.0).collect();
    Distribution::try_from_entries(n_bits, entries)
        .expect("accumulated outcomes come from valid distributions")
        .normalized()
}

/// Runs the Neumann baseline end to end: one global execution, then the
/// classical series. A thin wrapper over the [`MitigationStrategy`]
/// surface.
///
/// # Panics
///
/// Panics on a runner violating the batch contract (the strategy surface
/// reports it as a typed error; this convenience unwraps it, as
/// `run_jigsaw` and `run_sqem` do).
pub fn run_neumann<R: Runner>(
    runner: &R,
    circuit: &Circuit,
    measured: &[usize],
    readout: &ReadoutModel,
    order: usize,
) -> NeumannReport {
    execute_strategy(&plan_neumann(circuit, measured, readout, order), runner)
        .expect("runner violated the batch contract")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_algos::vqe_ansatz;
    use qt_dist::hellinger_fidelity;
    use qt_sim::{ideal_distribution, Backend, Executor, NoiseModel};

    /// Dense forward confusion matrix of `readout` over `measured`:
    /// `A[out][in]` = probability of reading `out` given true `in`.
    fn confusion_matrix(measured: &[usize], readout: &ReadoutModel) -> Vec<Vec<f64>> {
        let n = measured.len();
        let dim = 1usize << n;
        let mut a = vec![vec![0.0; dim]; dim];
        for (row, row_a) in a.iter_mut().enumerate() {
            for (col, cell) in row_a.iter_mut().enumerate() {
                let mut p = 1.0;
                for (pos, &q) in measured.iter().enumerate() {
                    let (p01, p10) = readout.flip_probs(q, n);
                    let true_bit = (col >> pos) & 1;
                    let read_bit = (row >> pos) & 1;
                    p *= match (true_bit, read_bit) {
                        (0, 0) => 1.0 - p01,
                        (0, 1) => p01,
                        (1, 1) => 1.0 - p10,
                        (1, 0) => p10,
                        _ => unreachable!(),
                    };
                }
                *cell = p;
            }
        }
        a
    }

    fn mat_vec(a: &[Vec<f64>], v: &[f64]) -> Vec<f64> {
        a.iter()
            .map(|row| row.iter().zip(v).map(|(x, y)| x * y).sum())
            .collect()
    }

    /// The analytic expansion `Σ_{k=0}^{K} (I − A)^k p̃` computed by dense
    /// linear algebra — the ground truth `neumann_mitigate` must match.
    fn analytic_expansion(a: &[Vec<f64>], noisy: &[f64], order: usize) -> Vec<f64> {
        let mut acc = vec![0.0; noisy.len()];
        let mut term = noisy.to_vec(); // (I − A)^k p̃, starting at k = 0
        for k in 0..=order {
            for (s, t) in acc.iter_mut().zip(&term) {
                *s += t;
            }
            if k < order {
                let a_term = mat_vec(a, &term);
                for (t, at) in term.iter_mut().zip(&a_term) {
                    *t -= at;
                }
            }
        }
        acc
    }

    #[test]
    fn matches_analytic_expansion_on_small_registers() {
        let readout = ReadoutModel::with_crosstalk(0.03, 0.01);
        for n in 1..=3usize {
            let measured: Vec<usize> = (0..n).collect();
            // An arbitrary strictly-positive distribution.
            let dim = 1usize << n;
            let raw: Vec<f64> = (0..dim).map(|i| 1.0 + (i as f64) * 0.37).collect();
            let total: f64 = raw.iter().sum();
            let probs: Vec<f64> = raw.iter().map(|p| p / total).collect();
            let noisy_dense = mat_vec(&confusion_matrix(&measured, &readout), &probs);
            let noisy = Distribution::try_from_probs(n, noisy_dense.clone()).expect("valid probs");
            for order in 0..=4usize {
                let expect =
                    analytic_expansion(&confusion_matrix(&measured, &readout), &noisy_dense, order);
                let got = neumann_mitigate(&noisy, &measured, &readout, order);
                // Small noise keeps the expansion inside the simplex, so
                // clamping and renormalization are no-ops and the match
                // is exact up to float error.
                for (i, &e) in expect.iter().enumerate() {
                    assert!(
                        (got.prob(i as u64) - e).abs() < 1e-9,
                        "n={n} order={order} outcome={i}: {} vs {e}",
                        got.prob(i as u64)
                    );
                }
            }
        }
    }

    #[test]
    fn higher_order_converges_to_inverse() {
        // The residual bias is (I − A)^{K+1}: fidelity to the true
        // distribution must improve monotonically-ish and reach ~exact
        // recovery at moderate order.
        let readout = ReadoutModel::uniform(0.06);
        let measured = vec![0, 1, 2];
        let circ = vqe_ansatz(3, 1, 5);
        let ideal = ideal_distribution(&Program::from_circuit(&circ), &measured);
        let noisy = apply_readout(&ideal, &measured, &readout);
        let f_raw = hellinger_fidelity(&noisy, &ideal);
        let f2 = hellinger_fidelity(&neumann_mitigate(&noisy, &measured, &readout, 2), &ideal);
        let f6 = hellinger_fidelity(&neumann_mitigate(&noisy, &measured, &readout, 6), &ideal);
        assert!(f2 > f_raw, "order 2 must beat raw readout: {f_raw} -> {f2}");
        assert!(f6 >= f2 - 1e-12, "order 6 must not regress: {f2} -> {f6}");
        assert!(f6 > 0.9999, "order 6 should nearly invert: {f6}");
    }

    #[test]
    fn order_zero_is_identity() {
        let readout = ReadoutModel::uniform(0.1);
        let noisy = Distribution::try_from_probs(2, vec![0.4, 0.3, 0.2, 0.1]).unwrap();
        let got = neumann_mitigate(&noisy, &[0, 1], &readout, 0);
        for o in 0..4u64 {
            assert!((got.prob(o) - noisy.prob(o)).abs() < 1e-12);
        }
    }

    #[test]
    fn run_neumann_improves_readout_noise_end_to_end() {
        let circ = vqe_ansatz(4, 1, 7);
        let measured: Vec<usize> = (0..4).collect();
        let ideal = ideal_distribution(&Program::from_circuit(&circ), &measured);
        let readout = ReadoutModel::uniform(0.04);
        let noise = NoiseModel::ideal().with_readout_model(readout.clone());
        let exec = Executor::with_backend(noise, Backend::DensityMatrix);
        let report = run_neumann(&exec, &circ, &measured, &readout, 3);
        let f_before = hellinger_fidelity(&report.global, &ideal);
        let f_after = hellinger_fidelity(&report.distribution, &ideal);
        assert!(
            f_after > f_before + 0.005,
            "neumann should mitigate readout noise: {f_before} -> {f_after}"
        );
        assert_eq!(report.stats.n_circuits, 1);
        assert_eq!(report.order, 3);
    }
}
