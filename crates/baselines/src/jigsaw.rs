//! The Jigsaw protocol (Das, Tannu & Qureshi, MICRO '21): measurement
//! subsetting.
//!
//! Half of the shot budget runs the circuit measuring all qubits (the noisy
//! *global* distribution); the other half is split over circuit copies that
//! measure only small subsets, whose local distributions suffer less
//! measurement crosstalk. The local distributions then refine the global
//! one by Bayesian recombination. Jigsaw does not touch gate errors.

use crate::strategy::{execute_strategy, ExecutionRecord, MitigationStrategy, StrategyError};
use crate::OverheadStats;
use qt_circuit::Circuit;
use qt_dist::{recombine, Distribution};
use qt_sim::{BatchJob, Program, RunOutput, Runner};

/// Result of a Jigsaw run.
#[derive(Debug, Clone)]
pub struct JigsawReport {
    /// The refined global distribution over the measured qubits.
    pub distribution: Distribution,
    /// The unrefined (noisy) global distribution.
    pub global: Distribution,
    /// Per-subset local distributions, with their bit positions in the
    /// measured list.
    pub locals: Vec<(Distribution, Vec<usize>)>,
    /// Overheads.
    pub stats: OverheadStats,
}

/// Stage-1 output of Jigsaw: the global mode plus one subset mode per
/// group, as independent circuit copies ready to batch.
#[derive(Debug, Clone)]
pub struct JigsawPlan {
    subsets: Vec<Vec<usize>>,
    jobs: Vec<BatchJob>,
}

/// Plans a Jigsaw run with the given subset size (the paper's
/// recommendation is 2).
///
/// Subsets are consecutive non-overlapping groups over the measured qubits
/// (the last group wraps backwards if the count does not divide evenly).
///
/// # Panics
///
/// Panics if `subset_size` is 0 or exceeds the measured count.
pub fn plan_jigsaw(circuit: &Circuit, measured: &[usize], subset_size: usize) -> JigsawPlan {
    assert!(subset_size >= 1, "subset size must be positive");
    assert!(
        subset_size <= measured.len(),
        "subset larger than the measured register"
    );
    let program = Program::from_circuit(circuit);

    // Partition the measured qubits into subsets.
    let mut subsets: Vec<Vec<usize>> = Vec::new();
    let mut start = 0;
    while start < measured.len() {
        let end = (start + subset_size).min(measured.len());
        let lo = end.saturating_sub(subset_size);
        subsets.push((lo..end).collect()); // positions in `measured`
        start = end;
    }

    // Global mode plus every subset mode (independent circuit copies).
    let mut jobs = vec![BatchJob::new(program.clone(), measured.to_vec())];
    for positions in &subsets {
        let qubits: Vec<usize> = positions.iter().map(|&p| measured[p]).collect();
        jobs.push(BatchJob::new(program.clone(), qubits));
    }
    JigsawPlan { subsets, jobs }
}

impl JigsawPlan {
    /// Number of circuit copies the batched execution runs.
    pub fn n_programs(&self) -> usize {
        self.jobs.len()
    }
}

impl MitigationStrategy for JigsawPlan {
    type Report = JigsawReport;

    fn name(&self) -> &'static str {
        "jigsaw"
    }

    fn batch_jobs(&self) -> Vec<BatchJob> {
        self.jobs.clone()
    }

    fn n_jobs(&self) -> usize {
        self.jobs.len()
    }

    fn recombine_outputs(
        &self,
        outputs: Vec<RunOutput>,
        record: &ExecutionRecord,
    ) -> Result<JigsawReport, StrategyError> {
        if outputs.len() != self.jobs.len() {
            return Err(StrategyError::ResultCountMismatch {
                expected: self.jobs.len(),
                got: outputs.len(),
            });
        }
        // Every mode feeds the Bayesian update, so Jigsaw cannot degrade
        // around any lost job: the first terminal failure is the error.
        if let Some(f) = &record.failures {
            f.ensure_no_failures()?;
        }
        let mut outs = outputs.into_iter();
        let global_out = outs.next().expect("global job present");
        let global = global_out.dist.clone();

        let mut locals = Vec::new();
        let mut n_circuits = 1;
        for (positions, out) in self.subsets.iter().zip(outs) {
            n_circuits += 1;
            locals.push((out.dist, positions.clone()));
        }

        let refined = recombine::try_bayesian_update_all(
            &global,
            locals.iter().map(|(d, p)| (d, p.as_slice())),
        )
        .map_err(|e| StrategyError::Recombine {
            detail: e.to_string(),
        })?;
        Ok(JigsawReport {
            distribution: refined,
            global,
            locals,
            stats: OverheadStats {
                n_circuits,
                // Jigsaw splits the original budget: global mode + subset
                // mode together cost one original-shot budget.
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

/// Runs Jigsaw end to end: one batch through [`execute_strategy`], then
/// the Bayesian recombination.
///
/// # Panics
///
/// Panics if `subset_size` is 0 or exceeds the measured count, or on a
/// runner violating the batch contract (the strategy surface reports it
/// as a typed error; this convenience unwraps it).
pub fn run_jigsaw<R: Runner>(
    runner: &R,
    circuit: &Circuit,
    measured: &[usize],
    subset_size: usize,
) -> JigsawReport {
    execute_strategy(&plan_jigsaw(circuit, measured, subset_size), runner)
        .expect("runner violated the batch contract")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_algos::vqe_ansatz;
    use qt_dist::hellinger_fidelity;
    use qt_sim::{ideal_distribution, Backend, Executor, NoiseModel, ReadoutModel};

    #[test]
    fn jigsaw_improves_under_measurement_crosstalk() {
        let circ = vqe_ansatz(6, 1, 5);
        let measured: Vec<usize> = (0..6).collect();
        let ideal = ideal_distribution(&Program::from_circuit(&circ), &measured);
        let noise =
            NoiseModel::ideal().with_readout_model(ReadoutModel::with_crosstalk(0.01, 0.02));
        let exec = Executor::with_backend(noise, Backend::DensityMatrix);
        let report = run_jigsaw(&exec, &circ, &measured, 2);
        let f_before = hellinger_fidelity(&report.global, &ideal);
        let f_after = hellinger_fidelity(&report.distribution, &ideal);
        assert!(
            f_after > f_before + 0.01,
            "jigsaw should help with crosstalk: {f_before} -> {f_after}"
        );
    }

    #[test]
    fn jigsaw_is_neutral_without_crosstalk() {
        // The paper's Fig. 7/8 observation: without measurement crosstalk
        // Jigsaw's local distributions see the same noise as the global.
        let circ = vqe_ansatz(5, 1, 2);
        let measured: Vec<usize> = (0..5).collect();
        let ideal = ideal_distribution(&Program::from_circuit(&circ), &measured);
        let noise = NoiseModel::depolarizing(0.001, 0.01).with_readout(0.05);
        let exec = Executor::with_backend(noise, Backend::DensityMatrix);
        let report = run_jigsaw(&exec, &circ, &measured, 2);
        let f_before = hellinger_fidelity(&report.global, &ideal);
        let f_after = hellinger_fidelity(&report.distribution, &ideal);
        assert!(
            (f_after - f_before).abs() < 0.02,
            "jigsaw should be ~neutral: {f_before} vs {f_after}"
        );
    }

    #[test]
    fn subsets_cover_all_measured_bits() {
        let circ = vqe_ansatz(5, 1, 2);
        let measured: Vec<usize> = (0..5).collect();
        let exec = Executor::with_backend(NoiseModel::ideal(), Backend::DensityMatrix);
        let report = run_jigsaw(&exec, &circ, &measured, 2);
        let mut covered: Vec<usize> = report
            .locals
            .iter()
            .flat_map(|(_, pos)| pos.clone())
            .collect();
        covered.sort_unstable();
        covered.dedup();
        assert_eq!(covered, vec![0, 1, 2, 3, 4]);
        assert_eq!(report.stats.n_circuits, 1 + 3);
    }

    #[test]
    fn noiseless_jigsaw_reproduces_ideal() {
        let circ = vqe_ansatz(4, 1, 9);
        let measured: Vec<usize> = (0..4).collect();
        let exec = Executor::with_backend(NoiseModel::ideal(), Backend::DensityMatrix);
        let report = run_jigsaw(&exec, &circ, &measured, 2);
        let ideal = ideal_distribution(&Program::from_circuit(&circ), &measured);
        assert!(hellinger_fidelity(&report.distribution, &ideal) > 1.0 - 1e-9);
    }
}
