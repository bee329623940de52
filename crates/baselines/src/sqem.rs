//! The SQEM baseline (Liu, Gonzales & Saleem): classical simulators as
//! quantum error mitigators via circuit cutting.
//!
//! SQEM virtualizes the PCS checking circuit with *standard* circuit
//! cutting: the full 3-basis × 6-state reconstruction on the original,
//! unoptimized circuit. It therefore mitigates gate and measurement errors
//! like QSPC, but runs more and larger circuits (no false-dependency
//! removal, no state-preparation reduction) — and its cost grows
//! exponentially with the number of check layers, so multi-layer circuits
//! are unsupported (the paper's `N/A` table entries).
//!
//! Like the QuTracer framework itself, SQEM is staged: [`plan_sqem`]
//! performs the classical analysis and generates every reconstruction
//! circuit up front, [`execute_strategy`] runs them all as one
//! deduplicated batch, and the [`MitigationStrategy`] recombination
//! reconstructs the local states classically. [`run_sqem`] wraps the
//! three stages.

use crate::strategy::{execute_strategy, ExecutionRecord, MitigationStrategy, StrategyError};
use crate::OverheadStats;
use qt_circuit::{passes, Circuit, Instruction};
use qt_dist::{recombine, Distribution};
use qt_math::{Matrix, Pauli};
use qt_pcs::{
    bloch_state_from_expectations, combine_mitigated, tabulate, EnsembleKey, QspcConfig, QspcSpec,
    SubsetPauli,
};
use qt_sim::{BatchJob, JobInterner, Program, RunOutput, Runner};

/// Result of an SQEM run.
#[derive(Debug, Clone)]
pub struct SqemReport {
    /// The refined global distribution.
    pub distribution: Distribution,
    /// The unrefined (noisy) global distribution.
    pub global: Distribution,
    /// Overheads.
    pub stats: OverheadStats,
}

/// Returned when a workload needs more than one check layer per traced
/// qubit: SQEM's reconstruction cost is exponential in the layer count
/// (`3^m · 4^n` circuit copies), so the paper marks those entries `N/A`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqemUnsupported {
    /// The qubit that needed multiple check layers.
    pub qubit: usize,
    /// How many check layers it needed.
    pub layers: usize,
}

impl std::fmt::Display for SqemUnsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SQEM needs {} check layers on qubit {} (exponential cost)",
            self.layers, self.qubit
        )
    }
}

impl std::error::Error for SqemUnsupported {}

/// The reconstructed components of a traced qubit: its whole Bloch vector.
const BLOCH_AXES: [SubsetPauli; 3] = [
    [Pauli::X, Pauli::I],
    [Pauli::Y, Pauli::I],
    [Pauli::Z, Pauli::I],
];

/// The planned reconstruction of one traced qubit.
#[derive(Debug, Clone)]
struct SqemQubitPlan {
    /// Bit position in the measured list.
    pos: usize,
    /// Classically tracked state at the check cut (or the final state when
    /// no check segment touches the qubit).
    rho_pre: Matrix,
    /// The single reconstruction ensemble, if a check exists.
    check: Option<SqemCheckPlan>,
}

#[derive(Debug, Clone)]
struct SqemCheckPlan {
    /// Ensemble keys aligned with `slots`.
    keys: Vec<EnsembleKey>,
    /// Indices into the plan's deduplicated program table.
    slots: Vec<usize>,
    /// Subset-local instructions applied classically after the check.
    post_local: Vec<Instruction>,
}

/// Stage-1 output of SQEM: every reconstruction circuit, deduplicated.
#[derive(Debug, Clone)]
pub struct SqemPlan {
    programs: Vec<BatchJob>,
    global_slot: usize,
    qubits: Vec<SqemQubitPlan>,
}

/// Plans an SQEM run: segments every measured qubit's wire and generates
/// the full 6-state × 3-basis reconstruction ensemble for its (single)
/// check layer.
///
/// # Errors
///
/// Returns [`SqemUnsupported`] if any traced qubit needs more than one
/// check layer, or if a qubit cannot be traced at all (non-diagonal
/// coupling).
pub fn plan_sqem(circuit: &Circuit, measured: &[usize]) -> Result<SqemPlan, SqemUnsupported> {
    let mut dedup = JobInterner::new();
    let mut programs: Vec<BatchJob> = Vec::new();
    let global_slot = dedup.intern(
        &mut programs,
        BatchJob::new(Program::from_circuit(circuit), measured.to_vec()),
    );

    let mut qubits = Vec::with_capacity(measured.len());
    for (pos, &qubit) in measured.iter().enumerate() {
        let segments = passes::split_into_segments(circuit, &[qubit])
            .map_err(|_| SqemUnsupported { qubit, layers: 0 })?;
        let checking: Vec<usize> = segments
            .iter()
            .enumerate()
            .filter(|(_, s)| s.check_touches(&[qubit]))
            .map(|(i, _)| i)
            .collect();
        if checking.len() > 1 {
            return Err(SqemUnsupported {
                qubit,
                layers: checking.len(),
            });
        }

        // Classically track the local state up to the check; record the
        // local blocks after it for classical post-application.
        let mut rho = qt_math::states::PrepState::Zero.projector();
        let mut prefix = Circuit::new(circuit.n_qubits());
        let mut check: Option<SqemCheckPlan> = None;
        for (i, seg) in segments.iter().enumerate() {
            match &mut check {
                None => rho = apply_local(&rho, &seg.local, Some(qubit)),
                Some(cp) => cp.post_local.extend(seg.local.iter().cloned()),
            }
            for instr in &seg.local {
                prefix.push(instr.gate.clone(), instr.qubits.clone());
            }
            if checking.contains(&i) {
                let mut segment = Circuit::new(circuit.n_qubits());
                for instr in &seg.check {
                    segment.push(instr.gate.clone(), instr.qubits.clone());
                }
                let spec = QspcSpec {
                    qubits: &[qubit],
                    prefix: &prefix,
                    segment: &segment,
                    config: QspcConfig::sqem(),
                };
                let ens = spec.ensemble(&spec.settings(&BLOCH_AXES));
                let slots = ens
                    .jobs
                    .into_iter()
                    .map(|job| dedup.intern(&mut programs, job))
                    .collect();
                check = Some(SqemCheckPlan {
                    keys: ens.keys,
                    slots,
                    post_local: Vec::new(),
                });
            }
            for instr in &seg.check {
                prefix.push(instr.gate.clone(), instr.qubits.clone());
            }
        }
        qubits.push(SqemQubitPlan {
            pos,
            rho_pre: rho,
            check,
        });
    }

    Ok(SqemPlan {
        programs,
        global_slot,
        qubits,
    })
}

impl SqemPlan {
    /// Number of distinct programs the batched execution runs.
    pub fn n_programs(&self) -> usize {
        self.programs.len()
    }
}

impl MitigationStrategy for SqemPlan {
    type Report = SqemReport;

    fn name(&self) -> &'static str {
        "sqem"
    }

    fn batch_jobs(&self) -> Vec<BatchJob> {
        self.programs.clone()
    }

    fn n_jobs(&self) -> usize {
        self.programs.len()
    }

    fn recombine_outputs(
        &self,
        outputs: Vec<RunOutput>,
        record: &ExecutionRecord,
    ) -> Result<SqemReport, StrategyError> {
        if outputs.len() != self.programs.len() {
            return Err(StrategyError::ResultCountMismatch {
                expected: self.programs.len(),
                got: outputs.len(),
            });
        }
        // Every reconstruction circuit contributes to some qubit's
        // tomographic combination, so SQEM cannot degrade around any lost
        // job: the first terminal failure is the error.
        if let Some(f) = &record.failures {
            f.ensure_no_failures()?;
        }
        let global_out = &outputs[self.global_slot];
        let global = global_out.dist.clone();

        let mut locals = Vec::new();
        let mut n_circuits = 1usize;
        let mut mitig_2q_total = 0usize;
        let mut mitig_circuits = 0usize;
        for qp in &self.qubits {
            let mut rho = qp.rho_pre.clone();
            if let Some(cp) = &qp.check {
                let outs: Vec<RunOutput> = cp.slots.iter().map(|&s| outputs[s].clone()).collect();
                let (table, stats) = tabulate(&cp.keys, &outs);
                let (exps, _den) =
                    combine_mitigated(&QspcConfig::sqem(), &rho, &BLOCH_AXES, &table);
                rho = bloch_state_from_expectations(&exps);
                rho = apply_local(&rho, &cp.post_local, None);
                n_circuits += stats.n_circuits;
                mitig_circuits += stats.n_circuits;
                mitig_2q_total += stats.total_two_qubit_gates;
            }
            let p0 = rho[(0, 0)].re.clamp(0.0, 1.0);
            locals.push((
                Distribution::try_from_probs(1, vec![p0, 1.0 - p0])
                    .expect("one-qubit reconstructed state")
                    .normalized(),
                vec![qp.pos],
            ));
        }

        let refined = recombine::try_bayesian_update_all(
            &global,
            locals.iter().map(|(d, p)| (d, p.as_slice())),
        )
        .map_err(|e| StrategyError::Recombine {
            detail: e.to_string(),
        })?;
        Ok(SqemReport {
            distribution: refined,
            global,
            stats: OverheadStats {
                n_circuits,
                normalized_shots: n_circuits as f64,
                avg_two_qubit_gates: if mitig_circuits > 0 {
                    mitig_2q_total as f64 / mitig_circuits as f64
                } else {
                    0.0
                },
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

/// Runs SQEM with subset size 1 over every measured qubit: a wrapper over
/// `plan → execute → recombine`.
///
/// # Errors
///
/// Returns [`SqemUnsupported`] if any traced qubit needs more than one
/// check layer, or if a qubit cannot be traced at all (non-diagonal
/// coupling).
///
/// # Panics
///
/// Panics on a runner violating the batch contract (the strategy surface
/// reports it as a typed error; this convenience unwraps it).
pub fn run_sqem<R: Runner>(
    runner: &R,
    circuit: &Circuit,
    measured: &[usize],
) -> Result<SqemReport, SqemUnsupported> {
    let plan = plan_sqem(circuit, measured)?;
    Ok(execute_strategy(&plan, runner).expect("runner violated the batch contract"))
}

/// Applies subset-local single-qubit instructions to a 2×2 state. The
/// expected operand is a debug aid only (`None` for post-check blocks
/// whose operand was validated at plan time).
fn apply_local(rho: &Matrix, instrs: &[Instruction], qubit: Option<usize>) -> Matrix {
    let mut u = Matrix::identity(2);
    for instr in instrs {
        debug_assert!(qubit.is_none_or(|q| instr.qubits == vec![q]));
        u = instr.gate.matrix().mul(&u);
    }
    u.mul(rho).mul(&u.dagger())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_algos::{bernstein_vazirani, vqe_ansatz};
    use qt_dist::hellinger_fidelity;
    use qt_sim::{ideal_distribution, Backend, Executor, NoiseModel};

    #[test]
    fn sqem_mitigates_vqe_single_layer() {
        let circ = vqe_ansatz(5, 1, 8);
        let measured: Vec<usize> = (0..5).collect();
        let ideal = ideal_distribution(&Program::from_circuit(&circ), &measured);
        let noise = NoiseModel::depolarizing(0.002, 0.02).with_readout(0.05);
        let exec = Executor::with_backend(noise, Backend::DensityMatrix);
        let report = run_sqem(&exec, &circ, &measured).unwrap();
        let before = hellinger_fidelity(&report.global, &ideal);
        let after = hellinger_fidelity(&report.distribution, &ideal);
        assert!(after > before, "SQEM should help: {before} -> {after}");
    }

    #[test]
    fn sqem_handles_bernstein_vazirani() {
        let circ = bernstein_vazirani(4, 0b1101);
        let measured: Vec<usize> = (0..4).collect();
        let ideal = ideal_distribution(&Program::from_circuit(&circ), &measured);
        let noise = NoiseModel::depolarizing(0.003, 0.03).with_readout(0.08);
        let exec = Executor::with_backend(noise, Backend::DensityMatrix);
        let report = run_sqem(&exec, &circ, &measured).unwrap();
        let before = hellinger_fidelity(&report.global, &ideal);
        let after = hellinger_fidelity(&report.distribution, &ideal);
        assert!(after > before + 0.05, "{before} -> {after}");
    }

    #[test]
    fn sqem_rejects_multi_layer_circuits() {
        let circ = vqe_ansatz(4, 3, 8);
        let measured: Vec<usize> = (0..4).collect();
        let exec = Executor::with_backend(NoiseModel::ideal(), Backend::DensityMatrix);
        let err = run_sqem(&exec, &circ, &measured).unwrap_err();
        assert!(err.layers > 1);
    }

    #[test]
    fn sqem_uses_more_circuits_than_reduced_qspc_would() {
        // 6 preps × 3 bases per traced qubit (+1 global).
        let circ = vqe_ansatz(4, 1, 8);
        let measured: Vec<usize> = (0..4).collect();
        let exec = Executor::with_backend(
            NoiseModel::depolarizing(0.001, 0.01),
            Backend::DensityMatrix,
        );
        let report = run_sqem(&exec, &circ, &measured).unwrap();
        assert_eq!(report.stats.n_circuits, 1 + 4 * 18);
    }

    /// SQEM reports are pinned bit for bit on the two pinned subset-walk
    /// workloads it supports (one check layer per qubit): FNV-1a over the
    /// refined and global distributions and the overhead statistics.
    #[test]
    fn sqem_reports_are_pinned() {
        fn eat(h: &mut u64, word: u64) {
            for byte in word.to_le_bytes() {
                *h = (*h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let exec = Executor::with_backend(
            NoiseModel::depolarizing(0.003, 0.03)
                .with_readout_model(qt_sim::ReadoutModel::with_crosstalk(0.04, 0.02)),
            Backend::DensityMatrix,
        );
        let workloads = [
            (vqe_ansatz(5, 1, 3), (0..5).collect::<Vec<usize>>()),
            (bernstein_vazirani(5, 0b10111), (0..5).collect()),
        ];
        let got = workloads.map(|(circ, measured)| {
            let report = run_sqem(&exec, &circ, &measured).unwrap();
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for dist in [&report.distribution, &report.global] {
                for (outcome, p) in dist.iter() {
                    eat(&mut h, outcome);
                    eat(&mut h, p.to_bits());
                }
            }
            let st = &report.stats;
            eat(&mut h, st.n_circuits as u64);
            eat(&mut h, st.normalized_shots.to_bits());
            eat(&mut h, st.avg_two_qubit_gates.to_bits());
            eat(&mut h, st.global_two_qubit_gates as u64);
            h
        });
        assert_eq!(
            got,
            [0x1329_5a05_12b1_72c7, 0x923f_baac_01fe_42d9],
            "{got:#x?}"
        );
    }

    #[test]
    fn sqem_plan_is_inspectable_and_batches_once() {
        let circ = vqe_ansatz(4, 1, 8);
        let measured: Vec<usize> = (0..4).collect();
        let plan = plan_sqem(&circ, &measured).unwrap();
        // 1 global + 4 qubits × 18 ensemble members, all distinct programs.
        assert_eq!(plan.n_programs(), 1 + 4 * 18);
        let exec = Executor::with_backend(
            NoiseModel::depolarizing(0.001, 0.01),
            Backend::DensityMatrix,
        );
        let report = execute_strategy(&plan, &exec).unwrap();
        let direct = run_sqem(&exec, &circ, &measured).unwrap();
        let xs: Vec<(u64, f64)> = report.distribution.iter().collect();
        let ys: Vec<(u64, f64)> = direct.distribution.iter().collect();
        assert_eq!(xs.len(), ys.len());
        for ((i, a), (j, b)) in xs.iter().zip(&ys) {
            assert_eq!(i, j);
            assert!((a - b).abs() < 1e-15);
        }
    }
}
