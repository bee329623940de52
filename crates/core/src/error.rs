//! Typed errors of the staged pipeline.
//!
//! The monolithic entry point used to `assert!` on bad configuration and
//! silently swallow [`UnsupportedCoupling`] failures into an opaque
//! `skipped` list. The pipeline instead reports:
//!
//! * [`PlanError`] — stage 1 (analysis & circuit preparation) failures.
//!   Configuration-level errors fail [`crate::QuTracer::plan`] outright;
//!   per-subset coupling failures are recorded as [`SkippedSubset`] entries
//!   carrying the typed reason, so the rest of the plan still runs and the
//!   report keeps the *why* alongside the *what*.
//! * [`ExecError`] — stage 2/3 failures: a runner returning the wrong
//!   result count, or artifacts that no longer match the plan they were
//!   executed from.

use qt_circuit::passes::UnsupportedCoupling;

/// A stage-1 (planning) failure.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// Subset sizes other than 1 or 2 are outside the paper's framework.
    UnsupportedSubsetSize {
        /// The requested subset size.
        size: usize,
    },
    /// A measured qubit lies outside the circuit's register
    /// (`qubit >= n_qubits`) or is listed more than once
    /// (`qubit < n_qubits`).
    InvalidMeasured {
        /// The offending measured qubit.
        qubit: usize,
        /// The circuit's register size.
        n_qubits: usize,
    },
    /// Pair tracing asked for the six-state preparation basis
    /// (`use_reduced_preps: false`), which only single qubits support.
    FullPrepsForPairs,
    /// Pair tracing needs at least two measured qubits.
    MeasuredTooSmall {
        /// Qubits the configuration needs.
        needed: usize,
        /// Qubits actually measured.
        got: usize,
    },
    /// A gate couples the subset non-diagonally to the rest, so no Z check
    /// can protect it.
    UnsupportedCoupling {
        /// The traced physical qubits of the offending subset.
        subset: Vec<usize>,
        /// The underlying segmentation failure.
        source: UnsupportedCoupling,
    },
}

impl PlanError {
    /// Wraps a segmentation failure with the subset it occurred on.
    pub fn coupling(subset: Vec<usize>, source: UnsupportedCoupling) -> Self {
        PlanError::UnsupportedCoupling { subset, source }
    }
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::UnsupportedSubsetSize { size } => {
                write!(f, "subset size must be 1 or 2, got {size}")
            }
            PlanError::InvalidMeasured { qubit, n_qubits } if qubit >= n_qubits => {
                write!(
                    f,
                    "measured qubit {qubit} is outside the {n_qubits}-qubit register"
                )
            }
            PlanError::InvalidMeasured { qubit, .. } => {
                write!(f, "measured qubit {qubit} is listed more than once")
            }
            PlanError::FullPrepsForPairs => {
                write!(
                    f,
                    "pair tracing supports only the reduced preparation basis \
                     (use_reduced_preps = true)"
                )
            }
            PlanError::MeasuredTooSmall { needed, got } => {
                write!(f, "need at least {needed} measured qubits, got {got}")
            }
            PlanError::UnsupportedCoupling { subset, source } => {
                write!(f, "subset {subset:?} cannot be traced: {source}")
            }
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::UnsupportedCoupling { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A stage-2/3 (execution or recombination) failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The runner returned a different number of results than submitted.
    ResultCountMismatch {
        /// Jobs submitted.
        expected: usize,
        /// Results returned.
        got: usize,
    },
    /// Recombination consumed more results than the plan recorded — the
    /// artifacts do not belong to this plan.
    ArtifactsExhausted,
    /// A session round carried a [`qt_sim::ShotPlan`] covering a different
    /// number of jobs than the session's batch.
    ShotPlanMismatch {
        /// Jobs in the session's batch.
        expected: usize,
        /// Jobs the shot plan covers.
        got: usize,
    },
    /// A total shot budget below the plan's program count: the 1-shot
    /// floor cannot be funded without either overspending the budget or
    /// leaving zero-shot programs, so allocation refuses outright instead
    /// of producing a plan that fails later (or spends shots the caller
    /// never granted).
    InsufficientShotBudget {
        /// The granted budget.
        total_shots: usize,
        /// Deduplicated programs the plan must fund.
        n_programs: usize,
    },
    /// An adaptive shot policy carried a pilot fraction outside `[0, 1]`
    /// (or a non-finite one) — there is no meaningful pilot round to run.
    InvalidPilotFraction {
        /// The offending fraction.
        value: f64,
    },
    /// Recombination consumed fewer results than the plan recorded, or the
    /// plan's circuit analysis no longer reproduces — the plan and the
    /// artifacts diverged.
    PlanMismatch {
        /// Human-readable diagnosis.
        detail: String,
    },
    /// A round handed a session an output over a different number of
    /// bits than its job measures; the round is rejected before any of
    /// its counts reach the tally.
    OutputWidthMismatch {
        /// The job's index in the session's batch-jobs order.
        job: usize,
        /// Bits the job measures.
        expected: usize,
        /// Bits the output carries.
        got: usize,
    },
    /// A fallible execution lost a job the report cannot degrade around:
    /// the global run itself (every mitigation subset refines it, so
    /// nothing survives its loss), after the bounded retry budget was
    /// spent. Subset-only failures degrade instead — see
    /// [`crate::MitigationPlan::execute_fallible`].
    JobFailed {
        /// The failed program slot (plan program order).
        slot: usize,
        /// The terminal typed failure of that job.
        error: qt_sim::RunError,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::ResultCountMismatch { expected, got } => {
                write!(f, "runner returned {got} results for {expected} jobs")
            }
            ExecError::ArtifactsExhausted => {
                write!(
                    f,
                    "execution artifacts exhausted before recombination finished"
                )
            }
            ExecError::ShotPlanMismatch { expected, got } => {
                write!(
                    f,
                    "shot plan covers {got} jobs but the session's batch has {expected}"
                )
            }
            ExecError::InsufficientShotBudget {
                total_shots,
                n_programs,
            } => {
                write!(
                    f,
                    "shot budget {total_shots} cannot fund the 1-shot floor of \
                     {n_programs} programs"
                )
            }
            ExecError::InvalidPilotFraction { value } => {
                write!(f, "pilot fraction must lie in [0, 1], got {value}")
            }
            ExecError::PlanMismatch { detail } => write!(f, "plan/artifact mismatch: {detail}"),
            ExecError::OutputWidthMismatch { job, expected, got } => {
                write!(
                    f,
                    "job {job} returned an output over {got} bits but measures {expected}"
                )
            }
            ExecError::JobFailed { slot, error } => {
                write!(f, "program slot {slot} failed: {error}")
            }
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::JobFailed { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// A subset the planner could not trace, with the typed reason. The final
/// [`crate::QuTracerReport`] keeps these so callers can tell *why* a subset
/// was dropped instead of inferring it from absence.
#[derive(Debug, Clone, PartialEq)]
pub struct SkippedSubset {
    /// The traced physical qubits.
    pub qubits: Vec<usize>,
    /// Bit positions of those qubits in the measured list.
    pub positions: Vec<usize>,
    /// Why planning failed for this subset.
    pub reason: PlanError,
}

impl SkippedSubset {
    /// Whether the subset was skipped for non-diagonal coupling.
    pub fn is_coupling(&self) -> bool {
        matches!(self.reason, PlanError::UnsupportedCoupling { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_error_display_names_the_subset() {
        let e = PlanError::coupling(
            vec![2, 3],
            UnsupportedCoupling {
                index: 5,
                instruction: "cx q2, q4".into(),
            },
        );
        let s = e.to_string();
        assert!(s.contains("[2, 3]"), "{s}");
        assert!(s.contains("cx q2, q4"), "{s}");
    }

    #[test]
    fn exec_error_display_reports_counts() {
        let e = ExecError::ResultCountMismatch {
            expected: 7,
            got: 3,
        };
        assert!(e.to_string().contains('7'));
        assert!(e.to_string().contains('3'));
    }
}
