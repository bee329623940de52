//! The strategy-unified mitigation surface: every mitigation method —
//! QuTracer's staged pipeline, the Jigsaw and SQEM baselines, the
//! truncated-Neumann readout baseline — reduces to the same three-step
//! contract: *plan* (done before the trait exists), *emit batch jobs*,
//! *recombine from raw outputs*. [`MitigationStrategy`] captures exactly
//! that contract so method-agnostic consumers (multi-round sessions, the
//! serving batcher, cached runners, benches) can drive any method without
//! knowing its plan or report types.
//!
//! The split matters for serving: the service executes jobs through its
//! own batcher/cache and only hands *outputs* back, so recombination must
//! work from `(outputs, execution record)` alone — no strategy may smuggle
//! state through execution.

use qt_sim::{BatchJob, FailureStats, RunError, RunOutput, Runner};

/// How one batched execution went, as far as a strategy needs to know for
/// bookkeeping: the shots actually sampled, per-round totals for
/// multi-round sessions, the engine mix, and the failure record of a
/// fallible path. All fields default to `None` — an exact, infallible,
/// single-round execution is the empty record.
#[derive(Debug, Clone, Default)]
pub struct ExecutionRecord {
    /// Shots actually sampled per job, in [`MitigationStrategy::batch_jobs`]
    /// order. `None` for exact-distribution executions.
    pub sampled_shots: Option<Vec<u64>>,
    /// Total shots spent per session round (pilot first). `None` outside
    /// multi-round sessions.
    pub round_shots: Option<Vec<u64>>,
    /// Per-engine job counts the runner reported for the batch.
    pub engine_mix: Option<Vec<(String, usize)>>,
    /// Failure record of a fallible execution: `None` for infallible
    /// paths, `Some` (possibly failure-free) whenever the fallible
    /// surface produced the outputs.
    pub failures: Option<JobFailures>,
}

impl ExecutionRecord {
    /// The record of an exact single-round execution: only the engine mix
    /// is known.
    pub fn exact(engine_mix: Option<Vec<(String, usize)>>) -> Self {
        ExecutionRecord {
            engine_mix,
            ..ExecutionRecord::default()
        }
    }
}

/// Per-job failure record of one fallible batched execution, in
/// [`MitigationStrategy::batch_jobs`] order. A failed job's slot in the
/// output vector holds a placeholder the strategy must not read.
#[derive(Debug, Clone)]
pub struct JobFailures {
    /// Terminal error per job (`None` = the job succeeded).
    pub per_job: Vec<Option<RunError>>,
    /// What the retry/quarantine engine did to get here.
    pub stats: FailureStats,
}

impl JobFailures {
    /// For methods that need every job and so cannot degrade around a
    /// loss: the first terminally failed job, as a typed error.
    ///
    /// # Errors
    ///
    /// [`StrategyError::JobFailed`] naming the first failed job
    /// (batch-jobs order).
    pub(crate) fn ensure_no_failures(&self) -> Result<(), StrategyError> {
        let first = self
            .per_job
            .iter()
            .enumerate()
            .find_map(|(job, e)| Some((job, e.as_ref()?)));
        match first {
            Some((job, error)) => Err(StrategyError::JobFailed {
                job,
                detail: error.to_string(),
            }),
            None => Ok(()),
        }
    }
}

/// Typed failure of the strategy surface — what recombination can report
/// without knowing the concrete method.
#[derive(Debug, Clone, PartialEq)]
pub enum StrategyError {
    /// The executor returned a different number of outputs than the
    /// strategy's batch jobs — a contract violation, not a data error.
    ResultCountMismatch { expected: usize, got: usize },
    /// A job the strategy cannot recombine without failed terminally
    /// (index in batch-jobs order).
    JobFailed { job: usize, detail: String },
    /// Recombination itself rejected the outputs.
    Recombine { detail: String },
}

impl std::fmt::Display for StrategyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrategyError::ResultCountMismatch { expected, got } => write!(
                f,
                "executor returned {got} outputs for {expected} batch jobs"
            ),
            StrategyError::JobFailed { job, detail } => {
                write!(f, "required job {job} failed terminally: {detail}")
            }
            StrategyError::Recombine { detail } => {
                write!(f, "recombination rejected the outputs: {detail}")
            }
        }
    }
}

impl std::error::Error for StrategyError {}

/// One mitigation method, reduced to the contract every consumer needs:
/// the jobs it wants executed and the recombination that turns raw
/// outputs back into its report. Shot-budget hooks have uniform defaults
/// so exact-only strategies implement nothing extra.
///
/// Outputs handed to [`MitigationStrategy::recombine_outputs`] are in
/// [`MitigationStrategy::batch_jobs`] order — strategies whose planning
/// reorders jobs internally (e.g. trie-clustered plans) own the mapping
/// back to their internal slots.
pub trait MitigationStrategy {
    /// The method's mitigation report.
    type Report;

    /// Stable method name (report labels, service accounting).
    fn name(&self) -> &'static str;

    /// The deduplicated programs to execute, in submission order.
    fn batch_jobs(&self) -> Vec<BatchJob>;

    /// Number of batch jobs (override when `batch_jobs` clones are
    /// expensive).
    fn n_jobs(&self) -> usize {
        self.batch_jobs().len()
    }

    /// Static per-job shot weights (batch-jobs order) — the prior a
    /// session's pilot round uses before any variance is measured.
    /// Defaults to uniform.
    fn shot_fanout(&self) -> Vec<f64> {
        vec![1.0; self.n_jobs()]
    }

    /// Splits `total_shots` across the batch jobs proportionally to
    /// `weights` (batch-jobs order, summing to exactly `total_shots`).
    /// The default is plain largest-remainder apportionment; strategies
    /// with an internal slot order may override to break ties in that
    /// order instead.
    fn allocate_budget(&self, total_shots: usize, weights: &[f64]) -> Vec<usize> {
        apportion_shots(total_shots, weights)
    }

    /// Turns raw outputs (batch-jobs order) plus the execution record
    /// back into the method's report.
    fn recombine_outputs(
        &self,
        outputs: Vec<RunOutput>,
        record: &ExecutionRecord,
    ) -> Result<Self::Report, StrategyError>;
}

impl<T: MitigationStrategy + ?Sized> MitigationStrategy for &T {
    type Report = T::Report;

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn batch_jobs(&self) -> Vec<BatchJob> {
        (**self).batch_jobs()
    }

    fn n_jobs(&self) -> usize {
        (**self).n_jobs()
    }

    fn shot_fanout(&self) -> Vec<f64> {
        (**self).shot_fanout()
    }

    fn allocate_budget(&self, total_shots: usize, weights: &[f64]) -> Vec<usize> {
        (**self).allocate_budget(total_shots, weights)
    }

    fn recombine_outputs(
        &self,
        outputs: Vec<RunOutput>,
        record: &ExecutionRecord,
    ) -> Result<Self::Report, StrategyError> {
        (**self).recombine_outputs(outputs, record)
    }
}

/// Largest-remainder apportionment of `total_shots` over `weights`: the
/// allocation sums to exactly `total_shots`, rounding shortfall goes to
/// the largest fractional remainders (ties resolved by index), and when
/// the budget affords at least one shot per entry a 1-shot floor is
/// funded from the largest allocations (a zero-shot program would report
/// a uniform — information-free — distribution). Non-positive total
/// weight yields the all-zero allocation.
pub fn apportion_shots(total_shots: usize, weights: &[f64]) -> Vec<usize> {
    let n = weights.len();
    let total_weight: f64 = weights.iter().sum();
    if n == 0 || total_weight <= 0.0 {
        return vec![0; n];
    }
    let quotas: Vec<f64> = weights
        .iter()
        .map(|w| total_shots as f64 * w / total_weight)
        .collect();
    let mut shots: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    // The quotas sum to `total_shots` exactly, so the rounding shortfall
    // is strictly less than `n`: one extra shot to each of the largest
    // fractional remainders settles it (ties resolved by index so the
    // allocation is deterministic).
    let leftover = total_shots.saturating_sub(shots.iter().sum::<usize>());
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let (fa, fb) = (quotas[a].fract(), quotas[b].fract());
        fb.partial_cmp(&fa).unwrap().then(a.cmp(&b))
    });
    for &i in order.iter().take(leftover) {
        shots[i] += 1;
    }
    // Floor of one shot per entry when the budget affords it, funded
    // from the largest allocations.
    if total_shots >= n {
        while let Some(zero) = shots.iter().position(|&s| s == 0) {
            let donor = (0..n).max_by_key(|&i| shots[i]).expect("n > 0");
            if shots[donor] <= 1 {
                break;
            }
            shots[donor] -= 1;
            shots[zero] += 1;
        }
    }
    shots
}

/// Runs a strategy end-to-end on `runner` with exact distributions: emit
/// jobs, execute one batch, recombine. The one exact executor of the
/// baselines: `run_jigsaw`, `run_sqem` and `run_neumann` wrap it.
///
/// # Errors
///
/// [`StrategyError::ResultCountMismatch`] for a contract-violating
/// runner, plus whatever the strategy's recombination rejects.
pub fn execute_strategy<S: MitigationStrategy, R: Runner + ?Sized>(
    strategy: &S,
    runner: &R,
) -> Result<S::Report, StrategyError> {
    let jobs = strategy.batch_jobs();
    let engine_mix = runner.engine_mix(&jobs);
    let outputs = runner.run_batch(&jobs);
    if outputs.len() != jobs.len() {
        return Err(StrategyError::ResultCountMismatch {
            expected: jobs.len(),
            got: outputs.len(),
        });
    }
    strategy.recombine_outputs(outputs, &ExecutionRecord::exact(engine_mix))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apportionment_sums_exactly_and_respects_floor() {
        let shots = apportion_shots(10, &[1.0, 1.0, 1.0]);
        assert_eq!(shots.iter().sum::<usize>(), 10);
        assert!(shots.iter().all(|&s| s >= 3));

        // Heavily skewed weights with a budget that still affords a floor.
        let shots = apportion_shots(5, &[1000.0, 1.0, 1.0, 1.0, 1.0]);
        assert_eq!(shots.iter().sum::<usize>(), 5);
        assert!(shots.iter().all(|&s| s >= 1), "floor funds every entry");
    }

    #[test]
    fn apportionment_below_floor_never_overspends() {
        // Budget smaller than the entry count: the floor must not kick
        // in (it would overspend); the sum still equals the budget.
        let shots = apportion_shots(2, &[1.0; 5]);
        assert_eq!(shots.iter().sum::<usize>(), 2);
        assert!(shots.contains(&0));
    }

    #[test]
    fn apportionment_ties_resolve_by_index() {
        // 7 shots over 4 equal weights: everyone gets 1, remainder 3
        // goes to the lowest indices.
        let shots = apportion_shots(7, &[1.0; 4]);
        assert_eq!(shots, vec![2, 2, 2, 1]);
    }

    #[test]
    fn degenerate_weights_yield_zero_allocation() {
        assert_eq!(apportion_shots(100, &[]), Vec::<usize>::new());
        assert_eq!(apportion_shots(100, &[0.0, 0.0]), vec![0, 0]);
    }
}
