//! Multi-round mitigation sessions with adaptive Neyman shot allocation.
//!
//! A [`MitigationSession`] owns a [`MitigationStrategy`] and drives it
//! through one or two *rounds* of finite-shot execution:
//!
//! * Under the static policies ([`ShotPolicy::Uniform`],
//!   [`ShotPolicy::WeightedByFanout`]) the session is a single round that
//!   samples with the caller's seed untouched.
//! * Under [`ShotPolicy::Adaptive`] a *pilot* round spends
//!   `P = ⌊pilot_fraction · total⌋` shots uniformly, the per-program
//!   sampling dispersion `σ̂_i = √(1 − Σ_o p̂_i(o)²)` is estimated from the
//!   pilot counts ([`qt_dist::Counts::sampling_dispersion`] — the l2-pooled
//!   per-outcome standard error), and the remaining `total − P` shots are
//!   apportioned proportionally to `σ̂_i`. That is Neyman allocation: for a
//!   fixed total, the variance of the pooled frequency estimates is
//!   minimized by `n_i ∝ σ_i`. Pilot counts are *absorbed* — merged
//!   outcome-by-outcome into the final tally — so every shot contributes
//!   to the recombined report.
//!
//! **Pilot-absorption soundness.** Both rounds sample *one* execution of
//! the batch: [`MitigationSession::finish_exact`] takes every job's exact
//! output and each round draws its multinomial sample from those outputs
//! with its own derived seed. Merging the two independent samples of the
//! same per-program distribution yields exactly the multinomial sample of
//! the combined shot count: the pooled estimator is unbiased and its
//! per-program variance is `σ_i²/(n_i^pilot + n_i^final)`. Adaptivity
//! only chooses `n_i^final` *after* observing the pilot, which rescales
//! variances but cannot bias the frequencies — what the shots *are* never
//! depends on their outcomes, only how many more are drawn. Engines are
//! deterministic given the job, so a stepwise caller that executes every
//! round samples the very same distributions and gets the same report.
//!
//! **Failures.** [`MitigationSession::run_fallible`] keeps the first
//! execution's results for every round. A later round re-executes only the
//! jobs whose result is a *transient* error; a permanent failure is final,
//! per [`RunError`]'s contract. A job counts in the report's
//! `failed_jobs` when no round produced counts for it; the event counters
//! (retries, quarantined panics, corrupt outputs) sum over the executions
//! that actually ran.
//!
//! **Who executes.** [`MitigationSession::run`] executes the batch through
//! a [`Runner`] and calls [`MitigationSession::finish_exact`]. An executor
//! that owns the batching calls it directly: the `qt-serve` service runs a
//! session's jobs once through its cross-request batcher and result cache
//! and finishes the session in that same batch pass.
//!
//! Sessions are the one finite-shot executor: `MitigationPlan::run_sampled`
//! is `MitigationSession::new(..)?.run(..)`, and a stepwise caller gets
//! the same report. Absorption accepts only the round the session issued
//! ([`MitigationSession::next_round`], compared field by field) and, on
//! the sampled path, only counts that carry exactly the shots the round
//! allocated — a zero-shot job would otherwise normalize to a uniform
//! "measurement" that recombination cannot tell from real data.
//!
//! A fraction whose pilot (or remainder) cannot fund one shot per program
//! degrades to the single uniform round — so `pilot_fraction` 0 and 1 are
//! bit-identical to [`ShotPolicy::Uniform`], property-tested in
//! `tests/adaptive_session.rs`.

use crate::error::ExecError;
use crate::pipeline::{placeholder_output, ShotPolicy};
use qt_baselines::{ExecutionRecord, JobFailures, MitigationStrategy, StrategyError};
use qt_sim::{
    job_sample_seed, sample_batch, try_run_batch_resilient, try_sample_batch, BatchJob,
    FailureStats, RetryPolicy, RunError, RunOutput, Runner, SampledOutput, ShotPlan,
};

/// One executable round of a session: which round it is, the per-job shot
/// allocation (batch-jobs order) and the seed the round samples with.
///
/// A spec is a pure function of the session state — callers may recompute
/// it, ship it to a remote executor, or log it; absorption validates that
/// the spec matches the session's current round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSpec {
    /// Round index (0 = pilot or the only round, 1 = adaptive final).
    pub round: usize,
    /// Per-job shots, in [`MitigationStrategy::batch_jobs`] order.
    pub shots: ShotPlan,
    /// Seed for this round's sampling. Single-round sessions use the
    /// caller's seed untouched; genuine two-round sessions derive one seed
    /// per round.
    pub seed: u64,
}

/// Neyman weights from per-program pilot dispersions: jobs whose pilot
/// produced no usable estimate (failed, zero shots) get the mean of the
/// valid dispersions — neutral, neither starved nor favored. If *no* job
/// produced an estimate (or every dispersion is zero), the weights fall
/// back to uniform so the final round still allocates.
pub fn neyman_weights(dispersions: &[Option<f64>]) -> Vec<f64> {
    let valid: Vec<f64> = dispersions
        .iter()
        .filter_map(|d| d.filter(|s| s.is_finite() && *s >= 0.0))
        .collect();
    if valid.is_empty() {
        return vec![1.0; dispersions.len()];
    }
    let mean = valid.iter().sum::<f64>() / valid.len() as f64;
    let weights: Vec<f64> = dispersions
        .iter()
        .map(|d| match d {
            Some(s) if s.is_finite() && *s >= 0.0 => *s,
            _ => mean,
        })
        .collect();
    if weights.iter().sum::<f64>() <= 0.0 {
        vec![1.0; dispersions.len()]
    } else {
        weights
    }
}

/// A multi-round finite-shot execution of one [`MitigationStrategy`].
///
/// The session is a small state machine: [`MitigationSession::next_round`]
/// yields the next [`RoundSpec`] (or `None` when done), one of the
/// `absorb_*` methods feeds that round's results back, and
/// [`MitigationSession::finish`] recombines the accumulated counts into
/// the strategy's report. [`MitigationSession::finish_exact`] runs that
/// loop over one exact execution of the batch, whoever executed it (the
/// `qt-serve` service executes through its cross-request trie batcher and
/// cache); [`MitigationSession::run`] and
/// [`MitigationSession::run_fallible`] also execute against a [`Runner`].
pub struct MitigationSession<S: MitigationStrategy> {
    strategy: S,
    jobs: Vec<BatchJob>,
    policy: ShotPolicy,
    total_shots: usize,
    seed: u64,
    /// `Some(P)` when the session is genuinely two-round: the pilot gets
    /// `P` shots and both rounds can fund every job's 1-shot floor.
    pilot: Option<usize>,
    /// Accumulated counts per job; `None` until a round lands counts.
    acc: Vec<Option<SampledOutput>>,
    /// Terminal error per job with *no* usable counts from any round.
    errors: Vec<Option<RunError>>,
    /// Failure-domain event counters summed over the executions behind
    /// the absorbed rounds (`failed_jobs` is set in `collect`).
    fail_stats: FailureStats,
    /// Whether any round ran through the fallible surface (the report
    /// then carries a failure record even when nothing failed).
    fallible: bool,
    engine_mix: Option<Vec<(String, usize)>>,
    completed_rounds: usize,
    round_shots: Vec<u64>,
}

impl<S: MitigationStrategy> MitigationSession<S> {
    /// Opens a session over `strategy` with a policy-driven budget.
    ///
    /// # Errors
    ///
    /// [`ExecError::InsufficientShotBudget`] when `total_shots` cannot
    /// fund one shot per job; [`ExecError::InvalidPilotFraction`] for an
    /// adaptive policy with a fraction outside `[0, 1]`.
    pub fn new(
        strategy: S,
        policy: ShotPolicy,
        total_shots: usize,
        seed: u64,
    ) -> Result<Self, ExecError> {
        let jobs = strategy.batch_jobs();
        let n = jobs.len();
        if total_shots < n {
            return Err(ExecError::InsufficientShotBudget {
                total_shots,
                n_programs: n,
            });
        }
        let pilot = match policy {
            ShotPolicy::Adaptive { pilot_fraction } => {
                if !pilot_fraction.is_finite() || !(0.0..=1.0).contains(&pilot_fraction) {
                    return Err(ExecError::InvalidPilotFraction {
                        value: pilot_fraction,
                    });
                }
                let p = (total_shots as f64 * pilot_fraction).floor() as usize;
                // Genuine two-round adaptivity needs both rounds to fund
                // every job's 1-shot floor; otherwise degrade to the
                // single uniform round (pilot_fraction 0 and 1 land here
                // by construction).
                (n > 0 && p >= n && total_shots - p >= n).then_some(p)
            }
            _ => None,
        };
        Ok(MitigationSession {
            strategy,
            jobs,
            policy,
            total_shots,
            seed,
            pilot,
            acc: vec![None; n],
            errors: vec![None; n],
            fail_stats: FailureStats::default(),
            fallible: false,
            engine_mix: None,
            completed_rounds: 0,
            round_shots: Vec::new(),
        })
    }

    /// The strategy's batch jobs, in submission order — what every round
    /// samples.
    pub fn jobs(&self) -> &[BatchJob] {
        &self.jobs
    }

    /// The strategy driving this session.
    pub fn strategy(&self) -> &S {
        &self.strategy
    }

    /// Rounds already absorbed.
    pub fn rounds_completed(&self) -> usize {
        self.completed_rounds
    }

    /// Records the engine mix the executing runner reported for the
    /// session's batch (carried into the report's overhead stats).
    pub fn set_engine_mix(&mut self, mix: Option<Vec<(String, usize)>>) {
        self.engine_mix = mix;
    }

    /// Static prior weights for the first (or only) round.
    fn static_weights(&self) -> Vec<f64> {
        match self.policy {
            // The adaptive pilot uses the uniform prior: at degenerate
            // pilot fractions the session must reproduce the uniform
            // single round bit-for-bit.
            ShotPolicy::Uniform | ShotPolicy::Adaptive { .. } => vec![1.0; self.jobs.len()],
            ShotPolicy::WeightedByFanout => self.strategy.shot_fanout(),
        }
    }

    /// Per-job pilot dispersions (`None` where the pilot produced no
    /// usable counts).
    fn pilot_dispersions(&self) -> Vec<Option<f64>> {
        self.acc
            .iter()
            .map(|a| a.as_ref().and_then(|s| s.counts.sampling_dispersion()))
            .collect()
    }

    /// The next round to execute, or `None` when the session has absorbed
    /// every round and is ready to [`MitigationSession::finish`].
    pub fn next_round(&self) -> Option<RoundSpec> {
        match self.pilot {
            None => (self.completed_rounds == 0).then(|| RoundSpec {
                round: 0,
                shots: ShotPlan::from_shots(
                    self.strategy
                        .allocate_budget(self.total_shots, &self.static_weights()),
                ),
                seed: self.seed,
            }),
            Some(p) => match self.completed_rounds {
                0 => Some(RoundSpec {
                    round: 0,
                    shots: ShotPlan::from_shots(
                        self.strategy.allocate_budget(p, &self.static_weights()),
                    ),
                    seed: job_sample_seed(self.seed, 0),
                }),
                1 => Some(RoundSpec {
                    round: 1,
                    shots: ShotPlan::from_shots(self.strategy.allocate_budget(
                        self.total_shots - p,
                        &neyman_weights(&self.pilot_dispersions()),
                    )),
                    seed: job_sample_seed(self.seed, 1),
                }),
                _ => None,
            },
        }
    }

    /// Validates a round's spec and results before anything touches the
    /// tally: the spec must be the one [`MitigationSession::next_round`]
    /// issues, and the results must cover the session's jobs. `widths`
    /// holds each result's measured-bit count (`None` for a failed job).
    fn check_round(
        &self,
        spec: &RoundSpec,
        widths: impl ExactSizeIterator<Item = Option<usize>>,
    ) -> Result<(), ExecError> {
        let Some(issued) = self.next_round() else {
            return Err(ExecError::PlanMismatch {
                detail: format!(
                    "absorbed round {} after the session's last round",
                    spec.round
                ),
            });
        };
        if spec.shots.n_jobs() != self.jobs.len() {
            return Err(ExecError::ShotPlanMismatch {
                expected: self.jobs.len(),
                got: spec.shots.n_jobs(),
            });
        }
        if *spec != issued {
            return Err(ExecError::PlanMismatch {
                detail: format!(
                    "absorbed a round {} spec the session never issued (it expects round {})",
                    spec.round, issued.round
                ),
            });
        }
        if widths.len() != self.jobs.len() {
            return Err(ExecError::ResultCountMismatch {
                expected: self.jobs.len(),
                got: widths.len(),
            });
        }
        for (job, (width, j)) in widths.zip(&self.jobs).enumerate() {
            let expected = j.measured.len();
            if let Some(got) = width.filter(|&got| got != expected) {
                return Err(ExecError::OutputWidthMismatch { job, expected, got });
            }
        }
        Ok(())
    }

    /// Absorbs a round executed through a [`Runner`]'s sampled surface
    /// (outputs in batch-jobs order), merging counts outcome-by-outcome
    /// into the session tally.
    ///
    /// # Errors
    ///
    /// [`ExecError::PlanMismatch`] for a spec the session did not issue
    /// (out of order, past the last round, or another shot plan or seed)
    /// and for an output whose counts hold a different number of shots
    /// than the round allocated its job,
    /// [`ExecError::ShotPlanMismatch`] /
    /// [`ExecError::ResultCountMismatch`] for a spec or result vector
    /// that does not cover the session's jobs,
    /// [`ExecError::OutputWidthMismatch`] for an output over a different
    /// number of bits than its job measures. A rejected round leaves the
    /// session unchanged.
    pub fn absorb_sampled(
        &mut self,
        spec: &RoundSpec,
        outputs: Vec<SampledOutput>,
    ) -> Result<(), ExecError> {
        self.check_round(spec, outputs.iter().map(|o| Some(o.counts.n_bits())))?;
        for (job, (out, &shots)) in outputs.iter().zip(spec.shots.per_job()).enumerate() {
            if out.counts.shots() != shots as u64 {
                return Err(ExecError::PlanMismatch {
                    detail: format!(
                        "job {job} returned {} shots but round {} allocated {shots}",
                        out.counts.shots(),
                        spec.round
                    ),
                });
            }
        }
        self.absorb_round_unchecked(outputs.into_iter().map(Ok));
        Ok(())
    }

    /// Absorbs a round executed as *exact* distributions (batch-jobs
    /// order), sampling each job deterministically with the round's shot
    /// allocation and per-job derived seed — the same
    /// `dist → multinomial` formula as the [`Runner`] sampled surface, so
    /// a session fed exact outputs (e.g. by a caching service that
    /// executes jobs once and samples per request) is bit-identical to
    /// one run against the runner directly.
    ///
    /// # Errors
    ///
    /// As [`MitigationSession::absorb_sampled`].
    pub fn absorb_exact(
        &mut self,
        spec: &RoundSpec,
        outputs: &[RunOutput],
    ) -> Result<(), ExecError> {
        self.check_round(spec, outputs.iter().map(|o| Some(o.dist.n_bits())))?;
        let sampled = sample_batch(outputs, &spec.shots, spec.seed);
        self.absorb_round_unchecked(sampled.into_iter().map(Ok));
        Ok(())
    }

    /// Absorbs a round executed through the fallible surface: surviving
    /// jobs are sampled exactly as in [`MitigationSession::absorb_exact`]
    /// (so a retried job's counts are bit-identical to the fault-free
    /// run); failed jobs keep any counts from earlier rounds and only
    /// count as *failed* if no round ever produced counts for them.
    ///
    /// `stats` are the failure-domain events of the executions behind
    /// this round: pass [`FailureStats::default`] for a round that
    /// re-samples results already absorbed. Its `failed_jobs` is ignored;
    /// the report counts the jobs that end with no counts.
    fn absorb_fallible(
        &mut self,
        spec: &RoundSpec,
        results: &[Result<RunOutput, RunError>],
        stats: FailureStats,
    ) -> Result<(), ExecError> {
        self.check_round(
            spec,
            results
                .iter()
                .map(|r| r.as_ref().ok().map(|o| o.dist.n_bits())),
        )?;
        self.fallible = true;
        self.fail_stats.merge(&stats);
        self.absorb_round_unchecked(try_sample_batch(results, &spec.shots, spec.seed));
        Ok(())
    }

    /// Merges one round's per-job counts into the tally. A failed job
    /// keeps any counts from earlier rounds and only records its error if
    /// no round ever produced counts for it.
    fn absorb_round_unchecked(
        &mut self,
        results: impl IntoIterator<Item = Result<SampledOutput, RunError>>,
    ) {
        let mut round_total = 0u64;
        for (i, res) in results.into_iter().enumerate() {
            match res {
                Ok(out) => {
                    round_total += out.counts.shots();
                    match &mut self.acc[i] {
                        Some(acc) => acc.absorb(&out),
                        None => self.acc[i] = Some(out),
                    }
                    self.errors[i] = None;
                }
                Err(err) => {
                    if self.acc[i].is_none() {
                        self.errors[i] = Some(err);
                    }
                }
            }
        }
        self.round_shots.push(round_total);
        self.completed_rounds += 1;
    }

    /// Recombines the absorbed rounds into the strategy's report. Jobs no
    /// round produced counts for hand the strategy a zero-mass placeholder
    /// output, and their terminal errors ride the record's failure entry.
    ///
    /// # Errors
    ///
    /// Whatever the strategy's recombination reports, lifted to
    /// [`ExecError`]: a terminally failed job the method cannot degrade
    /// around becomes [`ExecError::JobFailed`] (indexed in batch-jobs
    /// order), contract violations keep their typed forms.
    pub fn finish(self) -> Result<S::Report, ExecError> {
        let n = self.jobs.len();
        let mut outputs = Vec::with_capacity(n);
        let mut per_job_shots = vec![0u64; n];
        for (i, acc) in self.acc.iter().enumerate() {
            match acc {
                Some(s) => {
                    per_job_shots[i] = s.counts.shots();
                    outputs.push(s.to_run_output());
                }
                None => outputs.push(placeholder_output(self.jobs[i].measured.len())),
            }
        }
        let failures = self.fallible.then(|| JobFailures {
            per_job: self.errors,
            stats: FailureStats {
                failed_jobs: self.acc.iter().filter(|a| a.is_none()).count() as u64,
                ..self.fail_stats
            },
        });
        let record = ExecutionRecord {
            sampled_shots: Some(per_job_shots),
            // Round accounting only for genuine multi-round sessions: a
            // single-round report carries no per-round field, exactly as
            // a degenerate adaptive session's does.
            round_shots: self.pilot.is_some().then_some(self.round_shots),
            engine_mix: self.engine_mix,
            failures,
        };
        self.strategy
            .recombine_outputs(outputs, &record)
            .map_err(|e| match e {
                StrategyError::ResultCountMismatch { expected, got } => {
                    ExecError::ResultCountMismatch { expected, got }
                }
                StrategyError::JobFailed { job, detail } => {
                    let failed = record.failures.as_ref().and_then(|f| f.per_job.get(job));
                    match failed.cloned().flatten() {
                        Some(error) => ExecError::JobFailed { slot: job, error },
                        None => ExecError::PlanMismatch { detail },
                    }
                }
                StrategyError::Recombine { detail } => ExecError::PlanMismatch { detail },
            })
    }

    /// Samples every remaining round from one exact execution of the
    /// batch (`outputs` in batch-jobs order) and recombines. Each round
    /// samples exactly as [`Runner::run_batch_sampled`] would, so the
    /// report equals a stepwise replay that executes every round.
    ///
    /// # Errors
    ///
    /// As [`MitigationSession::absorb_exact`] and
    /// [`MitigationSession::finish`].
    pub fn finish_exact(mut self, outputs: &[RunOutput]) -> Result<S::Report, ExecError> {
        while let Some(spec) = self.next_round() {
            self.absorb_exact(&spec, outputs)?;
        }
        self.finish()
    }

    /// Executes the batch once through [`Runner::run_batch`] and hands the
    /// outputs to [`MitigationSession::finish_exact`] — the offline
    /// convenience over the stepwise API.
    ///
    /// # Errors
    ///
    /// As [`MitigationSession::finish_exact`].
    pub fn run<R: Runner>(mut self, runner: &R) -> Result<S::Report, ExecError> {
        self.engine_mix = runner.engine_mix(&self.jobs);
        let outputs = runner.run_batch(&self.jobs);
        self.finish_exact(&outputs)
    }

    /// [`MitigationSession::run`] with the failure domain of
    /// `MitigationPlan::execute_fallible`: the batch executes once through
    /// the resilient surface (panic quarantine, bounded retry) and every
    /// round samples its results. A later round first re-executes the jobs
    /// whose result is a transient error; permanent failures are final.
    /// Failed jobs degrade, and the report's failure statistics count
    /// each execution once.
    ///
    /// # Errors
    ///
    /// As [`MitigationSession::absorb_sampled`] and
    /// [`MitigationSession::finish`].
    pub fn run_fallible<R: Runner>(
        mut self,
        runner: &R,
        retry: &RetryPolicy,
    ) -> Result<S::Report, ExecError> {
        self.engine_mix = runner.engine_mix(&self.jobs);
        let (mut results, mut stats) = try_run_batch_resilient(runner, &self.jobs, retry);
        while let Some(spec) = self.next_round() {
            if spec.round > 0 {
                let again: Vec<usize> = (0..results.len())
                    .filter(|&i| matches!(&results[i], Err(e) if e.transient))
                    .collect();
                let jobs: Vec<BatchJob> = again.iter().map(|&i| self.jobs[i].clone()).collect();
                let (rerun, rerun_stats) = try_run_batch_resilient(runner, &jobs, retry);
                for (&i, res) in again.iter().zip(rerun) {
                    results[i] = res;
                }
                stats = rerun_stats;
            }
            self.absorb_fallible(&spec, &results, stats)?;
        }
        self.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neyman_weights_fill_missing_with_the_valid_mean() {
        let w = neyman_weights(&[Some(2.0), None, Some(4.0)]);
        assert_eq!(w, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn neyman_weights_degrade_to_uniform() {
        assert_eq!(neyman_weights(&[None, None]), vec![1.0, 1.0]);
        assert_eq!(neyman_weights(&[Some(0.0), Some(0.0)]), vec![1.0, 1.0]);
        assert_eq!(
            neyman_weights(&[Some(f64::NAN), Some(f64::INFINITY)]),
            vec![1.0, 1.0]
        );
    }
}
