//! The failure domain of batched execution: typed per-job errors, a
//! deterministic fault-injection layer, and the isolation/retry engine
//! shared by `qt-core`'s fallible pipeline and the `qt-serve` batcher.
//!
//! Three layers, composable from the bottom up:
//!
//! * [`RunError`] — the typed failure of one job, with a `transient`
//!   classification that drives retry decisions upstream;
//! * [`ChaosRunner`] — a [`Runner`] wrapper that injects faults (transient
//!   and fatal errors, panics, latency, corrupt-shaped outputs) from a
//!   *seeded, job-keyed schedule*: the fault a job suffers depends only on
//!   `(chaos seed, JobKey)`, never on batch composition, submission order
//!   or wall-clock, so every chaos run is reproducible bit for bit;
//! * [`try_run_batch_isolated`] / [`try_run_batch_resilient`] — panic
//!   quarantine by batch bisection, corrupt-shape detection, and bounded
//!   deterministic retry-with-backoff. Backoff only delays re-execution —
//!   every engine is deterministic given its inputs, so retries can never
//!   change a result, only recover one (the determinism argument in
//!   DESIGN.md §Failure domain).

use crate::executor::{BatchJob, JobKey, RunOutput, Runner};
use qt_dist::Distribution;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// What failed when a job could not produce a usable output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunErrorKind {
    /// The backend/runner failed to execute the job (the generic class:
    /// injected chaos, device rejections, lost results).
    Backend,
    /// The job could not be transpiled/laid out onto the target device.
    Transpile,
    /// The runner returned an output whose shape does not match the job
    /// (wrong measured-register width) — detected by shape validation in
    /// [`try_run_batch_resilient`] and treated as transient, since a
    /// corrupt readback usually is.
    CorruptOutput,
    /// The runner panicked; the panic was caught and quarantined to this
    /// job by batch bisection.
    Panic,
}

impl RunErrorKind {
    /// Stable machine-readable tag (wire format, logs).
    pub fn tag(self) -> &'static str {
        match self {
            RunErrorKind::Backend => "backend",
            RunErrorKind::Transpile => "transpile",
            RunErrorKind::CorruptOutput => "corrupt_output",
            RunErrorKind::Panic => "panic",
        }
    }

    /// Parses [`RunErrorKind::tag`] back (wire decode).
    pub fn from_tag(tag: &str) -> Option<RunErrorKind> {
        Some(match tag {
            "backend" => RunErrorKind::Backend,
            "transpile" => RunErrorKind::Transpile,
            "corrupt_output" => RunErrorKind::CorruptOutput,
            "panic" => RunErrorKind::Panic,
            _ => return None,
        })
    }
}

/// The typed failure of one batch job. `transient` is the retry contract:
/// `true` means a bounded re-execution may succeed (and the retry engine
/// will spend budget on it), `false` means the job is failed for good
/// (fatal backend errors, transpile failures, quarantined panics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunError {
    /// What failed.
    pub kind: RunErrorKind,
    /// Whether a retry may succeed.
    pub transient: bool,
    /// Human-readable detail (single line).
    pub detail: String,
}

impl RunError {
    /// A retryable failure.
    pub fn transient(kind: RunErrorKind, detail: impl Into<String>) -> RunError {
        RunError {
            kind,
            transient: true,
            detail: detail.into(),
        }
    }

    /// A permanent failure: retrying cannot help.
    pub fn permanent(kind: RunErrorKind, detail: impl Into<String>) -> RunError {
        RunError {
            kind,
            transient: false,
            detail: detail.into(),
        }
    }

    /// A quarantined panic (always permanent: a panicking job is poisoned,
    /// not flaky — re-running it would panic again and waste a bisection).
    pub fn panic(detail: impl Into<String>) -> RunError {
        RunError::permanent(RunErrorKind::Panic, detail)
    }

    /// Whether a retry may succeed.
    pub fn is_transient(&self) -> bool {
        self.transient
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} job failure ({}): {}",
            if self.transient {
                "transient"
            } else {
                "permanent"
            },
            self.kind.tag(),
            self.detail
        )
    }
}

impl std::error::Error for RunError {}

/// Bounded deterministic retry policy for transient [`RunError`]s.
///
/// `max_attempts` counts *total* executions of a job, the first included;
/// before retry attempt `k` (`k >= 2`) the engine sleeps
/// `min(base_backoff * 2^(k-2), max_backoff)`. The backoff affects timing
/// only: jobs are deterministic in their inputs, so a recovered retry is
/// bit-identical to a first-attempt success.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per job, first execution included (`>= 1`).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per further attempt.
    pub base_backoff: Duration,
    /// Cap on the per-attempt backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// No retries: every failure is final after the first attempt.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// `max_attempts` total attempts with zero backoff (tests, benchmarks).
    pub fn immediate(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// The sleep before attempt `attempt` (1-based; `None` for the first
    /// attempt or a zero-backoff policy).
    pub fn backoff_before(&self, attempt: u32) -> Option<Duration> {
        if attempt < 2 || self.base_backoff.is_zero() {
            return None;
        }
        let doublings = (attempt - 2).min(16);
        let backoff = self
            .base_backoff
            .checked_mul(1u32 << doublings)
            .unwrap_or(self.max_backoff)
            .min(self.max_backoff);
        (!backoff.is_zero()).then_some(backoff)
    }
}

/// What the failure domain did during one fallible execution — recorded in
/// `OverheadStats.failures` so degraded reports say *how* they degraded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailureStats {
    /// Total job re-executions spent on transient failures.
    pub retries: u64,
    /// Distinct jobs that were retried at least once.
    pub retried_jobs: u64,
    /// Jobs that still held a typed error after the retry budget.
    pub failed_jobs: u64,
    /// Panics caught and quarantined to a single job by bisection.
    pub isolated_panics: u64,
    /// `Ok` outputs rejected by shape validation (wrong measured width)
    /// and converted to transient [`RunErrorKind::CorruptOutput`]s.
    pub corrupt_outputs: u64,
    /// Mitigation subsets voided because a job they depend on failed
    /// (filled by `qt_core` recombination; always 0 at the batch layer).
    pub voided_subsets: u64,
}

impl FailureStats {
    /// Whether anything at all went wrong (or was retried).
    pub fn any(&self) -> bool {
        *self != FailureStats::default()
    }

    /// Field-wise sum (accumulating per-batch stats into service totals).
    pub fn merge(&mut self, other: &FailureStats) {
        self.retries += other.retries;
        self.retried_jobs += other.retried_jobs;
        self.failed_jobs += other.failed_jobs;
        self.isolated_panics += other.isolated_panics;
        self.corrupt_outputs += other.corrupt_outputs;
        self.voided_subsets += other.voided_subsets;
    }
}

/// One injected fault, persistent for a given job key within one
/// [`ChaosRunner`] (attempt counters live in the runner).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail the job's first `attempts` executions with a transient
    /// [`RunErrorKind::Backend`] error, then succeed.
    Transient {
        /// Failing executions before the job recovers.
        attempts: u32,
    },
    /// Fail every execution with a permanent [`RunErrorKind::Backend`]
    /// error.
    Fatal,
    /// Panic on every execution (until the caller quarantines the job).
    Panic,
    /// Return a corrupt-shaped output (wrong measured width) for the
    /// job's first `attempts` executions, then succeed.
    Corrupt {
        /// Corrupt executions before the job recovers.
        attempts: u32,
    },
    /// Sleep `millis` before executing (models slow backends; results are
    /// unchanged).
    Latency {
        /// Injected delay per afflicted batch, in milliseconds.
        millis: u64,
    },
}

/// The seeded fault schedule of a [`ChaosRunner`]. Rates are independent
/// per-job probabilities evaluated in a fixed order (panic, fatal,
/// transient, corrupt, latency) against one uniform draw per job key, so
/// the classes are mutually exclusive and their rates sum at most to 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed of the fault schedule: the fault (if any) a job suffers is a
    /// pure function of `(seed, JobKey)`.
    pub seed: u64,
    /// Probability a job panics on every execution.
    pub panic_rate: f64,
    /// Probability a job fails permanently.
    pub fatal_rate: f64,
    /// Probability a job fails transiently (recovering after a seeded
    /// number of attempts in `1..=max_transient_attempts`).
    pub transient_rate: f64,
    /// Probability a job returns corrupt-shaped outputs before recovering
    /// (same attempt schedule as transient faults).
    pub corrupt_rate: f64,
    /// Probability a job's batch is delayed by `latency_millis`.
    pub latency_rate: f64,
    /// Failing executions a transient/corrupt job suffers before it
    /// recovers, upper bound (the exact count is seeded per job).
    pub max_transient_attempts: u32,
    /// Injected delay for latency faults, in milliseconds.
    pub latency_millis: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            panic_rate: 0.0,
            fatal_rate: 0.0,
            transient_rate: 0.0,
            corrupt_rate: 0.0,
            latency_rate: 0.0,
            max_transient_attempts: 2,
            latency_millis: 1,
        }
    }
}

impl ChaosConfig {
    /// A schedule that injects nothing — `ChaosRunner` becomes a
    /// transparent wrapper (the control arm of chaos tests).
    pub fn quiet(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            ..ChaosConfig::default()
        }
    }
}

/// Counts of faults a [`ChaosRunner`] actually injected (observability:
/// chaos tests assert their schedule really fired).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedFaults {
    /// Panics raised.
    pub panics: u64,
    /// Transient errors returned.
    pub transient_errors: u64,
    /// Permanent errors returned.
    pub fatal_errors: u64,
    /// Corrupt-shaped outputs returned.
    pub corrupt_outputs: u64,
    /// Batch delays applied.
    pub delays: u64,
}

/// SplitMix64-style avalanche used by the fault schedule.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The schedule hash of `(seed, key)`: both 64-bit halves of the job key
/// folded through the avalanche.
fn schedule_hash(seed: u64, key: JobKey) -> u64 {
    let bits = key.bits();
    mix64(mix64(seed.wrapping_add(bits as u64)).wrapping_add((bits >> 64) as u64))
}

/// A deterministic fault-injection [`Runner`] wrapper.
///
/// Faults are scheduled per *job key* from [`ChaosConfig`] (plus explicit
/// [`ChaosRunner::with_fault`] overrides for targeted tests), and attempt
/// counters advance only on the fallible surface
/// ([`Runner::try_run_batch`]), where failure is expressible. The
/// infallible surface injects only the faults it can express — panics and
/// latency — and passes everything else through untouched, so legacy
/// callers see correct results or a crash, never a silent corruption.
///
/// Determinism: given the same `(inner runner, config, overrides)` and the
/// same sequence of executions per job key, a fresh `ChaosRunner` injects
/// the identical fault sequence — chaos runs replay bit for bit.
pub struct ChaosRunner<R> {
    inner: R,
    config: ChaosConfig,
    overrides: HashMap<JobKey, Fault>,
    /// Executions seen per job key on the fallible surface.
    attempts: Mutex<HashMap<JobKey, u32>>,
    panics: AtomicU64,
    transient_errors: AtomicU64,
    fatal_errors: AtomicU64,
    corrupt_outputs: AtomicU64,
    delays: AtomicU64,
}

/// The outcome the chaos schedule picked for one job execution.
enum Injection {
    None,
    Delay(u64),
    Error(RunError),
    Corrupt,
    Panic,
}

impl<R> ChaosRunner<R> {
    /// Wraps `inner` with the fault schedule in `config`.
    pub fn new(inner: R, config: ChaosConfig) -> ChaosRunner<R> {
        ChaosRunner {
            inner,
            config,
            overrides: HashMap::new(),
            attempts: Mutex::new(HashMap::new()),
            panics: AtomicU64::new(0),
            transient_errors: AtomicU64::new(0),
            fatal_errors: AtomicU64::new(0),
            corrupt_outputs: AtomicU64::new(0),
            delays: AtomicU64::new(0),
        }
    }

    /// Pins an explicit fault for one job key, overriding the seeded
    /// schedule (targeted tests: poison exactly this program).
    pub fn with_fault(mut self, key: JobKey, fault: Fault) -> ChaosRunner<R> {
        self.overrides.insert(key, fault);
        self
    }

    /// The wrapped runner.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// Faults injected so far.
    pub fn injected(&self) -> InjectedFaults {
        InjectedFaults {
            panics: self.panics.load(Ordering::Relaxed),
            transient_errors: self.transient_errors.load(Ordering::Relaxed),
            fatal_errors: self.fatal_errors.load(Ordering::Relaxed),
            corrupt_outputs: self.corrupt_outputs.load(Ordering::Relaxed),
            delays: self.delays.load(Ordering::Relaxed),
        }
    }

    /// Forgets all attempt counters: the next execution of every job key
    /// replays its fault schedule from attempt zero.
    pub fn reset_attempts(&self) {
        lock_recover(&self.attempts).clear();
    }

    /// The fault (if any) the schedule assigns to `key`.
    pub fn fault_for(&self, key: JobKey) -> Option<Fault> {
        if let Some(&f) = self.overrides.get(&key) {
            return Some(f);
        }
        let c = &self.config;
        let h = schedule_hash(c.seed, key);
        // 53 uniform bits, the standard f64-from-u64 construction.
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let mut edge = c.panic_rate;
        if u < edge {
            return Some(Fault::Panic);
        }
        edge += c.fatal_rate;
        if u < edge {
            return Some(Fault::Fatal);
        }
        let attempts = {
            let span = c.max_transient_attempts.max(1) as u64;
            1 + (mix64(h ^ 0xa5a5_a5a5_5a5a_5a5a) % span) as u32
        };
        edge += c.transient_rate;
        if u < edge {
            return Some(Fault::Transient { attempts });
        }
        edge += c.corrupt_rate;
        if u < edge {
            return Some(Fault::Corrupt { attempts });
        }
        edge += c.latency_rate;
        if u < edge {
            return Some(Fault::Latency {
                millis: c.latency_millis,
            });
        }
        None
    }

    /// Resolves the injection for one execution of `job`, advancing its
    /// attempt counter when `count_attempt` is set (fallible surface only
    /// — the infallible surface must not perturb the schedule replayed by
    /// retries).
    fn inject(&self, job: &BatchJob, count_attempt: bool) -> Injection {
        let key = job.dedup_key();
        let Some(fault) = self.fault_for(key) else {
            return Injection::None;
        };
        let attempt = if count_attempt {
            let mut seen = lock_recover(&self.attempts);
            let slot = seen.entry(key).or_insert(0);
            let attempt = *slot;
            *slot += 1;
            attempt
        } else {
            0
        };
        match fault {
            Fault::Panic => Injection::Panic,
            Fault::Fatal => Injection::Error(RunError::permanent(
                RunErrorKind::Backend,
                format!(
                    "chaos: injected fatal backend error (key {:#x})",
                    key.bits()
                ),
            )),
            Fault::Transient { attempts } if attempt < attempts => {
                Injection::Error(RunError::transient(
                    RunErrorKind::Backend,
                    format!(
                        "chaos: injected transient backend error (attempt {} of {}, key {:#x})",
                        attempt + 1,
                        attempts,
                        key.bits()
                    ),
                ))
            }
            Fault::Corrupt { attempts } if attempt < attempts => Injection::Corrupt,
            Fault::Latency { millis } => Injection::Delay(millis),
            Fault::Transient { .. } | Fault::Corrupt { .. } => Injection::None,
        }
    }

    /// An output whose distribution width disagrees with the job's
    /// measured register — the shape corruption that validation upstream
    /// must catch.
    fn corrupt_output(job: &BatchJob) -> RunOutput {
        let m = job.measured.len();
        let wrong_bits = if m < 64 { m + 1 } else { m - 1 };
        RunOutput {
            dist: Distribution::try_from_entries(wrong_bits, vec![(0, 1.0)])
                .expect("1 <= wrong_bits <= 64"),
            gates: 0,
            two_qubit_gates: 0,
        }
    }
}

impl<R: Runner> Runner for ChaosRunner<R> {
    fn run(&self, program: &crate::Program, measured: &[usize]) -> RunOutput {
        let job = BatchJob::new(program.clone(), measured);
        match self.inject(&job, false) {
            Injection::Panic => {
                self.panics.fetch_add(1, Ordering::Relaxed);
                panic!("chaos: injected panic (key {:#x})", job.dedup_key().bits());
            }
            Injection::Delay(millis) => {
                self.delays.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(millis));
            }
            // The infallible surface cannot express errors; error-class
            // faults pass through clean here and fire on try_run_batch.
            _ => {}
        }
        self.inner.run(program, measured)
    }

    fn run_batch(&self, jobs: &[BatchJob]) -> Vec<RunOutput> {
        let mut delay = 0u64;
        for job in jobs {
            match self.inject(job, false) {
                Injection::Panic => {
                    self.panics.fetch_add(1, Ordering::Relaxed);
                    panic!("chaos: injected panic (key {:#x})", job.dedup_key().bits());
                }
                Injection::Delay(millis) => delay = delay.max(millis),
                _ => {}
            }
        }
        if delay > 0 {
            self.delays.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(delay));
        }
        self.inner.run_batch(jobs)
    }

    fn try_run_batch(&self, jobs: &[BatchJob]) -> Vec<Result<RunOutput, RunError>> {
        // Resolve every injection (and advance attempt counters) before
        // doing any work, so an injected panic never fires while the
        // attempt lock is held and never leaves counters half-advanced.
        let injections: Vec<Injection> = jobs.iter().map(|j| self.inject(j, true)).collect();

        for (job, inj) in jobs.iter().zip(&injections) {
            if matches!(inj, Injection::Panic) {
                self.panics.fetch_add(1, Ordering::Relaxed);
                panic!("chaos: injected panic (key {:#x})", job.dedup_key().bits());
            }
        }
        let delay = injections
            .iter()
            .filter_map(|i| match i {
                Injection::Delay(ms) => Some(*ms),
                _ => None,
            })
            .max();
        if let Some(millis) = delay {
            self.delays.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(millis));
        }

        // Delegate the surviving jobs in ONE inner batch, preserving
        // whatever prefix sharing / grouping the wrapped runner does.
        let healthy: Vec<usize> = injections
            .iter()
            .enumerate()
            .filter(|(_, inj)| matches!(inj, Injection::None | Injection::Delay(_)))
            .map(|(i, _)| i)
            .collect();
        let healthy_jobs: Vec<BatchJob> = healthy.iter().map(|&i| jobs[i].clone()).collect();
        let mut inner_results = self.inner.try_run_batch(&healthy_jobs).into_iter();

        injections
            .into_iter()
            .enumerate()
            .map(|(i, inj)| match inj {
                Injection::None | Injection::Delay(_) => inner_results
                    .next()
                    .expect("inner runner returned one result per job"),
                Injection::Error(e) => {
                    if e.transient {
                        self.transient_errors.fetch_add(1, Ordering::Relaxed);
                    } else {
                        self.fatal_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e)
                }
                Injection::Corrupt => {
                    self.corrupt_outputs.fetch_add(1, Ordering::Relaxed);
                    Ok(Self::corrupt_output(&jobs[i]))
                }
                Injection::Panic => unreachable!("panics fired above"),
            })
            .collect()
    }

    fn engine_mix(&self, jobs: &[BatchJob]) -> Option<Vec<(String, usize)>> {
        self.inner.engine_mix(jobs)
    }
}

/// Locks a mutex, recovering the guard from a poisoned lock (see
/// [`crate::sync`] — this module keeps its own copy to avoid a cyclic
/// import during bootstrap).
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Best-effort single-line rendering of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs a batch with panic quarantine: a panic anywhere in the submission
/// is caught and bisected down to the single job that raised it, which
/// fails with a typed [`RunErrorKind::Panic`]; every other job is
/// re-executed in panic-free sub-batches. Because `run_batch` is
/// bit-identical for any composition of the same jobs (the trie-merge
/// invariant), the healthy jobs' outputs are exactly what a fault-free
/// batch would have produced.
///
/// Returns the per-job results plus the number of quarantined panics.
/// Cost: a poisoned batch of `n` jobs re-executes healthy work across
/// `O(log n)` bisection levels — acceptable because panics are the rare
/// terminal fault, not the common case.
pub fn try_run_batch_isolated<R: Runner + ?Sized>(
    runner: &R,
    jobs: &[BatchJob],
) -> (Vec<Result<RunOutput, RunError>>, u64) {
    if jobs.is_empty() {
        return (Vec::new(), 0);
    }
    match catch_unwind(AssertUnwindSafe(|| runner.try_run_batch(jobs))) {
        Ok(results) if results.len() == jobs.len() => (results, 0),
        Ok(results) => {
            // Contract violation: the runner lost or invented results, so
            // no per-job attribution is possible. Fail the whole
            // submission with a permanent typed error.
            let err = RunError::permanent(
                RunErrorKind::Backend,
                format!(
                    "runner returned {} results for {} jobs",
                    results.len(),
                    jobs.len()
                ),
            );
            (vec![Err(err); jobs.len()], 0)
        }
        Err(payload) => {
            if jobs.len() == 1 {
                let err = RunError::panic(format!(
                    "job panicked during execution: {}",
                    panic_message(payload.as_ref())
                ));
                (vec![Err(err)], 1)
            } else {
                let mid = jobs.len() / 2;
                let (mut left, p_left) = try_run_batch_isolated(runner, &jobs[..mid]);
                let (right, p_right) = try_run_batch_isolated(runner, &jobs[mid..]);
                left.extend(right);
                (left, p_left + p_right)
            }
        }
    }
}

/// Converts `Ok` outputs whose distribution width disagrees with the
/// job's measured register into transient [`RunErrorKind::CorruptOutput`]
/// errors (counted in `stats`). Runs after every execution round so a
/// corrupt readback gets the same retry treatment as a transient error.
fn validate_shapes(
    jobs: &[BatchJob],
    results: &mut [Result<RunOutput, RunError>],
    stats: &mut FailureStats,
) {
    for (job, res) in jobs.iter().zip(results.iter_mut()) {
        if let Ok(out) = res {
            let want = job.measured.len();
            let got = out.dist.n_bits();
            if got != want {
                stats.corrupt_outputs += 1;
                *res = Err(RunError::transient(
                    RunErrorKind::CorruptOutput,
                    format!("output has {got} measured bits, job measures {want}"),
                ));
            }
        }
    }
}

/// The full failure-domain engine: panic quarantine
/// ([`try_run_batch_isolated`]), corrupt-shape validation, and bounded
/// retry-with-backoff for transient errors, re-submitting only the failed
/// jobs as one sub-batch per attempt.
///
/// Returns exactly one result per job, in job order, also when the runner
/// breaks the batch count (see [`try_run_batch_isolated`]).
///
/// Determinism: every surviving `Ok` output is bit-identical to the
/// fault-free run of the same job list — retries re-execute deterministic
/// jobs, backoff only delays them, and quarantine re-runs healthy jobs in
/// composition-invariant sub-batches. With a fault schedule whose
/// transient attempts fit inside `policy.max_attempts`, the whole result
/// vector is therefore bit-identical to the fault-free run.
pub fn try_run_batch_resilient<R: Runner + ?Sized>(
    runner: &R,
    jobs: &[BatchJob],
    policy: &RetryPolicy,
) -> (Vec<Result<RunOutput, RunError>>, FailureStats) {
    let mut stats = FailureStats::default();
    let (mut results, panics) = try_run_batch_isolated(runner, jobs);
    stats.isolated_panics += panics;
    validate_shapes(jobs, &mut results, &mut stats);

    let mut pending: Vec<usize> = results
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r, Err(e) if e.transient))
        .map(|(i, _)| i)
        .collect();

    for attempt in 2..=policy.max_attempts {
        if pending.is_empty() {
            break;
        }
        if attempt == 2 {
            stats.retried_jobs = pending.len() as u64;
        }
        if let Some(backoff) = policy.backoff_before(attempt) {
            std::thread::sleep(backoff);
        }
        stats.retries += pending.len() as u64;
        let retry_jobs: Vec<BatchJob> = pending.iter().map(|&i| jobs[i].clone()).collect();
        let (mut retry_results, panics) = try_run_batch_isolated(runner, &retry_jobs);
        stats.isolated_panics += panics;
        validate_shapes(&retry_jobs, &mut retry_results, &mut stats);

        let mut still_pending = Vec::new();
        for (&slot, res) in pending.iter().zip(retry_results) {
            if matches!(&res, Err(e) if e.transient) {
                still_pending.push(slot);
            }
            results[slot] = res;
        }
        pending = still_pending;
    }

    stats.failed_jobs = results.iter().filter(|r| r.is_err()).count() as u64;
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, Executor, NoiseModel, Program};
    use qt_circuit::Circuit;

    fn executor() -> Executor {
        Executor::with_backend(
            NoiseModel::depolarizing(0.001, 0.01).with_readout(0.02),
            Backend::DensityMatrix,
        )
    }

    fn jobs(n: usize) -> Vec<BatchJob> {
        (0..n)
            .map(|i| {
                let mut c = Circuit::new(2);
                c.h(0).cx(0, 1).rz(1, 0.1 + i as f64 * 0.07);
                BatchJob::new(Program::from_circuit(&c), vec![0, 1])
            })
            .collect()
    }

    fn assert_outputs_identical(a: &RunOutput, b: &RunOutput, what: &str) {
        let xs: Vec<(u64, u64)> = a.dist.iter().map(|(i, p)| (i, p.to_bits())).collect();
        let ys: Vec<(u64, u64)> = b.dist.iter().map(|(i, p)| (i, p.to_bits())).collect();
        assert_eq!(xs, ys, "{what}: distributions differ");
        assert_eq!(a.gates, b.gates, "{what}: gate counts differ");
    }

    /// An executor whose fallible batch loses its last result: a runner
    /// breaking the one-result-per-job contract.
    struct DropsLastResult(Executor);

    impl Runner for DropsLastResult {
        fn run(&self, program: &Program, measured: &[usize]) -> RunOutput {
            self.0.run(program, measured)
        }

        fn try_run_batch(&self, jobs: &[BatchJob]) -> Vec<Result<RunOutput, RunError>> {
            let mut results = self.0.try_run_batch(jobs);
            results.pop();
            results
        }
    }

    /// A count violation leaves no per-job attribution: both the isolated
    /// and the resilient run answer every job, in order, with a permanent
    /// `Backend` error, and never retry.
    #[test]
    fn a_runner_dropping_a_result_fails_every_job_permanently() {
        let batch = jobs(5);
        let runner = DropsLastResult(executor());
        let (isolated, panics) = try_run_batch_isolated(&runner, &batch);
        let (resilient, stats) = try_run_batch_resilient(&runner, &batch, &RetryPolicy::default());
        assert_eq!(panics, 0);
        for results in [&isolated, &resilient] {
            assert_eq!(results.len(), batch.len());
            for r in results {
                let e = r.as_ref().expect_err("no job survives a count violation");
                assert_eq!((e.kind, e.transient), (RunErrorKind::Backend, false));
            }
        }
        assert_eq!(stats.failed_jobs, batch.len() as u64);
        assert_eq!(stats.retries, 0);
    }

    #[test]
    fn quiet_chaos_is_transparent() {
        let batch = jobs(4);
        let clean = executor().run_batch(&batch);
        let chaos = ChaosRunner::new(executor(), ChaosConfig::quiet(9));
        let wrapped = chaos.try_run_batch(&batch);
        assert_eq!(wrapped.len(), clean.len());
        for (i, (w, c)) in wrapped.iter().zip(&clean).enumerate() {
            assert_outputs_identical(w.as_ref().unwrap(), c, &format!("job {i}"));
        }
        assert_eq!(chaos.injected(), InjectedFaults::default());
    }

    #[test]
    fn fault_schedule_is_a_pure_function_of_seed_and_key() {
        let cfg = ChaosConfig {
            seed: 42,
            transient_rate: 0.3,
            fatal_rate: 0.2,
            panic_rate: 0.1,
            corrupt_rate: 0.2,
            latency_rate: 0.1,
            ..ChaosConfig::default()
        };
        let a = ChaosRunner::new(executor(), cfg);
        let b = ChaosRunner::new(executor(), cfg);
        let batch = jobs(32);
        let mut classes = std::collections::HashSet::new();
        for job in &batch {
            let key = job.dedup_key();
            assert_eq!(a.fault_for(key), b.fault_for(key), "schedule must be pure");
            classes.insert(std::mem::discriminant(
                &a.fault_for(key).unwrap_or(Fault::Fatal),
            ));
        }
        // With 32 keys and every class at >= 10%, the schedule should hit
        // more than one fault class (sanity: rates actually matter).
        assert!(classes.len() > 1, "schedule degenerated to one class");
    }

    #[test]
    fn transient_fault_fails_exactly_k_attempts_then_recovers_bit_identically() {
        let batch = jobs(1);
        let key = batch[0].dedup_key();
        let clean = executor().run_batch(&batch);
        let chaos = ChaosRunner::new(executor(), ChaosConfig::quiet(0))
            .with_fault(key, Fault::Transient { attempts: 2 });
        for attempt in 0..2 {
            let res = chaos.try_run_batch(&batch);
            assert!(
                matches!(&res[0], Err(e) if e.transient && e.kind == RunErrorKind::Backend),
                "attempt {attempt} should fail transiently, got {:?}",
                res[0]
            );
        }
        let res = chaos.try_run_batch(&batch);
        assert_outputs_identical(res[0].as_ref().unwrap(), &clean[0], "recovered attempt");
        assert_eq!(chaos.injected().transient_errors, 2);
    }

    #[test]
    fn resilient_retry_recovers_transients_within_budget() {
        let batch = jobs(5);
        let clean = executor().run_batch(&batch);
        let chaos = ChaosRunner::new(executor(), ChaosConfig::quiet(0))
            .with_fault(batch[1].dedup_key(), Fault::Transient { attempts: 2 })
            .with_fault(batch[3].dedup_key(), Fault::Corrupt { attempts: 1 });
        let (results, stats) = try_run_batch_resilient(&chaos, &batch, &RetryPolicy::immediate(3));
        for (i, (r, c)) in results.iter().zip(&clean).enumerate() {
            assert_outputs_identical(r.as_ref().unwrap(), c, &format!("job {i}"));
        }
        assert_eq!(stats.retried_jobs, 2);
        assert_eq!(stats.retries, 3, "job 1 retried twice, job 3 once");
        assert_eq!(stats.corrupt_outputs, 1);
        assert_eq!(stats.failed_jobs, 0);
    }

    #[test]
    fn resilient_retry_gives_up_past_budget_with_typed_error() {
        let batch = jobs(2);
        let chaos = ChaosRunner::new(executor(), ChaosConfig::quiet(0))
            .with_fault(batch[0].dedup_key(), Fault::Transient { attempts: 5 });
        let (results, stats) = try_run_batch_resilient(&chaos, &batch, &RetryPolicy::immediate(3));
        assert!(
            matches!(&results[0], Err(e) if e.transient),
            "exhausted budget must surface the typed transient error"
        );
        assert!(results[1].is_ok(), "healthy cohabitant must survive");
        assert_eq!(stats.failed_jobs, 1);
        assert_eq!(stats.retries, 2);
    }

    #[test]
    fn bisection_quarantines_the_panicking_job_only() {
        let batch = jobs(6);
        let clean = executor().run_batch(&batch);
        let chaos = ChaosRunner::new(executor(), ChaosConfig::quiet(0))
            .with_fault(batch[2].dedup_key(), Fault::Panic);
        let (results, panics) = try_run_batch_isolated(&chaos, &batch);
        assert_eq!(panics, 1);
        for (i, (r, c)) in results.iter().zip(&clean).enumerate() {
            if i == 2 {
                assert!(
                    matches!(r, Err(e) if e.kind == RunErrorKind::Panic && !e.transient),
                    "poisoned job must fail with a typed quarantined panic, got {r:?}"
                );
            } else {
                assert_outputs_identical(
                    r.as_ref().unwrap(),
                    c,
                    &format!("healthy cohabitant {i}"),
                );
            }
        }
    }

    #[test]
    fn fatal_faults_are_permanent_and_never_retried() {
        let batch = jobs(2);
        let chaos = ChaosRunner::new(executor(), ChaosConfig::quiet(0))
            .with_fault(batch[0].dedup_key(), Fault::Fatal);
        let (results, stats) = try_run_batch_resilient(&chaos, &batch, &RetryPolicy::immediate(4));
        assert!(matches!(&results[0], Err(e) if !e.transient));
        assert_eq!(stats.retries, 0, "permanent errors must not consume budget");
        assert_eq!(chaos.injected().fatal_errors, 1);
    }

    #[test]
    fn corrupt_shapes_are_detected_and_become_transient_errors() {
        let batch = jobs(1);
        let chaos = ChaosRunner::new(executor(), ChaosConfig::quiet(0))
            .with_fault(batch[0].dedup_key(), Fault::Corrupt { attempts: 10 });
        let (results, stats) = try_run_batch_resilient(&chaos, &batch, &RetryPolicy::immediate(2));
        assert!(
            matches!(&results[0], Err(e) if e.kind == RunErrorKind::CorruptOutput && e.transient),
            "corrupt output past budget must surface as typed CorruptOutput"
        );
        assert_eq!(stats.corrupt_outputs, 2, "one per attempt");
    }

    #[test]
    fn backoff_schedule_doubles_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_millis(4),
            max_backoff: Duration::from_millis(10),
        };
        assert_eq!(policy.backoff_before(1), None);
        assert_eq!(policy.backoff_before(2), Some(Duration::from_millis(4)));
        assert_eq!(policy.backoff_before(3), Some(Duration::from_millis(8)));
        assert_eq!(policy.backoff_before(4), Some(Duration::from_millis(10)));
        assert_eq!(RetryPolicy::immediate(3).backoff_before(2), None);
    }
}
