//! The service engine: admission, the cross-request batcher, the shared
//! result cache and the job registry. HTTP is a thin shell over this
//! module (see [`crate::server`]); tests can drive the engine directly.
//!
//! The whole mutable state — pending requests, the batch window, the job
//! registry and every counter — is one sans-IO state machine under one
//! `Mutex`. [`MitigationService`] drives it: it reads the clock, runs the
//! batcher thread and executes each batch outside the lock. One condvar
//! wakes the batcher (on every submit and on shutdown), the other wakes
//! waiters (after every batch and on shutdown).
//!
//! # Data flow
//!
//! ```text
//! submit ──plan──▶ bounded queue ──drain (size-or-deadline)──▶ batcher
//!                                                               │
//!                       ┌───────────────────────────────────────┘
//!                       ▼
//!          dedup all requests' jobs (JobInterner)
//!                       │ per distinct job
//!            cache hit ◀┴▶ miss ──▶ ONE run_batch over all misses
//!                       │            (trie merges shared prefixes
//!                       │             across unrelated requests)
//!                       ▼
//!      scatter per request ─▶ exact:   artifacts_from_outputs ─▶ recombine
//!                             session: finish_exact (samples every round)
//! ```
//!
//! Every request finishes in the batch that executed its jobs. An exact
//! report is bit-identical to a one-shot `run_qutracer` call with the
//! same runner, a sampled one to `MitigationPlan::run_sampled`: plan-order
//! jobs, trie execution and cache hits are all exact — the end-to-end
//! tests assert this with `f64::to_bits` equality through the wire format.
//!
//! # Failure domain
//!
//! Execution runs through [`qt_sim::try_run_batch_resilient`]: panics are
//! caught and quarantined to the offending job by batch bisection,
//! transient errors are retried within [`ServiceConfig::retry`], and a job
//! that still fails voids only the requests depending on it — cohabiting
//! healthy requests keep their bit-identical reports. Per-request
//! deadlines ([`ServiceConfig::request_deadline`]) turn overdue jobs into
//! typed 504s, and [`MitigationService::shutdown`] drains in-flight work
//! while failing queued work with [`ServiceError::ShuttingDown`] — every
//! submitted job terminates with a report or a typed error, never a hang.

use crate::core::{Next, RanBatch, ServiceCore, Ticket, Work};
use crate::error::ServiceError;
use qt_circuit::Circuit;
use qt_core::{MitigationSession, PlanView, QuTracer, QuTracerConfig, QuTracerReport, ShotPolicy};
use qt_sim::cache::{run_output_weight, CacheStats, ShardedLruCache};
use qt_sim::{
    batch_trie_stats, try_run_batch_resilient, wait_recover, wait_timeout_recover, BatchJob,
    FailureStats, JobInterner, LockRecoverExt, RetryPolicy, RunError, RunOutput, Runner, TrieStats,
};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shard count of the result cache. Only the batcher thread looks up and
/// inserts, so more shards would save no contention.
const CACHE_SHARDS: usize = 8;

/// Tunables of one service instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Admission bound: requests pending beyond this are rejected with
    /// [`ServiceError::Overloaded`].
    pub queue_capacity: usize,
    /// Drain size trigger: a batch closes as soon as this many requests
    /// are pending.
    pub batch_max_requests: usize,
    /// Drain deadline trigger: a batch closes at most this long after its
    /// first request arrives, full or not.
    pub batch_deadline: Duration,
    /// Byte budget of the shared result cache; `0` disables caching.
    pub cache_bytes: usize,
    /// Retry budget for transient job failures during batch execution
    /// (see [`qt_sim::try_run_batch_resilient`]). Retried work is
    /// bit-identical to first-attempt success, so retries never change a
    /// served report — only whether one is served.
    pub retry: RetryPolicy,
    /// Server-side wall-clock budget per request, measured from
    /// admission. A job still undelivered when it expires fails with
    /// [`ServiceError::DeadlineExceeded`] (HTTP 504) and its pending work
    /// is discarded; `None` disables deadlines.
    pub request_deadline: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 64,
            batch_max_requests: 8,
            batch_deadline: Duration::from_millis(2),
            cache_bytes: 32 << 20,
            retry: RetryPolicy::default(),
            request_deadline: None,
        }
    }
}

impl ServiceConfig {
    /// A configuration with batching and caching effectively disabled —
    /// every request executes alone (the load generator's per-request
    /// baseline arm).
    pub fn per_request(self) -> Self {
        ServiceConfig {
            batch_max_requests: 1,
            cache_bytes: 0,
            ..self
        }
    }
}

/// Where a submitted job currently is.
#[derive(Debug, Clone)]
pub enum JobState {
    /// Planned and admitted, waiting for a batch.
    Queued(PlanView),
    /// Part of the batch currently executing.
    Running(PlanView),
    /// Finished; the report is ready.
    Done(Arc<QuTracerReport>),
    /// Execution or recombination failed.
    Failed(ServiceError),
}

impl JobState {
    /// The wire name of this state.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued(_) => "queued",
            JobState::Running(_) => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
        }
    }

    /// `true` once the job can no longer change state.
    pub(crate) fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done(_) | JobState::Failed(_))
    }
}

/// A point-in-time snapshot of the service's counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceStats {
    /// Requests admitted (planned and queued).
    pub submitted: u64,
    /// Requests rejected at admission ([`ServiceError::Overloaded`]).
    pub rejected: u64,
    /// Requests finished with a report.
    pub completed: u64,
    /// Requests finished with an error.
    pub failed: u64,
    /// Requests currently pending in the queue.
    pub queue_depth: usize,
    /// Batches drained so far.
    pub batches: u64,
    /// Requests across all drained batches (`batched_requests / batches`
    /// is the achieved batch size).
    pub batched_requests: u64,
    /// Distinct jobs after cross-request dedup, across all batches.
    pub distinct_jobs: u64,
    /// Distinct jobs served from the result cache.
    pub cache_hit_jobs: u64,
    /// Distinct jobs actually executed.
    pub executed_jobs: u64,
    /// Result-cache counters (zeroes when the cache is disabled).
    pub cache: CacheStats,
    /// Accumulated prefix-sharing statistics of the executed (miss)
    /// batches — how much gate work cross-request merging shared.
    pub batch_trie: TrieStats,
    /// Accumulated failure-domain activity of the resilient execution
    /// path: retries spent, jobs recovered or failed, quarantined panics
    /// and corrupt outputs (see [`FailureStats`]).
    pub run_failures: FailureStats,
    /// Requests failed with [`ServiceError::DeadlineExceeded`].
    pub deadline_expired: u64,
}

/// The long-running mitigation engine behind the HTTP front-end.
pub struct MitigationService<R> {
    runner: R,
    config: ServiceConfig,
    /// The whole mutable state: the one lock.
    core: Mutex<ServiceCore>,
    /// Wakes the batcher: signalled by every submit and by shutdown.
    batch_cv: Condvar,
    /// Wakes waiters: signalled after every batch and by shutdown.
    done_cv: Condvar,
    cache: Option<ShardedLruCache<RunOutput>>,
}

impl<R: Runner + Send + Sync + 'static> MitigationService<R> {
    /// A service executing on `runner` under `config`. The batcher thread
    /// is *not* started — call [`MitigationService::spawn_batcher`] (or
    /// drive [`MitigationService::process_next_batch`] manually in tests).
    pub fn new(runner: R, config: ServiceConfig) -> Arc<Self> {
        let cache = (config.cache_bytes > 0)
            .then(|| ShardedLruCache::new(config.cache_bytes, CACHE_SHARDS));
        Arc::new(MitigationService {
            runner,
            config,
            core: Mutex::new(ServiceCore::new(config)),
            batch_cv: Condvar::new(),
            done_cv: Condvar::new(),
            cache,
        })
    }

    /// The configuration this service runs under.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Starts the batcher thread draining the queue until
    /// [`MitigationService::shutdown`]. Join the handle to wait for a
    /// clean drain.
    pub fn spawn_batcher(self: &Arc<Self>) -> JoinHandle<()> {
        let service = Arc::clone(self);
        std::thread::spawn(move || while service.process_next_batch() {})
    }

    /// Plans `circuit` and admits the job, returning its id.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Plan`] when planning fails,
    /// [`ServiceError::Overloaded`] when the queue is full,
    /// [`ServiceError::ShuttingDown`] after [`MitigationService::shutdown`].
    pub fn submit(
        &self,
        circuit: &Circuit,
        measured: &[usize],
        config: &QuTracerConfig,
    ) -> Result<u64, ServiceError> {
        let plan = QuTracer::plan(circuit, measured, config).map_err(ServiceError::Plan)?;
        self.admit(Work::Exact(Box::new(plan)))
    }

    /// Plans `circuit` and admits it as a finite-shot mitigation session
    /// under `policy` with `total_shots` and sampling seed `seed`. The
    /// session's jobs execute once through the shared batcher and result
    /// cache, and every round (two for a genuinely adaptive policy)
    /// samples that execution in the same batch pass; the served report is
    /// bit-identical to
    /// [`MitigationPlan::run_sampled`](qt_core::MitigationPlan::run_sampled)
    /// offline against the same runner.
    ///
    /// # Errors
    ///
    /// As [`MitigationService::submit`], plus
    /// [`ServiceError::Exec`] wrapping
    /// [`ExecError::InsufficientShotBudget`](qt_core::ExecError::InsufficientShotBudget) /
    /// [`ExecError::InvalidPilotFraction`](qt_core::ExecError::InvalidPilotFraction)
    /// for an unfundable budget or a malformed adaptive policy.
    pub fn submit_sampled(
        &self,
        circuit: &Circuit,
        measured: &[usize],
        config: &QuTracerConfig,
        total_shots: usize,
        policy: ShotPolicy,
        seed: u64,
    ) -> Result<u64, ServiceError> {
        let plan = QuTracer::plan(circuit, measured, config).map_err(ServiceError::Plan)?;
        let session =
            MitigationSession::new(plan, policy, total_shots, seed).map_err(ServiceError::Exec)?;
        self.admit(Work::Session(Box::new(session)))
    }

    fn admit(&self, work: Work) -> Result<u64, ServiceError> {
        let id = self.core.lock_recover().submit(Instant::now(), work)?;
        self.batch_cv.notify_one();
        Ok(id)
    }

    /// The current state of job `id`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::NotFound`] for unknown ids, including finished jobs
    /// evicted from the registry: it keeps the newest 1024 finished jobs.
    pub fn status(&self, id: u64) -> Result<JobState, ServiceError> {
        let mut core = self.core.lock_recover();
        Ok(core.state(Instant::now(), id)?.state.clone())
    }

    /// The finished report for job `id`, `None` while it is still in
    /// flight.
    ///
    /// # Errors
    ///
    /// [`ServiceError::NotFound`] for unknown ids, including evicted
    /// finished jobs (see [`MitigationService::status`]); the job's own
    /// error if it failed.
    pub fn result(&self, id: u64) -> Result<Option<Arc<QuTracerReport>>, ServiceError> {
        match self.status(id)? {
            JobState::Done(report) => Ok(Some(report)),
            JobState::Failed(e) => Err(e),
            _ => Ok(None),
        }
    }

    /// Blocks until job `id` reaches a terminal state, up to `timeout`
    /// (a timeout past what the clock can represent waits without bound).
    ///
    /// # Errors
    ///
    /// [`ServiceError::NotFound`] for unknown ids (including evicted
    /// finished jobs, see [`MitigationService::status`]) *and* for
    /// timeouts (the job is still unfinished — callers distinguish via
    /// [`MitigationService::status`]); the job's own error if it failed.
    pub fn wait_result(
        &self,
        id: u64,
        timeout: Duration,
    ) -> Result<Arc<QuTracerReport>, ServiceError> {
        let deadline = Instant::now().checked_add(timeout);
        let mut core = self.core.lock_recover();
        loop {
            let now = Instant::now();
            let entry = core.state(now, id)?;
            match &entry.state {
                JobState::Done(report) => return Ok(Arc::clone(report)),
                JobState::Failed(e) => return Err(e.clone()),
                _ if deadline.is_some_and(|d| now >= d) => {
                    return Err(ServiceError::NotFound { job: id })
                }
                _ => {}
            }
            // Also wake when the job's own server-side deadline lands, so
            // expiry is observed even if nothing is ever delivered. The
            // floor avoids a hot loop when the deadline falls between two
            // clock reads.
            let expiry = entry
                .deadline
                .map(|d| d.max(now + Duration::from_micros(50)));
            core = match deadline.into_iter().chain(expiry).min() {
                Some(wake) => wait_timeout_recover(&self.done_cv, core, wake - now).0,
                None => wait_recover(&self.done_cv, core),
            };
        }
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            cache: self.cache_stats(),
            ..self.core.lock_recover().stats()
        }
    }

    /// Result-cache counters (the satellite `cache_stats()` surface;
    /// all-zero when the cache is disabled).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.as_ref().map(|c| c.stats()).unwrap_or_default()
    }

    /// `true` while the service accepts new submissions — the readiness
    /// probe behind `GET /ready`. Liveness (`GET /health`) is simply the
    /// process answering.
    pub fn is_accepting(&self) -> bool {
        self.core.lock_recover().is_accepting()
    }

    /// Drain-shutdown: stops admission, fails everything still *queued*
    /// with a typed [`ServiceError::ShuttingDown`], and lets work already
    /// picked up by the batcher finish normally. Waiters are woken, so
    /// [`MitigationService::wait_result`] never hangs across a shutdown —
    /// every job resolves to its report or a typed error.
    pub fn shutdown(&self) {
        self.core.lock_recover().shutdown();
        self.batch_cv.notify_all();
        self.done_cv.notify_all();
    }

    /// Waits for, runs and delivers one batch. Returns `false` once the
    /// service is shut down and nothing is queued — the batcher's exit
    /// condition.
    pub fn process_next_batch(&self) -> bool {
        let mut core = self.core.lock_recover();
        let batch = loop {
            core = match core.next_batch(Instant::now()) {
                Next::Run(batch) => break batch,
                Next::Exit => return false,
                Next::Wait(None) => wait_recover(&self.batch_cv, core),
                Next::Wait(Some(until)) => {
                    let wait = until.saturating_duration_since(Instant::now());
                    wait_timeout_recover(&self.batch_cv, core, wait).0
                }
            };
        };
        drop(core);
        let ran = execute_batch(&self.runner, self.cache.as_ref(), &self.config.retry, batch);
        // Held from the scatter to the last delivery: a poll landing
        // meanwhile waits for its report instead of reading "pending".
        self.core
            .lock_recover()
            .deliver(Instant::now(), ran, |jobs| self.runner.engine_mix(jobs));
        self.done_cv.notify_all();
        true
    }
}

/// Runs one taken batch without the service lock: cross-request dedup,
/// cache lookups, and one merged *resilient* run over the misses (panic
/// quarantine by bisection, bounded retry of transients — see
/// [`qt_sim::try_run_batch_resilient`]). Results stay per distinct job,
/// so a job failure later voids only the requests that depend on it.
pub(crate) fn execute_batch<R: Runner>(
    runner: &R,
    cache: Option<&ShardedLruCache<RunOutput>>,
    retry: &RetryPolicy,
    tickets: Vec<Ticket>,
) -> RanBatch {
    // Cross-request dedup: every request's plan-order jobs land in one
    // shared table; equal jobs (same structural key) occupy one slot no
    // matter which user submitted them.
    let mut interner = JobInterner::new();
    let mut table: Vec<BatchJob> = Vec::new();
    let requests: Vec<(Ticket, Vec<BatchJob>, Vec<usize>)> = tickets
        .into_iter()
        .map(|ticket| {
            let jobs = ticket.work.batch_jobs();
            let slots = jobs
                .iter()
                .map(|job| interner.intern_with(&mut table, job.clone(), |job| job).0)
                .collect();
            (ticket, jobs, slots)
        })
        .collect();

    // Cache lookups per distinct job; the misses execute as ONE batch so
    // the trie scheduler merges shared prefixes across requests.
    let hits: Vec<Option<RunOutput>> = table
        .iter()
        .map(|job| cache.and_then(|cache| cache.get(job.dedup_key())))
        .collect();
    let miss_jobs: Vec<BatchJob> = table
        .iter()
        .zip(&hits)
        .filter(|(_, hit)| hit.is_none())
        .map(|(job, _)| job.clone())
        .collect();
    let (fresh, failures) = try_run_batch_resilient(runner, &miss_jobs, retry);
    // The resilient run answers every miss, in order, even when a runner
    // breaks the batch count, so each slot gets exactly one result.
    let mut fresh = fresh.into_iter();
    let results: Vec<Result<RunOutput, RunError>> = table
        .iter()
        .zip(hits)
        .map(|(job, hit)| match hit {
            Some(out) => Ok(out),
            None => {
                let res = fresh.next().expect("one resilient result per miss");
                if let (Some(cache), Ok(out)) = (cache, &res) {
                    cache.insert(job.dedup_key(), out.clone(), run_output_weight(out));
                }
                res
            }
        })
        .collect();
    RanBatch {
        requests,
        cache_hit_jobs: (table.len() - miss_jobs.len()) as u64,
        trie: batch_trie_stats(&miss_jobs),
        failures,
        results,
    }
}
