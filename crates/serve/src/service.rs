//! The service engine: admission, the cross-request batcher, the shared
//! result cache and the job registry. HTTP is a thin shell over this
//! module (see [`crate::server`]); tests can drive the engine directly.
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

use crate::error::ServiceError;
use crate::queue::{BoundedQueue, PushError};
use qt_circuit::Circuit;
use qt_core::{
    ExecError, MitigationPlan, MitigationSession, PlanView, QuTracer, QuTracerConfig,
    QuTracerReport, ShotPolicy,
};
use qt_sim::cache::{run_output_weight, CacheStats, ShardedLruCache};
use qt_sim::{
    batch_trie_stats, try_run_batch_resilient, wait_timeout_recover, BatchJob, FailureStats,
    JobInterner, LockRecoverExt, RetryPolicy, RunError, RunOutput, Runner, TrieStats,
};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
    /// Shard count of the result cache (rounded up to a power of two).
    pub cache_shards: usize,
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
            cache_shards: 8,
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
}

impl JobState {
    /// `true` once the job can no longer change state.
    fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done(_) | JobState::Failed(_))
    }
}

/// A job-registry entry: where the job is plus its server-side deadline.
struct JobEntry {
    state: JobState,
    /// Instant past which the job fails with
    /// [`ServiceError::DeadlineExceeded`]; `None` when deadlines are off.
    deadline: Option<Instant>,
}

/// Finished (`Done`/`Failed`) jobs the registry keeps: beyond this many,
/// the oldest finished entry is evicted and its id answers
/// [`ServiceError::NotFound`]. Queued and running jobs are never evicted,
/// so the registry holds at most this many entries plus the work in
/// flight, however long the service runs.
const MAX_FINISHED_JOBS: usize = 1024;

/// Every job the service answers for, plus the finish order of the
/// terminal ones.
#[derive(Default)]
struct JobRegistry {
    entries: HashMap<u64, JobEntry>,
    /// Ids of terminal entries, oldest first.
    finished: VecDeque<u64>,
    completed: u64,
    failed: u64,
}

impl JobRegistry {
    /// Moves job `id` to a terminal state: the one path of every delivery,
    /// deadline expiry and shutdown. Counts the outcome, records the id in
    /// finish order and evicts the oldest finished entries beyond
    /// [`MAX_FINISHED_JOBS`]. Unknown or already finished ids are left as
    /// they are.
    fn finish(&mut self, id: u64, state: JobState) {
        debug_assert!(state.is_terminal(), "finish needs a terminal state");
        let Some(entry) = self.entries.get_mut(&id) else {
            return;
        };
        if entry.state.is_terminal() {
            return;
        }
        match state {
            JobState::Done(_) => self.completed += 1,
            _ => self.failed += 1,
        }
        entry.state = state;
        self.finished.push_back(id);
        while self.finished.len() > MAX_FINISHED_JOBS {
            if let Some(oldest) = self.finished.pop_front() {
                self.entries.remove(&oldest);
            }
        }
    }

    /// Whether `id` is still waiting or running.
    fn is_live(&self, id: u64) -> bool {
        self.entries
            .get(&id)
            .is_some_and(|entry| !entry.state.is_terminal())
    }
}

/// The terminal state of a finished request.
fn outcome_state(outcome: Result<QuTracerReport, ServiceError>) -> JobState {
    match outcome {
        Ok(report) => JobState::Done(Arc::new(report)),
        Err(e) => JobState::Failed(e),
    }
}

/// One admitted request travelling from `submit` to the batcher. The
/// job's deadline lives in its [`JobEntry`]; the batcher observes it
/// through [`MitigationService::expire_if_overdue`] at pick-up/delivery.
struct Ticket {
    id: u64,
    work: Work,
}

/// What a ticket carries through the batcher.
enum Work {
    /// An exact single-pass request (the original `submit` surface).
    Exact(Box<MitigationPlan>),
    /// A finite-shot mitigation session: its jobs execute once through
    /// the same cross-request batcher and cache as exact work, and the
    /// session samples every round from those exact outputs
    /// ([`MitigationSession::finish_exact`]) — bit-identical to running
    /// the session offline against the same runner.
    Session(Box<MitigationSession<MitigationPlan>>),
}

impl Work {
    /// The request's batch jobs, in the order its recombination expects
    /// results back.
    fn batch_jobs(&self) -> Vec<BatchJob> {
        match self {
            Work::Exact(plan) => plan.batch_jobs(),
            Work::Session(session) => session.jobs().to_vec(),
        }
    }

    fn view(&self) -> PlanView {
        match self {
            Work::Exact(plan) => plan.view(),
            Work::Session(session) => session.strategy().view(),
        }
    }

    /// The request's report from its batch jobs' exact outputs (in
    /// [`Work::batch_jobs`] order) and the runner's engine mix.
    fn complete(
        self,
        outputs: Vec<RunOutput>,
        engine_mix: Option<Vec<(String, usize)>>,
    ) -> Result<QuTracerReport, ExecError> {
        match self {
            Work::Exact(plan) => plan
                .artifacts_from_outputs(outputs, engine_mix)?
                .recombine(),
            Work::Session(mut session) => {
                session.set_engine_mix(engine_mix);
                session.finish_exact(&outputs)
            }
        }
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
    queue: BoundedQueue<Ticket>,
    jobs: Mutex<JobRegistry>,
    /// Signalled whenever a job reaches a terminal state.
    done_cv: Condvar,
    next_id: AtomicU64,
    cache: Option<ShardedLruCache<RunOutput>>,
    submitted: AtomicU64,
    rejected: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    distinct_jobs: AtomicU64,
    cache_hit_jobs: AtomicU64,
    executed_jobs: AtomicU64,
    batch_trie: Mutex<TrieStats>,
    run_failures: Mutex<FailureStats>,
    deadline_expired: AtomicU64,
}

impl<R: Runner + Send + Sync + 'static> MitigationService<R> {
    /// A service executing on `runner` under `config`. The batcher thread
    /// is *not* started — call [`MitigationService::spawn_batcher`] (or
    /// drive [`MitigationService::process_next_batch`] manually in tests).
    pub fn new(runner: R, config: ServiceConfig) -> Arc<Self> {
        let cache = (config.cache_bytes > 0)
            .then(|| ShardedLruCache::new(config.cache_bytes, config.cache_shards));
        Arc::new(MitigationService {
            runner,
            config,
            queue: BoundedQueue::new(config.queue_capacity),
            jobs: Mutex::new(JobRegistry::default()),
            done_cv: Condvar::new(),
            next_id: AtomicU64::new(1),
            cache,
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            distinct_jobs: AtomicU64::new(0),
            cache_hit_jobs: AtomicU64::new(0),
            executed_jobs: AtomicU64::new(0),
            batch_trie: Mutex::new(TrieStats::default()),
            run_failures: Mutex::new(FailureStats::default()),
            deadline_expired: AtomicU64::new(0),
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
    /// bit-identical to [`MitigationPlan::run_sampled`] offline against
    /// the same runner.
    ///
    /// # Errors
    ///
    /// As [`MitigationService::submit`], plus
    /// [`ServiceError::Exec`] wrapping
    /// [`ExecError::InsufficientShotBudget`] /
    /// [`ExecError::InvalidPilotFraction`] for an unfundable budget or a
    /// malformed adaptive policy.
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
        let view = work.view();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let deadline = self.config.request_deadline.map(|d| Instant::now() + d);
        self.jobs.lock_recover().entries.insert(
            id,
            JobEntry {
                state: JobState::Queued(view),
                deadline,
            },
        );
        match self.queue.try_push(Ticket { id, work }) {
            Ok(()) => {
                self.submitted.fetch_add(1, Ordering::Relaxed);
                Ok(id)
            }
            Err(e) => {
                self.jobs.lock_recover().entries.remove(&id);
                match e {
                    PushError::Full => {
                        self.rejected.fetch_add(1, Ordering::Relaxed);
                        Err(ServiceError::Overloaded {
                            capacity: self.queue.capacity(),
                        })
                    }
                    PushError::Closed => Err(ServiceError::ShuttingDown),
                }
            }
        }
    }

    /// Fails job `id` with [`ServiceError::DeadlineExceeded`] if its
    /// server-side deadline has passed and it is still non-terminal.
    /// Expiry is observed lazily — at every registry access and at the
    /// batcher's pick-up and delivery points — so an expired job turns
    /// into a typed 504 wherever it is next touched.
    fn expire_if_overdue(&self, jobs: &mut JobRegistry, id: u64) {
        let overdue = jobs.entries.get(&id).is_some_and(|entry| {
            !entry.state.is_terminal() && entry.deadline.is_some_and(|d| Instant::now() >= d)
        });
        if overdue {
            let deadline_millis = self
                .config
                .request_deadline
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0);
            jobs.finish(
                id,
                JobState::Failed(ServiceError::DeadlineExceeded {
                    job: id,
                    deadline_millis,
                }),
            );
            self.deadline_expired.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The current state of job `id`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::NotFound`] for unknown ids, including finished jobs
    /// evicted from the registry: it keeps the newest 1024 finished jobs.
    pub fn status(&self, id: u64) -> Result<JobState, ServiceError> {
        let mut jobs = self.jobs.lock_recover();
        self.expire_if_overdue(&mut jobs, id);
        jobs.entries
            .get(&id)
            .map(|entry| entry.state.clone())
            .ok_or(ServiceError::NotFound { job: id })
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

    /// Blocks until job `id` reaches a terminal state, up to `timeout`.
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
        let deadline = Instant::now() + timeout;
        let mut jobs = self.jobs.lock_recover();
        loop {
            self.expire_if_overdue(&mut jobs, id);
            let Some(entry) = jobs.entries.get(&id) else {
                return Err(ServiceError::NotFound { job: id });
            };
            match &entry.state {
                JobState::Done(report) => return Ok(Arc::clone(report)),
                JobState::Failed(e) => return Err(e.clone()),
                _ => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(ServiceError::NotFound { job: id });
                    }
                    let mut wait = deadline - now;
                    if let Some(d) = entry.deadline {
                        // Wake when the job's own server-side deadline
                        // lands, so expiry is observed even if nothing is
                        // ever delivered. The floor avoids a hot loop when
                        // the deadline falls between two clock reads.
                        let until_expiry = d
                            .saturating_duration_since(now)
                            .max(Duration::from_micros(50));
                        wait = wait.min(until_expiry);
                    }
                    let (next, _) = wait_timeout_recover(&self.done_cv, jobs, wait);
                    jobs = next;
                }
            }
        }
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        let (completed, failed) = {
            let jobs = self.jobs.lock_recover();
            (jobs.completed, jobs.failed)
        };
        ServiceStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed,
            failed,
            queue_depth: self.queue.len(),
            batches: self.batches.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            distinct_jobs: self.distinct_jobs.load(Ordering::Relaxed),
            cache_hit_jobs: self.cache_hit_jobs.load(Ordering::Relaxed),
            executed_jobs: self.executed_jobs.load(Ordering::Relaxed),
            cache: self.cache.as_ref().map(|c| c.stats()).unwrap_or_default(),
            batch_trie: *self.batch_trie.lock_recover(),
            run_failures: *self.run_failures.lock_recover(),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
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
        !self.queue.is_closed()
    }

    /// Drain-shutdown: stops admission, fails everything still *queued*
    /// with a typed [`ServiceError::ShuttingDown`], and lets work already
    /// picked up by the batcher finish normally. Waiters are woken, so
    /// [`MitigationService::wait_result`] never hangs across a shutdown —
    /// every job resolves to its report or a typed error.
    pub fn shutdown(&self) {
        let orphans = self.queue.close_and_take();
        if !orphans.is_empty() {
            let mut jobs = self.jobs.lock_recover();
            for ticket in &orphans {
                jobs.finish(ticket.id, JobState::Failed(ServiceError::ShuttingDown));
            }
        }
        self.done_cv.notify_all();
    }

    /// Drains and processes one batch. Returns `false` once the queue is
    /// closed and empty — the batcher's exit condition.
    pub fn process_next_batch(&self) -> bool {
        let Some(batch) = self
            .queue
            .drain(self.config.batch_max_requests, self.config.batch_deadline)
        else {
            return false;
        };
        self.process_batch(batch);
        true
    }

    /// Executes one drained batch: cross-request dedup, cache lookups,
    /// one merged *resilient* run over the misses (panic quarantine by
    /// bisection, bounded retry of transients — see
    /// [`qt_sim::try_run_batch_resilient`]), then per-request scatter and
    /// recombination. A job failure voids only the requests that depend
    /// on that job: healthy cohabitants of the same batch still get
    /// reports bit-identical to a fault-free run.
    fn process_batch(&self, batch: Vec<Ticket>) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        // Pick-up: requests already past their deadline fail right here
        // (typed 504, no execution spent); the rest are marked Running.
        let mut live: Vec<Ticket> = Vec::with_capacity(batch.len());
        {
            let mut jobs = self.jobs.lock_recover();
            for ticket in batch {
                self.expire_if_overdue(&mut jobs, ticket.id);
                let Some(entry) = jobs.entries.get_mut(&ticket.id) else {
                    continue;
                };
                if entry.state.is_terminal() {
                    continue;
                }
                if let JobState::Queued(view) = &entry.state {
                    entry.state = JobState::Running(view.clone());
                }
                live.push(ticket);
            }
        }
        if live.is_empty() {
            self.done_cv.notify_all();
            return;
        }

        // Cross-request dedup: every request's plan-order jobs land in one
        // shared table; equal jobs (same structural key) occupy one slot
        // no matter which user submitted them.
        let per_request: Vec<Vec<BatchJob>> = live.iter().map(|t| t.work.batch_jobs()).collect();
        let mut interner = JobInterner::new();
        let mut table: Vec<BatchJob> = Vec::new();
        let request_slots: Vec<Vec<usize>> = per_request
            .iter()
            .map(|jobs| {
                jobs.iter()
                    .map(|job| interner.intern_with(&mut table, job.clone(), |job| job).0)
                    .collect()
            })
            .collect();
        self.distinct_jobs
            .fetch_add(table.len() as u64, Ordering::Relaxed);

        // Cache lookups per distinct job; the remainder executes as ONE
        // batch so the trie scheduler merges shared prefixes across
        // requests. Results are per-slot `Result`s: a failed job poisons
        // only the requests whose plans reference its slot.
        let mut results: Vec<Option<Result<RunOutput, RunError>>> = vec![None; table.len()];
        let mut miss_slots: Vec<usize> = Vec::new();
        for (slot, job) in table.iter().enumerate() {
            if let Some(cache) = &self.cache {
                if let Some(out) = cache.get(job.dedup_key()) {
                    results[slot] = Some(Ok(out));
                    continue;
                }
            }
            miss_slots.push(slot);
        }
        self.cache_hit_jobs
            .fetch_add((table.len() - miss_slots.len()) as u64, Ordering::Relaxed);
        self.executed_jobs
            .fetch_add(miss_slots.len() as u64, Ordering::Relaxed);

        if !miss_slots.is_empty() {
            let miss_jobs: Vec<BatchJob> =
                miss_slots.iter().map(|&slot| table[slot].clone()).collect();
            self.batch_trie
                .lock_recover()
                .absorb(&batch_trie_stats(&miss_jobs));
            // The resilient path isolates panics (batch bisection), turns
            // contract violations and corrupt shapes into typed errors and
            // retries transients within the configured budget — it always
            // returns exactly one Result per job and never unwinds into
            // the batcher thread.
            let (fresh, fail_stats) =
                try_run_batch_resilient(&self.runner, &miss_jobs, &self.config.retry);
            self.run_failures.lock_recover().merge(&fail_stats);
            for (&slot, res) in miss_slots.iter().zip(fresh) {
                if let (Some(cache), Ok(out)) = (&self.cache, &res) {
                    cache.insert(table[slot].dedup_key(), out.clone(), run_output_weight(out));
                }
                results[slot] = Some(res);
            }
        }

        // Scatter back per request and complete each one independently:
        // every request, exact or sampled, reaches a terminal state here.
        let mut jobs = self.jobs.lock_recover();
        for ((ticket, slots), own_jobs) in live.into_iter().zip(&request_slots).zip(&per_request) {
            let id = ticket.id;
            // Delivery-point deadline check: a report that missed its
            // deadline is discarded, not delivered late.
            self.expire_if_overdue(&mut jobs, id);
            if !jobs.is_live(id) {
                continue;
            }
            let gathered: Result<Vec<RunOutput>, ServiceError> = slots
                .iter()
                .enumerate()
                .map(|(local, &slot)| match &results[slot] {
                    Some(Ok(out)) => Ok(out.clone()),
                    Some(Err(error)) => Err(ServiceError::Exec(ExecError::JobFailed {
                        slot: local,
                        error: error.clone(),
                    })),
                    None => Err(ServiceError::Exec(ExecError::ResultCountMismatch {
                        expected: slots.len(),
                        got: 0,
                    })),
                })
                .collect();
            let outcome = gathered.and_then(|outputs| {
                let engine_mix = self.runner.engine_mix(own_jobs);
                ticket
                    .work
                    .complete(outputs, engine_mix)
                    .map_err(ServiceError::Exec)
            });
            jobs.finish(id, outcome_state(outcome));
        }
        drop(jobs);
        self.done_cv.notify_all();
    }
}
