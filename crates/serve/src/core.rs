//! The service's sans-IO state machine: admission, the batch window, the
//! job registry and every counter. Calls take the time as an argument;
//! nothing here locks, spawns, sleeps or reads a clock. The driver is
//! [`crate::service`].

use crate::error::ServiceError;
use crate::service::{JobState, ServiceConfig, ServiceStats};
use qt_core::{ExecError, MitigationPlan, MitigationSession, PlanView, QuTracerReport};
use qt_sim::{BatchJob, FailureStats, RunError, RunOutput, TrieStats};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Finished (`Done`/`Failed`) jobs the registry keeps: beyond this many,
/// the oldest finished entry is evicted and its id answers
/// [`ServiceError::NotFound`]. Queued and running jobs are never evicted,
/// so the registry holds at most this many entries plus the work in
/// flight, however long the service runs.
const MAX_FINISHED_JOBS: usize = 1024;

/// A job-registry entry: where the job is plus its server-side deadline.
pub(crate) struct JobEntry {
    pub(crate) state: JobState,
    /// Instant past which the job fails with
    /// [`ServiceError::DeadlineExceeded`]; `None` when deadlines are off or
    /// the deadline lies beyond what an `Instant` can represent.
    pub(crate) deadline: Option<Instant>,
}

/// One admitted request travelling from `submit` to the batcher. Its
/// deadline lives in its [`JobEntry`].
pub(crate) struct Ticket {
    pub(crate) id: u64,
    pub(crate) work: Work,
}

/// What a ticket carries through the batcher.
pub(crate) enum Work {
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
    pub(crate) fn batch_jobs(&self) -> Vec<BatchJob> {
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

/// What the batcher does next.
pub(crate) enum Next {
    /// Run these tickets, now `Running`: the batch the size-or-deadline
    /// rule closed, minus the requests that expired at pick-up.
    Run(Vec<Ticket>),
    /// Nothing to run yet. Wait for a submit or a shutdown, or until this
    /// instant, when the open batch window closes (`None`: no bound).
    Wait(Option<Instant>),
    /// Closed and empty: the batcher's exit.
    Exit,
}

/// A taken batch after its lock-free run: what [`ServiceCore::deliver`]
/// needs to finish every request in it.
pub(crate) struct RanBatch {
    /// Each live ticket with its plan-order jobs and their slots in
    /// `results`.
    pub(crate) requests: Vec<(Ticket, Vec<BatchJob>, Vec<usize>)>,
    /// Per distinct job: its output or its typed failure.
    pub(crate) results: Vec<Result<RunOutput, RunError>>,
    pub(crate) cache_hit_jobs: u64,
    /// Prefix sharing of the executed (miss) jobs.
    pub(crate) trie: TrieStats,
    pub(crate) failures: FailureStats,
}

/// The service's whole mutable state.
pub(crate) struct ServiceCore {
    config: ServiceConfig,
    pending: VecDeque<Ticket>,
    /// When the batcher first saw the current non-empty queue: the start
    /// of the open batch's deadline.
    window: Option<Instant>,
    closed: bool,
    next_id: u64,
    jobs: HashMap<u64, JobEntry>,
    /// Ids of terminal entries, oldest first.
    finished: VecDeque<u64>,
    /// [`MAX_FINISHED_JOBS`]; the model test shrinks it to reach eviction.
    max_finished: usize,
    /// Every counter; [`ServiceCore::stats`] fills in `queue_depth`, and
    /// the driver the cache's own counters.
    stats: ServiceStats,
}

impl ServiceCore {
    pub(crate) fn new(config: ServiceConfig) -> Self {
        ServiceCore {
            config,
            pending: VecDeque::new(),
            window: None,
            closed: false,
            next_id: 1,
            jobs: HashMap::new(),
            finished: VecDeque::new(),
            max_finished: MAX_FINISHED_JOBS,
            stats: ServiceStats::default(),
        }
    }

    /// `true` until [`ServiceCore::shutdown`].
    pub(crate) fn is_accepting(&self) -> bool {
        !self.closed
    }

    /// Admits `work` at `now`, returning its id. Never waits: a full queue
    /// is [`ServiceError::Overloaded`], a closed one
    /// [`ServiceError::ShuttingDown`], and neither leaves an entry.
    pub(crate) fn submit(&mut self, now: Instant, work: Work) -> Result<u64, ServiceError> {
        if self.closed {
            return Err(ServiceError::ShuttingDown);
        }
        let capacity = self.config.queue_capacity.max(1);
        if self.pending.len() >= capacity {
            self.stats.rejected += 1;
            return Err(ServiceError::Overloaded { capacity });
        }
        let id = self.next_id;
        self.next_id += 1;
        let state = JobState::Queued(work.view());
        // A deadline the clock cannot represent is no deadline.
        let deadline = self
            .config
            .request_deadline
            .and_then(|d| now.checked_add(d));
        self.jobs.insert(id, JobEntry { state, deadline });
        self.pending.push_back(Ticket { id, work });
        self.stats.submitted += 1;
        Ok(id)
    }

    /// The size-or-deadline rule: the first call that sees a non-empty
    /// queue opens the batch window; the batch closes once
    /// `batch_max_requests` requests are pending or `batch_deadline` has
    /// passed since the window opened, whichever comes first, and takes
    /// at most `batch_max_requests` requests. Requests already past their
    /// deadline fail at pick-up (typed 504, no execution spent); the rest
    /// turn `Running` and are returned to run.
    pub(crate) fn next_batch(&mut self, now: Instant) -> Next {
        if self.pending.is_empty() {
            return if self.closed {
                Next::Exit
            } else {
                Next::Wait(None)
            };
        }
        let window = *self.window.get_or_insert(now);
        let max = self.config.batch_max_requests.max(1);
        let deadline = self.config.batch_deadline;
        // Compares elapsed time rather than adding to `window`, so
        // `Duration::MAX` means "wait for a full batch".
        if self.pending.len() < max && now.saturating_duration_since(window) < deadline {
            return Next::Wait(window.checked_add(deadline));
        }
        self.window = None;
        let take = self.pending.len().min(max);
        self.stats.batches += 1;
        self.stats.batched_requests += take as u64;
        let batch: Vec<Ticket> = self.pending.drain(..take).collect();
        let mut live = Vec::with_capacity(batch.len());
        for ticket in batch {
            if !self.live(now, ticket.id) {
                continue;
            }
            if let Some(entry) = self.jobs.get_mut(&ticket.id) {
                if let JobState::Queued(view) = &entry.state {
                    entry.state = JobState::Running(view.clone());
                }
            }
            live.push(ticket);
        }
        Next::Run(live)
    }

    /// Finishes every request of a batch run outside the lock: checks each
    /// request's deadline at `now` (a report that missed it is discarded,
    /// not delivered late), gathers its jobs' results and recombines.
    /// A failed job fails only the requests that depend on it.
    pub(crate) fn deliver(
        &mut self,
        now: Instant,
        ran: RanBatch,
        engine_mix: impl Fn(&[BatchJob]) -> Option<Vec<(String, usize)>>,
    ) {
        let distinct = ran.results.len() as u64;
        self.stats.distinct_jobs += distinct;
        self.stats.cache_hit_jobs += ran.cache_hit_jobs;
        self.stats.executed_jobs += distinct - ran.cache_hit_jobs;
        self.stats.batch_trie.absorb(&ran.trie);
        self.stats.run_failures.merge(&ran.failures);
        for (ticket, jobs, slots) in ran.requests {
            if !self.live(now, ticket.id) {
                continue;
            }
            let gathered: Result<Vec<RunOutput>, ServiceError> = slots
                .iter()
                .enumerate()
                .map(|(local, &slot)| match &ran.results[slot] {
                    Ok(out) => Ok(out.clone()),
                    Err(error) => Err(ServiceError::Exec(ExecError::JobFailed {
                        slot: local,
                        error: error.clone(),
                    })),
                })
                .collect();
            let state = match gathered.and_then(|outputs| {
                ticket
                    .work
                    .complete(outputs, engine_mix(&jobs))
                    .map_err(ServiceError::Exec)
            }) {
                Ok(report) => JobState::Done(Arc::new(report)),
                Err(e) => JobState::Failed(e),
            };
            self.finish(ticket.id, state);
        }
    }

    /// Job `id`'s entry at `now`, after expiring it if it is overdue.
    pub(crate) fn state(&mut self, now: Instant, id: u64) -> Result<&JobEntry, ServiceError> {
        self.live(now, id);
        self.jobs.get(&id).ok_or(ServiceError::NotFound { job: id })
    }

    /// Closes admission and fails every queued ticket with
    /// [`ServiceError::ShuttingDown`], in one step: nothing failed here can
    /// also be taken by [`ServiceCore::next_batch`], which answers
    /// [`Next::Exit`] from now on. Running requests are left to finish.
    pub(crate) fn shutdown(&mut self) {
        self.closed = true;
        self.window = None;
        for ticket in std::mem::take(&mut self.pending) {
            self.finish(ticket.id, JobState::Failed(ServiceError::ShuttingDown));
        }
    }

    /// A snapshot of the counters (the cache's are the driver's to add).
    pub(crate) fn stats(&self) -> ServiceStats {
        ServiceStats {
            queue_depth: self.pending.len(),
            ..self.stats.clone()
        }
    }

    /// Whether job `id` is still queued or running at `now`. An overdue
    /// job fails with [`ServiceError::DeadlineExceeded`] first: expiry is
    /// observed lazily — at every state read and at the batcher's pick-up
    /// and delivery points — so an expired job turns into a typed 504
    /// wherever it is next touched.
    fn live(&mut self, now: Instant, id: u64) -> bool {
        let Some(entry) = self.jobs.get(&id) else {
            return false;
        };
        if entry.state.is_terminal() {
            return false;
        }
        if entry.deadline.is_none_or(|d| now < d) {
            return true;
        }
        let deadline_millis = self
            .config
            .request_deadline
            .map_or(0, |d| d.as_millis() as u64);
        let failure = ServiceError::DeadlineExceeded {
            job: id,
            deadline_millis,
        };
        self.finish(id, JobState::Failed(failure));
        self.stats.deadline_expired += 1;
        false
    }

    /// Moves job `id` to a terminal state: the one path of every delivery,
    /// deadline expiry and shutdown. Counts the outcome, records the id in
    /// finish order and evicts the oldest finished entries beyond
    /// `max_finished`. Unknown or already finished ids are left as they
    /// are.
    fn finish(&mut self, id: u64, state: JobState) {
        debug_assert!(state.is_terminal(), "finish needs a terminal state");
        let Some(entry) = self.jobs.get_mut(&id) else {
            return;
        };
        if entry.state.is_terminal() {
            return;
        }
        match state {
            JobState::Done(_) => self.stats.completed += 1,
            _ => self.stats.failed += 1,
        }
        entry.state = state;
        self.finished.push_back(id);
        while self.finished.len() > self.max_finished {
            if let Some(oldest) = self.finished.pop_front() {
                self.jobs.remove(&oldest);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::execute_batch;
    use crate::wire::report_to_json;
    use proptest::prelude::*;
    use qt_circuit::Circuit;
    use qt_core::{run_qutracer, QuTracer, QuTracerConfig, ShotPolicy};
    use qt_sim::cache::ShardedLruCache;
    use qt_sim::{
        Backend, ChaosConfig, ChaosRunner, Executor, JobKey, NoiseModel, Program, RetryPolicy,
        Runner,
    };
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::{Mutex, OnceLock};
    use std::time::Duration;

    const MEASURED: [usize; 2] = [0, 1];
    /// Circuit variants: distinct, so a report delivered to the wrong
    /// request shows.
    const VARIANTS: usize = 3;
    const SHOTS: usize = 4_000;

    fn executor() -> Executor {
        Executor::with_backend(
            NoiseModel::depolarizing(0.002, 0.02).with_readout(0.02),
            Backend::DensityMatrix,
        )
    }

    fn circuit(variant: usize) -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).ry(1, 0.3 + 0.2 * variant as f64);
        c
    }

    fn plan(variant: usize) -> MitigationPlan {
        static PLANS: OnceLock<Vec<MitigationPlan>> = OnceLock::new();
        PLANS.get_or_init(|| {
            (0..VARIANTS)
                .map(|v| {
                    QuTracer::plan(&circuit(v), &MEASURED, &QuTracerConfig::single())
                        .expect("plannable")
                })
                .collect()
        })[variant]
            .clone()
    }

    /// What a request asks for: a circuit variant, exact (`None`) or a
    /// session, uniform (`Some(false)`) or adaptive (`Some(true)`).
    type Kind = (usize, Option<bool>);

    fn policy(adaptive: bool) -> ShotPolicy {
        if adaptive {
            ShotPolicy::Adaptive {
                pilot_fraction: 0.5,
            }
        } else {
            ShotPolicy::Uniform
        }
    }

    fn work((variant, sampled): Kind) -> Work {
        match sampled {
            None => Work::Exact(Box::new(plan(variant))),
            Some(adaptive) => Work::Session(Box::new(
                MitigationSession::new(plan(variant), policy(adaptive), SHOTS, variant as u64)
                    .expect("fundable session"),
            )),
        }
    }

    /// The offline report of `kind` on a fault-free executor, in wire form:
    /// equal strings are bit-identical reports.
    fn reference((variant, sampled): Kind) -> &'static str {
        static REFS: OnceLock<BTreeMap<Kind, String>> = OnceLock::new();
        let refs = REFS.get_or_init(|| {
            let mut refs = BTreeMap::new();
            for v in 0..VARIANTS {
                for sampled in [None, Some(false), Some(true)] {
                    let report = match sampled {
                        None => run_qutracer(
                            &executor(),
                            &circuit(v),
                            &MEASURED,
                            &QuTracerConfig::single(),
                        ),
                        Some(adaptive) => plan(v)
                            .run_sampled(&executor(), SHOTS, policy(adaptive), v as u64)
                            .expect("fault-free session"),
                    };
                    refs.insert((v, sampled), report_to_json(&report).to_string());
                }
            }
            refs
        });
        &refs[&(variant, sampled)]
    }

    fn config(capacity: usize, max: usize, batch_deadline: Duration) -> ServiceConfig {
        ServiceConfig {
            queue_capacity: capacity,
            batch_max_requests: max,
            batch_deadline,
            ..ServiceConfig::default()
        }
    }

    fn ids(next: Next) -> Vec<u64> {
        match next {
            Next::Run(batch) => batch.iter().map(|t| t.id).collect(),
            Next::Wait(_) => panic!("expected a batch, got Wait"),
            Next::Exit => panic!("expected a batch, got Exit"),
        }
    }

    fn waits_until(next: Next) -> Option<Instant> {
        match next {
            Next::Wait(until) => until,
            _ => panic!("expected Wait"),
        }
    }

    #[test]
    fn a_full_queue_rejects_at_once_and_leaves_no_entry() {
        let t0 = Instant::now();
        let mut core = ServiceCore::new(config(2, 8, Duration::from_millis(2)));
        assert_eq!(core.submit(t0, work((0, None))), Ok(1));
        assert_eq!(core.submit(t0, work((1, None))), Ok(2));
        assert_eq!(
            core.submit(t0, work((2, None))),
            Err(ServiceError::Overloaded { capacity: 2 })
        );
        assert_eq!(core.jobs.len(), 2);
        let stats = core.stats();
        assert_eq!(
            (stats.submitted, stats.rejected, stats.queue_depth),
            (2, 1, 2)
        );
        // A capacity of 0 admits one request, as a capacity of 1.
        let mut core = ServiceCore::new(config(0, 8, Duration::ZERO));
        assert_eq!(core.submit(t0, work((0, None))), Ok(1));
        assert_eq!(
            core.submit(t0, work((0, None))),
            Err(ServiceError::Overloaded { capacity: 1 })
        );
    }

    #[test]
    fn a_batch_holds_at_most_batch_max_requests() {
        let t0 = Instant::now();
        let deadline = Duration::from_millis(1);
        let mut core = ServiceCore::new(config(8, 3, deadline));
        for v in 0..5 {
            core.submit(t0, work((v % VARIANTS, None))).unwrap();
        }
        assert_eq!(ids(core.next_batch(t0)), vec![1, 2, 3]);
        // Two left, below the size trigger: the window opens now.
        let t1 = t0 + Duration::from_micros(300);
        assert_eq!(waits_until(core.next_batch(t1)), Some(t1 + deadline));
        assert_eq!(ids(core.next_batch(t1 + deadline)), vec![4, 5]);
        assert_eq!(waits_until(core.next_batch(t1 + deadline)), None);
        let stats = core.stats();
        assert_eq!((stats.batches, stats.batched_requests), (2, 5));
    }

    #[test]
    fn the_size_trigger_fires_before_the_deadline() {
        let t0 = Instant::now();
        for deadline in [Duration::from_secs(30), Duration::MAX] {
            let mut core = ServiceCore::new(config(8, 4, deadline));
            for v in 0..3 {
                core.submit(t0, work((v, None))).unwrap();
            }
            // `Duration::MAX` waits for a full batch: no instant to wake at.
            assert_eq!(waits_until(core.next_batch(t0)), t0.checked_add(deadline));
            let t1 = t0 + Duration::from_millis(1);
            core.submit(t1, work((0, None))).unwrap();
            assert_eq!(ids(core.next_batch(t1)), vec![1, 2, 3, 4]);
        }
    }

    #[test]
    fn shutdown_takes_the_queued_work_atomically() {
        let t0 = Instant::now();
        let mut core = ServiceCore::new(config(4, 8, Duration::from_millis(2)));
        let a = core.submit(t0, work((0, None))).unwrap();
        let b = core.submit(t0, work((1, Some(true)))).unwrap();
        core.shutdown();
        for id in [a, b] {
            assert!(matches!(
                core.state(t0, id).unwrap().state,
                JobState::Failed(ServiceError::ShuttingDown)
            ));
        }
        // The batcher can never take what shutdown failed.
        assert!(matches!(core.next_batch(t0), Next::Exit));
        assert_eq!(
            core.submit(t0, work((0, None))),
            Err(ServiceError::ShuttingDown)
        );
        assert!(!core.is_accepting());
        let stats = core.stats();
        assert_eq!(
            (stats.submitted, stats.failed, stats.queue_depth),
            (2, 2, 0)
        );
    }

    #[test]
    fn a_closed_core_delivers_its_running_batch_then_exits() {
        let t0 = Instant::now();
        let runner = executor();
        let mut core = ServiceCore::new(config(4, 1, Duration::ZERO));
        let running = core.submit(t0, work((0, Some(true)))).unwrap();
        let queued = core.submit(t0, work((1, None))).unwrap();
        let Next::Run(batch) = core.next_batch(t0) else {
            panic!("a full batch runs at once")
        };
        core.shutdown();
        assert!(matches!(
            core.state(t0, running).unwrap().state,
            JobState::Running(_)
        ));
        let ran = execute_batch(&runner, None, &RetryPolicy::none(), batch);
        core.deliver(t0, ran, |jobs| runner.engine_mix(jobs));
        match &core.state(t0, running).unwrap().state {
            JobState::Done(report) => {
                assert_eq!(
                    report_to_json(report).to_string(),
                    reference((0, Some(true)))
                )
            }
            other => panic!("the running session must finish, got {other:?}"),
        }
        assert!(matches!(
            core.state(t0, queued).unwrap().state,
            JobState::Failed(ServiceError::ShuttingDown)
        ));
        assert!(matches!(core.next_batch(t0), Next::Exit));
    }

    /// A runner wrapper that records the job keys of every batch call.
    struct Recording<R> {
        inner: R,
        calls: Mutex<Vec<Vec<JobKey>>>,
    }

    impl<R: Runner> Runner for Recording<R> {
        fn run(&self, program: &Program, measured: &[usize]) -> RunOutput {
            self.inner.run(program, measured)
        }

        fn try_run_batch(&self, jobs: &[BatchJob]) -> Vec<Result<RunOutput, RunError>> {
            let keys = jobs.iter().map(BatchJob::dedup_key).collect();
            self.calls.lock().expect("recorder lock").push(keys);
            self.inner.try_run_batch(jobs)
        }

        fn engine_mix(&self, jobs: &[BatchJob]) -> Option<Vec<(String, usize)>> {
            self.inner.engine_mix(jobs)
        }
    }

    /// Base seed from the CI chaos matrix (`CHAOS_SEED`), mixed into the
    /// fault schedules so each matrix entry replays a distinct one.
    fn matrix_seed(seed: u64) -> u64 {
        let base: u64 = std::env::var("CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        seed ^ base.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    /// One event of the model test.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Submit(Kind),
        Advance(Duration),
        NextBatch,
        Deliver,
        Status(usize),
        Shutdown,
    }

    const STEPS: [Duration; 4] = [
        Duration::ZERO,
        Duration::from_micros(500),
        Duration::from_millis(3),
        Duration::from_millis(20),
    ];
    const BATCH_DEADLINES: [Duration; 4] = [
        Duration::ZERO,
        Duration::from_millis(1),
        Duration::from_millis(5),
        Duration::MAX,
    ];
    const REQUEST_DEADLINES: [Option<Duration>; 4] = [
        None,
        Some(Duration::from_millis(2)),
        Some(Duration::from_millis(10)),
        Some(Duration::MAX),
    ];
    const FINISHED_BOUNDS: [usize; 4] = [1, 2, 5, MAX_FINISHED_JOBS];

    fn op() -> impl Strategy<Value = Op> {
        (0usize..20, 0usize..VARIANTS, 0usize..4, 0usize..64).prop_map(|(k, v, step, pick)| match k
        {
            0..=3 => Op::Submit((v, None)),
            4..=6 => Op::Submit((v, Some(pick % 2 == 0))),
            7..=9 => Op::Advance(STEPS[step]),
            10..=13 => Op::NextBatch,
            14..=17 => Op::Deliver,
            18 => Op::Status(pick),
            _ => Op::Shutdown,
        })
    }

    /// How an admitted request ended, as far as the model saw it.
    #[derive(Debug, Clone, PartialEq)]
    enum Seen {
        Done(String),
        Failed(ServiceError),
    }

    #[derive(Default)]
    struct Req {
        kind: Kind,
        deadline: Option<Instant>,
        taken: bool,
        queued_at_shutdown: bool,
        seen: Option<Seen>,
        gone: bool,
    }

    impl Req {
        fn overdue(&self, now: Instant) -> bool {
            self.deadline.is_some_and(|d| now >= d)
        }
    }

    /// The reference model next to the core under test: the fake clock,
    /// the driver's batch in flight, and what it knows of each request.
    struct Model<'a, R> {
        core: ServiceCore,
        config: ServiceConfig,
        runner: &'a Recording<R>,
        cache: Option<ShardedLruCache<RunOutput>>,
        faulty: bool,
        now: Instant,
        window: Option<Instant>,
        closed: bool,
        held: Option<Vec<Ticket>>,
        reqs: BTreeMap<u64, Req>,
        /// Finish order as observed: ids evicted unseen within an event
        /// go before those it left in the registry.
        order: Vec<u64>,
    }

    impl<R: Runner> Model<'_, R> {
        fn step(&mut self, op: Op) -> Result<(), TestCaseError> {
            match op {
                Op::Submit(kind) => self.submit(kind)?,
                Op::Advance(step) => self.now += step,
                Op::NextBatch => self.next_batch()?,
                Op::Deliver => self.deliver()?,
                Op::Status(pick) => self.status(pick)?,
                Op::Shutdown => self.shutdown(),
            }
            self.observe()
        }

        fn submit(&mut self, kind: Kind) -> Result<(), TestCaseError> {
            let (entries, depth) = (self.core.jobs.len(), self.core.pending.len());
            match self.core.submit(self.now, work(kind)) {
                Ok(id) => {
                    prop_assert!(!self.closed && depth < self.config.queue_capacity.max(1));
                    prop_assert!(!self.reqs.contains_key(&id), "id {id} reused");
                    let deadline = self
                        .config
                        .request_deadline
                        .and_then(|d| self.now.checked_add(d));
                    let req = Req {
                        kind,
                        deadline,
                        ..Req::default()
                    };
                    self.reqs.insert(id, req);
                }
                Err(e) => {
                    let want = if self.closed {
                        ServiceError::ShuttingDown
                    } else {
                        ServiceError::Overloaded {
                            capacity: self.config.queue_capacity.max(1),
                        }
                    };
                    prop_assert_eq!(e, want);
                    prop_assert_eq!(depth, self.core.pending.len());
                    prop_assert_eq!(
                        entries,
                        self.core.jobs.len(),
                        "a rejected submit left an entry"
                    );
                }
            }
            Ok(())
        }

        fn next_batch(&mut self) -> Result<(), TestCaseError> {
            if self.held.is_some() {
                // One batcher: it asks again only after delivering.
                return Ok(());
            }
            let max = self.config.batch_max_requests.max(1);
            let pending: Vec<u64> = self.core.pending.iter().map(|t| t.id).collect();
            if !pending.is_empty() && self.window.is_none() {
                self.window = Some(self.now);
            }
            match self.core.next_batch(self.now) {
                Next::Exit => prop_assert!(self.closed && pending.is_empty()),
                Next::Wait(until) => {
                    prop_assert!(!self.closed);
                    match self.window {
                        None => prop_assert!(pending.is_empty() && until.is_none()),
                        Some(window) => {
                            let deadline = self.config.batch_deadline;
                            prop_assert!(pending.len() < max);
                            prop_assert!(self.now.saturating_duration_since(window) < deadline);
                            prop_assert_eq!(until, window.checked_add(deadline));
                        }
                    }
                }
                Next::Run(batch) => {
                    let window = self.window.take();
                    prop_assert!(window.is_some_and(|w| {
                        pending.len() >= max
                            || self.now.saturating_duration_since(w) >= self.config.batch_deadline
                    }));
                    let taken: Vec<u64> = batch.iter().map(|t| t.id).collect();
                    let live: Vec<u64> = pending
                        .iter()
                        .take(max)
                        .copied()
                        .filter(|id| !self.reqs[id].overdue(self.now))
                        .collect();
                    // Overdue requests never run: they expire at pick-up.
                    prop_assert_eq!(&taken, &live);
                    for id in taken {
                        let req = self.reqs.get_mut(&id).expect("admitted");
                        prop_assert!(!req.taken, "request {id} taken by two batches");
                        req.taken = true;
                    }
                    for id in pending.iter().take(max) {
                        if self.reqs[id].overdue(self.now) {
                            self.expect_deadline_failure(*id)?;
                        }
                    }
                    self.held = Some(batch);
                }
            }
            Ok(())
        }

        fn deliver(&mut self) -> Result<(), TestCaseError> {
            let Some(batch) = self.held.take() else {
                return Ok(());
            };
            let ids: Vec<u64> = batch.iter().map(|t| t.id).collect();
            let calls_before = self.runner.calls.lock().expect("recorder lock").len();
            let ran = execute_batch(
                self.runner,
                self.cache.as_ref(),
                &RetryPolicy::immediate(3),
                batch,
            );
            let calls = self.runner.calls.lock().expect("recorder lock")[calls_before..].to_vec();
            let mut executed = BTreeSet::new();
            for call in &calls {
                let distinct: BTreeSet<JobKey> = call.iter().copied().collect();
                prop_assert_eq!(distinct.len(), call.len(), "a batch call repeats a job");
                if !self.faulty {
                    // Fault-free: no retry, so every job runs at most once.
                    for key in call {
                        prop_assert!(executed.insert(*key), "job {key:?} ran twice in one batch");
                    }
                }
            }
            let runner = self.runner;
            self.core
                .deliver(self.now, ran, |jobs| runner.engine_mix(jobs));
            for id in ids {
                if self.reqs[&id].overdue(self.now) {
                    self.expect_deadline_failure(id)?;
                } else if let Some(entry) = self.core.jobs.get(&id) {
                    prop_assert!(entry.state.is_terminal(), "delivery left {id} unfinished");
                }
            }
            Ok(())
        }

        fn status(&mut self, pick: usize) -> Result<(), TestCaseError> {
            let ids: Vec<u64> = self.reqs.keys().copied().collect();
            // Now and then an id that was never admitted.
            let id = ids.get(pick).copied().unwrap_or(1_000 + pick as u64);
            let live = self
                .core
                .jobs
                .get(&id)
                .is_some_and(|e| !e.state.is_terminal());
            match self.core.state(self.now, id) {
                Err(e) => {
                    prop_assert_eq!(e, ServiceError::NotFound { job: id });
                    prop_assert!(self
                        .reqs
                        .get(&id)
                        .is_none_or(|r| r.gone || r.seen.is_some()));
                }
                Ok(_) if live && self.reqs[&id].overdue(self.now) => {
                    self.expect_deadline_failure(id)?
                }
                Ok(_) => {}
            }
            Ok(())
        }

        fn shutdown(&mut self) {
            for (id, entry) in &self.core.jobs {
                if matches!(entry.state, JobState::Queued(_)) {
                    self.reqs.get_mut(id).expect("admitted").queued_at_shutdown = true;
                }
            }
            self.core.shutdown();
            self.closed = true;
            self.window = None;
        }

        /// `id`, overdue and unfinished before the event, now fails with a
        /// typed deadline error (unless already evicted).
        fn expect_deadline_failure(&self, id: u64) -> Result<(), TestCaseError> {
            if let Some(entry) = self.core.jobs.get(&id) {
                prop_assert!(
                    matches!(
                        entry.state,
                        JobState::Failed(ServiceError::DeadlineExceeded { job, .. }) if job == id
                    ),
                    "overdue request {id} ended {:?}",
                    entry.state
                );
            }
            Ok(())
        }

        /// The invariants that hold after every event.
        fn observe(&mut self) -> Result<(), TestCaseError> {
            let mut evicted_unseen = Vec::new();
            let mut newly_seen = BTreeSet::new();
            for (&id, req) in self.reqs.iter_mut().filter(|(_, r)| !r.gone) {
                let Some(entry) = self.core.jobs.get(&id) else {
                    req.gone = true;
                    if req.seen.is_none() {
                        evicted_unseen.push(id);
                    }
                    continue;
                };
                let seen = match &entry.state {
                    JobState::Queued(_) => {
                        prop_assert!(!req.taken && req.seen.is_none());
                        continue;
                    }
                    JobState::Running(_) => {
                        prop_assert!(req.taken && req.seen.is_none());
                        continue;
                    }
                    JobState::Done(report) => Seen::Done(report_to_json(report).to_string()),
                    JobState::Failed(e) => Seen::Failed(e.clone()),
                };
                if let Some(before) = &req.seen {
                    prop_assert_eq!(before, &seen, "request {id} changed its terminal state");
                    continue;
                }
                match &seen {
                    Seen::Done(wire) => {
                        prop_assert!(req.taken);
                        prop_assert!(
                            wire == reference(req.kind),
                            "request {id} is not bit-identical to offline"
                        );
                    }
                    Seen::Failed(ServiceError::ShuttingDown) => {}
                    Seen::Failed(ServiceError::DeadlineExceeded { .. }) => {
                        prop_assert!(req.overdue(self.now))
                    }
                    Seen::Failed(ServiceError::Exec(_)) => prop_assert!(req.taken && self.faulty),
                    Seen::Failed(other) => prop_assert!(false, "unexpected failure {other:?}"),
                }
                // Queued at shutdown, and only that, ends ShuttingDown.
                prop_assert_eq!(
                    req.queued_at_shutdown,
                    seen == Seen::Failed(ServiceError::ShuttingDown),
                    "request {id} (taken: {}) ended {seen:?}",
                    req.taken
                );
                req.seen = Some(seen);
                newly_seen.insert(id);
            }
            self.order.extend(evicted_unseen);
            let finished: Vec<u64> = self.core.finished.iter().copied().collect();
            self.order
                .extend(finished.iter().filter(|id| newly_seen.contains(id)));
            // The registry keeps the newest finished jobs, oldest evicted
            // first.
            prop_assert!(finished.len() <= self.core.max_finished);
            prop_assert_eq!(
                &finished[..],
                &self.order[self.order.len() - finished.len()..]
            );
            let terminal = self.core.jobs.values().filter(|e| e.state.is_terminal());
            prop_assert_eq!(terminal.count(), finished.len());
            // Every admitted request is queued, running or counted once.
            let stats = self.core.stats();
            let in_flight = self.core.jobs.len() - finished.len();
            prop_assert_eq!(
                stats.submitted,
                stats.completed + stats.failed + in_flight as u64
            );
            prop_assert_eq!(stats.completed + stats.failed, self.order.len() as u64);
            prop_assert_eq!(stats.queue_depth, self.core.pending.len());
            Ok(())
        }

        /// Ends the run as the driver would: delivers the batch in flight,
        /// shuts down, and checks every admitted request ended.
        fn finish(mut self) -> Result<(), TestCaseError> {
            self.step(Op::Deliver)?;
            self.step(Op::Shutdown)?;
            self.step(Op::NextBatch)?;
            prop_assert!(matches!(self.core.next_batch(self.now), Next::Exit));
            for (id, req) in &self.reqs {
                prop_assert!(req.gone || req.seen.is_some(), "request {id} never ended");
            }
            Ok(())
        }
    }

    fn run_model<R: Runner>(
        runner: &Recording<R>,
        config: ServiceConfig,
        max_finished: usize,
        faulty: bool,
        ops: &[Op],
    ) -> Result<(), TestCaseError> {
        let mut core = ServiceCore::new(config);
        core.max_finished = max_finished;
        let mut model = Model {
            core,
            config,
            runner,
            cache: (config.cache_bytes > 0).then(|| ShardedLruCache::new(config.cache_bytes, 8)),
            faulty,
            now: Instant::now(),
            window: None,
            closed: false,
            held: None,
            reqs: BTreeMap::new(),
            order: Vec::new(),
        };
        for &op in ops {
            model.step(op)?;
        }
        model.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random interleavings of submits, time, batches, deliveries,
        /// status reads and a shutdown, against a reference model on a fake
        /// clock.
        #[test]
        fn the_core_matches_its_model_under_any_interleaving(
            shape in (1usize..6, 1usize..4, 0usize..4, 0usize..4, 0usize..4),
            run in (0usize..3, prop::bool::ANY, 0u64..1 << 32),
            ops in prop::collection::vec(op(), 1..60),
        ) {
            let (capacity, max, batch_deadline, request_deadline, bound) = shape;
            let (runner, cache, seed) = run;
            let config = ServiceConfig {
                request_deadline: REQUEST_DEADLINES[request_deadline],
                cache_bytes: if cache { 1 << 20 } else { 0 },
                ..config(capacity, max, BATCH_DEADLINES[batch_deadline])
            };
            let bound = FINISHED_BOUNDS[bound];
            match runner {
                0 => {
                    let runner = Recording { inner: executor(), calls: Mutex::default() };
                    run_model(&runner, config, bound, false, &ops)?;
                }
                _ => {
                    let faulty = runner == 2;
                    let chaos = ChaosConfig {
                        seed: matrix_seed(seed),
                        fatal_rate: if faulty { 0.05 } else { 0.0 },
                        transient_rate: if faulty { 0.3 } else { 0.0 },
                        corrupt_rate: if faulty { 0.1 } else { 0.0 },
                        ..ChaosConfig::default()
                    };
                    let runner = Recording {
                        inner: ChaosRunner::new(executor(), chaos),
                        calls: Mutex::default(),
                    };
                    run_model(&runner, config, bound, faulty, &ops)?;
                }
            }
        }
    }
}
