//! The staged pipeline API: `plan → execute → recombine` (Fig. 4).
//!
//! The paper's framework is explicitly three-staged:
//!
//! 1. **Analysis & circuit preparation** — [`QuTracer::plan`] performs all
//!    classical work up front (subset enumeration, segmentation, traceback,
//!    ensemble-circuit generation) and yields an inspectable
//!    [`MitigationPlan`] holding every [`Program`] the run
//!    will need, tagged by (subset, segment, preparation, check basis).
//! 2. **Execution** — [`MitigationPlan::execute`] flattens *all* programs
//!    across *all* subsets into one deduplicated
//!    [`run_batch`](Runner::run_batch) submission. Identical programs
//!    (e.g. the shared ensemble of symmetric subsets) execute once and fan
//!    back out; the runner's existing thread-budget policy spreads the
//!    batch over the machine. [`MitigationPlan::execute_fallible`] runs
//!    the same batch under the failure domain, and finite-shot runs go
//!    through a [`MitigationSession`] ([`MitigationPlan::run_sampled`] is
//!    the one-call form). Every path hands its batch-order outputs and
//!    [`ExecutionRecord`] to one scatter back to plan slot order.
//! 3. **Recombination** — [`ExecutionArtifacts::recombine`] replays the
//!    walk of every subset against the recorded results, purely
//!    classically, and performs the Bayesian update.
//!
//! Because the programs a trace requests are a static function of the
//! circuit analysis (results never influence *what* runs, only how it is
//! combined), the pipeline is bit-identical to the serial
//! [`run_qutracer`](crate::run_qutracer) path — property-tested in
//! `tests/pipeline_equivalence.rs`. A [`MitigationPlan`] is thereby a
//! self-contained, serializable unit of work: the enabling structure for
//! caching, sharded execution and service-style deployments.
//!
//! # Example
//!
//! ```
//! use qt_core::{QuTracer, QuTracerConfig};
//! use qt_sim::{Backend, Executor, NoiseModel};
//! use qt_algos::vqe_ansatz;
//!
//! let circ = vqe_ansatz(4, 1, 7);
//! let measured = [0, 1, 2, 3];
//! let plan = QuTracer::plan(&circ, &measured, &QuTracerConfig::single()).unwrap();
//! assert!(plan.n_programs() > 1); // inspectable before anything executes
//!
//! let exec = Executor::with_backend(
//!     NoiseModel::depolarizing(0.001, 0.02).with_readout(0.05),
//!     Backend::DensityMatrix,
//! );
//! let report = plan.execute(&exec).unwrap().recombine().unwrap();
//! assert!((report.distribution.total() - 1.0).abs() < 1e-9);
//! ```

use crate::error::{ExecError, PlanError, SkippedSubset};
use crate::framework::{enumerate_subset_positions, QuTracerConfig, QuTracerReport};
use crate::session::MitigationSession;
use crate::trace::{
    trace_with_port, CollectPort, JobKind, JobTag, ReplayPort, TraceError, TraceOutcome,
};
use qt_baselines::{
    apportion_shots, ExecutionRecord, JobFailures, MitigationStrategy, OverheadStats, StrategyError,
};
use qt_circuit::Circuit;
use qt_dist::{recombine, Distribution};
use qt_pcs::QspcStats;
use qt_sim::{
    try_run_batch_resilient, BatchJob, ExecutionTrie, FailureStats, JobInterner, Program,
    RetryPolicy, RunError, RunOutput, Runner, TrieStats,
};
use std::collections::BTreeMap;

/// The framework entry point of the staged pipeline.
pub struct QuTracer;

/// How a [`MitigationSession`] splits a total shot budget across a
/// strategy's batch jobs (for a [`MitigationPlan`]: its deduplicated
/// programs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShotPolicy {
    /// Every deduplicated program gets an equal share — what a naive
    /// executor without fan-out awareness would pay.
    Uniform,
    /// Programs are weighted by their request fan-out: a program serving
    /// `k` logical requests (e.g. the shared ensemble of `k` symmetric
    /// subsets) gets `k` shares, so every *logical* request sees the same
    /// effective budget — the paper's per-circuit shot accounting carried
    /// through deduplication.
    WeightedByFanout,
    /// Two-round Neyman allocation (see [`MitigationSession`]): a *pilot*
    /// round spends `⌊pilot_fraction · total⌋` shots uniformly, per-program
    /// sampling dispersions are estimated from the pilot counts, and the
    /// remaining budget is split proportionally to those dispersions
    /// (`n_i ∝ σ_i` — the Neyman optimum for equal per-estimate error).
    /// Pilot counts are absorbed into the final tally, so no shot is
    /// wasted. A fraction that leaves either round below one shot per
    /// program degrades to the single-round uniform allocation — at
    /// `pilot_fraction` 0 or 1 the session is bit-identical to
    /// [`ShotPolicy::Uniform`].
    Adaptive {
        /// Fraction of the total budget spent on the pilot round; must
        /// lie in `[0, 1]`.
        pilot_fraction: f64,
    },
}

/// One deduplicated program of a plan, with every logical request mapped
/// onto it.
#[derive(Debug, Clone)]
struct PlannedProgram {
    job: BatchJob,
    tags: Vec<JobTag>,
}

/// The planned walk of one *distinct* traced subset (symmetric subsets
/// share a single walk).
#[derive(Debug, Clone)]
struct TracePlan {
    qubits: Vec<usize>,
    /// Indices into the program table, in request order.
    slots: Vec<usize>,
    /// Plan-time statistics (exact gate counts, pre-transpilation).
    static_stats: QspcStats,
}

/// Maps one enumerated subset onto the distinct walk serving it.
#[derive(Debug, Clone)]
struct Assignment {
    positions: Vec<usize>,
    qubits: Vec<usize>,
    trace: usize,
    shared: bool,
}

/// A flat, serializable summary of a [`MitigationPlan`] (see
/// [`MitigationPlan::view`]): plain counts and the shared-prefix fraction,
/// with no borrowed plan internals — what a service front-end puts on the
/// wire for a queued job's status.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanView {
    /// Register size of the submitted circuit.
    pub n_qubits: usize,
    /// The measured qubits, in bit order.
    pub measured: Vec<usize>,
    /// Distinct programs after cross-subset dedup.
    pub n_programs: usize,
    /// Logical program requests before dedup.
    pub n_requests: usize,
    /// Traced subsets served (excluding skipped ones).
    pub n_subsets: usize,
    /// Subsets that could not be planned.
    pub n_skipped: usize,
    /// Fraction of the batch's gate stream shared between programs.
    pub shared_gate_fraction: f64,
}

/// Per-subset view of a plan (see [`MitigationPlan::subset_summaries`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SubsetPlanSummary {
    /// The traced physical qubits.
    pub qubits: Vec<usize>,
    /// Bit positions in the measured list.
    pub positions: Vec<usize>,
    /// Programs the subset's walk requests (before cross-subset dedup).
    pub n_requests: usize,
    /// Whether this subset reuses another symmetric subset's ensemble.
    pub shared: bool,
}

/// Stage-1 output: every program the run needs, deduplicated and tagged,
/// plus the bookkeeping to recombine results afterwards.
#[derive(Debug, Clone)]
pub struct MitigationPlan {
    circuit: Circuit,
    measured: Vec<usize>,
    config: QuTracerConfig,
    programs: Vec<PlannedProgram>,
    global_slot: usize,
    traces: Vec<TracePlan>,
    assignments: Vec<Assignment>,
    skipped: Vec<SkippedSubset>,
    /// Prefix-clustered submission order: program slots reordered so jobs
    /// sharing long op prefixes are adjacent (the DFS leaf order of the
    /// plan's execution tries).
    batch_order: Vec<usize>,
    /// Shared-work statistics of the plan's execution tries.
    batch_stats: TrieStats,
}

/// Folds the plan's programs (grouped by register size) into execution
/// tries: the concatenated DFS leaf orders give the prefix-clustered
/// submission order, and the merged stats preview how much gate work the
/// trie-scheduled runner shares.
fn cluster_programs(programs: &[PlannedProgram]) -> (Vec<usize>, TrieStats) {
    let mut by_n: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, p) in programs.iter().enumerate() {
        by_n.entry(p.job.program.n_qubits()).or_default().push(i);
    }
    let mut order = Vec::with_capacity(programs.len());
    let mut stats = TrieStats::default();
    for idxs in by_n.values() {
        let group: Vec<&Program> = idxs.iter().map(|&i| &programs[i].job.program).collect();
        let trie = ExecutionTrie::build(&group);
        stats.absorb(&trie.stats());
        order.extend(trie.clustered_jobs().into_iter().map(|local| idxs[local]));
    }
    (order, stats)
}

impl QuTracer {
    /// Stage 1: performs all classical analysis and builds the full set of
    /// programs the run will need.
    ///
    /// Configuration-level failures return a typed [`PlanError`]; subsets
    /// that cannot be traced (non-diagonal coupling) are recorded in
    /// [`MitigationPlan::skipped`] with their reason and do not fail the
    /// plan — matching the paper's behaviour of mitigating what it can.
    ///
    /// # Errors
    ///
    /// [`PlanError::UnsupportedSubsetSize`] for subset sizes outside
    /// `{1, 2}`; [`PlanError::FullPrepsForPairs`] when pair tracing asks
    /// for the six-state preparation basis; [`PlanError::InvalidMeasured`]
    /// for a measured qubit outside the register or listed twice;
    /// [`PlanError::MeasuredTooSmall`] when pair tracing has fewer than two
    /// measured qubits.
    pub fn plan(
        circuit: &Circuit,
        measured: &[usize],
        config: &QuTracerConfig,
    ) -> Result<MitigationPlan, PlanError> {
        if config.subset_size != 1 && config.subset_size != 2 {
            return Err(PlanError::UnsupportedSubsetSize {
                size: config.subset_size,
            });
        }
        if config.subset_size == 2 && !config.trace.use_reduced_preps {
            return Err(PlanError::FullPrepsForPairs);
        }
        let n_qubits = circuit.n_qubits();
        let mut seen = vec![false; n_qubits];
        for &qubit in measured {
            if qubit >= n_qubits || seen[qubit] {
                return Err(PlanError::InvalidMeasured { qubit, n_qubits });
            }
            seen[qubit] = true;
        }
        if config.subset_size == 2 && measured.len() < 2 {
            return Err(PlanError::MeasuredTooSmall {
                needed: 2,
                got: measured.len(),
            });
        }

        let mut dedup = JobInterner::new();
        let mut programs: Vec<PlannedProgram> = Vec::new();
        let mut intern = |programs: &mut Vec<PlannedProgram>, job: BatchJob, tag: JobTag| {
            let (slot, _) = dedup.intern_with(programs, job, |job| PlannedProgram {
                job,
                tags: Vec::new(),
            });
            programs[slot].tags.push(tag);
            slot
        };

        let global_slot = intern(
            &mut programs,
            BatchJob::new(Program::from_circuit(circuit), measured.to_vec()),
            JobTag {
                subset: Vec::new(),
                segment: None,
                kind: JobKind::Global,
            },
        );

        let symmetric_pairs = config.symmetric_subsets && config.subset_size == 2;
        let mut traces: Vec<TracePlan> = Vec::new();
        let mut assignments: Vec<Assignment> = Vec::new();
        let mut skipped: Vec<SkippedSubset> = Vec::new();
        let mut shared_trace: Option<usize> = None;

        for positions in enumerate_subset_positions(measured.len(), config) {
            let qubits: Vec<usize> = positions.iter().map(|&p| measured[p]).collect();
            if symmetric_pairs {
                if let Some(trace) = shared_trace {
                    assignments.push(Assignment {
                        positions,
                        qubits,
                        trace,
                        shared: true,
                    });
                    continue;
                }
            }
            let mut sink: Vec<(BatchJob, JobTag)> = Vec::new();
            let walk = trace_with_port(
                &mut CollectPort { sink: &mut sink },
                circuit,
                &qubits,
                &config.trace,
            );
            match walk {
                Ok(outcome) => {
                    let slots: Vec<usize> = sink
                        .into_iter()
                        .map(|(job, tag)| intern(&mut programs, job, tag))
                        .collect();
                    let trace = traces.len();
                    traces.push(TracePlan {
                        qubits: qubits.clone(),
                        slots,
                        static_stats: outcome.stats,
                    });
                    assignments.push(Assignment {
                        positions,
                        qubits,
                        trace,
                        shared: false,
                    });
                    if symmetric_pairs {
                        shared_trace = Some(trace);
                    }
                }
                Err(TraceError::Coupling(e)) => skipped.push(SkippedSubset {
                    qubits: qubits.clone(),
                    positions,
                    reason: PlanError::coupling(qubits, e),
                }),
                Err(TraceError::Exec(_)) => unreachable!("collect port is infallible"),
            }
        }

        let (batch_order, batch_stats) = cluster_programs(&programs);
        Ok(MitigationPlan {
            circuit: circuit.clone(),
            measured: measured.to_vec(),
            config: *config,
            programs,
            global_slot,
            traces,
            assignments,
            skipped,
            batch_order,
            batch_stats,
        })
    }
}

impl MitigationPlan {
    /// The circuit the plan was built from.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The measured qubits.
    pub fn measured(&self) -> &[usize] {
        &self.measured
    }

    /// The configuration the plan was built with.
    pub fn config(&self) -> &QuTracerConfig {
        &self.config
    }

    /// Number of *distinct* programs the run executes (after cross-subset
    /// deduplication) — the batch size of [`MitigationPlan::execute`].
    pub fn n_programs(&self) -> usize {
        self.programs.len()
    }

    /// Number of *logical* program requests before deduplication: the
    /// global run plus every enumerated subset's full walk. A naive
    /// per-subset executor runs this many circuits; `n_requests() -
    /// n_programs()` is what batched dedup saves.
    pub fn n_requests(&self) -> usize {
        1 + self
            .assignments
            .iter()
            .map(|a| self.traces[a.trace].slots.len())
            .sum::<usize>()
    }

    /// Number of traced subsets the plan serves (excluding skipped ones).
    pub fn n_subsets(&self) -> usize {
        self.assignments.len()
    }

    /// The deduplicated programs with every logical request tagged onto
    /// them, in execution (batch) order.
    pub fn programs(&self) -> impl Iterator<Item = (&BatchJob, &[JobTag])> {
        self.programs.iter().map(|p| (&p.job, p.tags.as_slice()))
    }

    /// Subsets that could not be planned, with typed reasons.
    pub fn skipped(&self) -> &[SkippedSubset] {
        &self.skipped
    }

    /// Per-subset circuit counts — the paper's overhead tables, computable
    /// without executing anything.
    pub fn subset_summaries(&self) -> Vec<SubsetPlanSummary> {
        self.assignments
            .iter()
            .map(|a| SubsetPlanSummary {
                qubits: a.qubits.clone(),
                positions: a.positions.clone(),
                n_requests: self.traces[a.trace].slots.len(),
                shared: a.shared,
            })
            .collect()
    }

    /// Plan-time overhead statistics, derived from the plan structure:
    /// every distinct walk counts exactly once, so the numbers are
    /// independent of subset enumeration order. Gate counts are exact for
    /// plain simulators and pre-transpilation for device executors (the
    /// executed report's stats use post-transpilation counts).
    pub fn stats(&self) -> OverheadStats {
        let n_mitigation: usize = self.traces.iter().map(|t| t.static_stats.n_circuits).sum();
        let total_2q: usize = self
            .traces
            .iter()
            .map(|t| t.static_stats.total_two_qubit_gates)
            .sum();
        OverheadStats {
            n_circuits: 1 + n_mitigation,
            normalized_shots: n_mitigation as f64,
            avg_two_qubit_gates: if n_mitigation > 0 {
                total_2q as f64 / n_mitigation as f64
            } else {
                0.0
            },
            global_two_qubit_gates: self.programs[self.global_slot]
                .job
                .program
                .two_qubit_gate_count(),
            batch: Some(self.batch_stats),
            total_shots: None,
            round_shots: None,
            engine_mix: None,
            failures: None,
        }
    }

    /// [`MitigationPlan::stats`] augmented with the engine mix `runner`
    /// would execute this plan with (see [`Runner::engine_mix`]) — what the
    /// automatic per-program engine selection resolves each planned job to,
    /// without executing anything.
    pub fn stats_for<R: Runner>(&self, runner: &R) -> OverheadStats {
        let jobs: Vec<BatchJob> = self.programs.iter().map(|p| p.job.clone()).collect();
        OverheadStats {
            engine_mix: runner.engine_mix(&jobs),
            ..self.stats()
        }
    }

    /// Shared-work statistics of the plan's execution tries: how much of
    /// the batch's gate stream is a prefix shared between programs (what
    /// a trie-scheduled runner evolves once instead of per job).
    pub fn batch_stats(&self) -> TrieStats {
        self.batch_stats
    }

    /// Stage 2: executes every planned program as **one** batched
    /// submission on `runner`, fanning deduplicated results back out.
    ///
    /// Jobs are submitted in prefix-clustered order (programs sharing
    /// long op prefixes adjacent), so runners without their own trie —
    /// caches, adaptive splitters, remote shards — still see related work
    /// together; results are scattered back to plan slot order.
    ///
    /// # Errors
    ///
    /// [`ExecError::ResultCountMismatch`] if the runner violates the
    /// [`Runner::run_batch`] contract.
    pub fn execute<'p, R: Runner>(
        &'p self,
        runner: &R,
    ) -> Result<ExecutionArtifacts<'p>, ExecError> {
        let jobs = self.batch_jobs();
        let engine_mix = runner.engine_mix(&jobs);
        self.scatter(runner.run_batch(&jobs), ExecutionRecord::exact(engine_mix))
    }

    /// The plan's deduplicated jobs in prefix-clustered submission order —
    /// the exact batch [`MitigationPlan::execute`] hands to
    /// [`Runner::run_batch`]. Batch front-ends (e.g. `qt-serve`) use this
    /// to merge several plans' jobs into one combined submission, then
    /// feed the results back through
    /// [`MitigationPlan::artifacts_from_outputs`].
    pub fn batch_jobs(&self) -> Vec<BatchJob> {
        self.batch_order
            .iter()
            .map(|&slot| self.programs[slot].job.clone())
            .collect()
    }

    /// Stage 2, inverted: builds [`ExecutionArtifacts`] from batch results
    /// computed elsewhere. `clustered[i]` must be the result of
    /// [`MitigationPlan::batch_jobs`]`()[i]` — this is the injection point
    /// for external batchers (service front-ends, shared result caches)
    /// that execute many plans' jobs as one merged, deduplicated
    /// submission instead of calling [`MitigationPlan::execute`] per plan.
    ///
    /// # Errors
    ///
    /// [`ExecError::ResultCountMismatch`] when `clustered` does not align
    /// with the plan's batch.
    pub fn artifacts_from_outputs(
        &self,
        clustered: Vec<RunOutput>,
        engine_mix: Option<Vec<(String, usize)>>,
    ) -> Result<ExecutionArtifacts<'_>, ExecError> {
        self.scatter(clustered, ExecutionRecord::exact(engine_mix))
    }

    /// Stage 2 with a failure domain: executes the plan's batch through
    /// the fallible surface ([`Runner::try_run_batch`]) under panic
    /// quarantine, with bounded retry-with-backoff for transient
    /// [`RunError`]s (`retry`), then *degrades partially*: a job that
    /// still fails after the budget voids only the traced subsets whose
    /// walks depend on it, while every surviving output is bit-identical
    /// to the fault-free run. The resulting report records what happened
    /// in [`OverheadStats::failures`]; only the loss of the global run —
    /// which every subset refines — turns into a typed
    /// [`ExecError::JobFailed`] at recombination.
    ///
    /// # Errors
    ///
    /// [`ExecError::ResultCountMismatch`] if the runner violates the
    /// batch contract.
    pub fn execute_fallible<'p, R: Runner>(
        &'p self,
        runner: &R,
        retry: &RetryPolicy,
    ) -> Result<ExecutionArtifacts<'p>, ExecError> {
        let jobs = self.batch_jobs();
        let engine_mix = runner.engine_mix(&jobs);
        let (results, stats) = try_run_batch_resilient(runner, &jobs, retry);
        let (outputs, per_job) = results
            .into_iter()
            .zip(&jobs)
            .map(|(res, job)| match res {
                Ok(out) => (out, None),
                Err(err) => (placeholder_output(job.measured.len()), Some(err)),
            })
            .unzip();
        let record = ExecutionRecord {
            engine_mix,
            failures: Some(JobFailures { per_job, stats }),
            ..ExecutionRecord::default()
        };
        self.scatter(outputs, record)
    }

    /// The one scatter behind every execution path: permutes batch-order
    /// outputs and the per-job entries of their [`ExecutionRecord`] back to
    /// program-slot order.
    ///
    /// # Errors
    ///
    /// [`ExecError::ResultCountMismatch`] when the outputs, or a per-job
    /// record entry, do not cover the plan's batch.
    fn scatter(
        &self,
        outputs: Vec<RunOutput>,
        mut record: ExecutionRecord,
    ) -> Result<ExecutionArtifacts<'_>, ExecError> {
        let expected = self.batch_order.len();
        let lens = [
            Some(outputs.len()),
            record.sampled_shots.as_ref().map(Vec::len),
            record.failures.as_ref().map(|f| f.per_job.len()),
        ];
        if let Some(got) = lens.into_iter().flatten().find(|&got| got != expected) {
            return Err(ExecError::ResultCountMismatch { expected, got });
        }
        record.sampled_shots = record.sampled_shots.map(|s| self.to_slot_order(s));
        if let Some(f) = &mut record.failures {
            f.per_job = self.to_slot_order(std::mem::take(&mut f.per_job));
        }
        Ok(ExecutionArtifacts {
            plan: self,
            outputs: self.to_slot_order(outputs),
            record,
        })
    }

    /// Permutes a vector aligned with [`MitigationPlan::batch_jobs`] into
    /// program-slot order.
    fn to_slot_order<T>(&self, batch: Vec<T>) -> Vec<T> {
        let mut slots: Vec<Option<T>> = batch.iter().map(|_| None).collect();
        for (&slot, x) in self.batch_order.iter().zip(batch) {
            slots[slot] = Some(x);
        }
        slots
            .into_iter()
            .map(|x| x.expect("batch order is a permutation of the program slots"))
            .collect()
    }

    /// A serializable summary of the plan — the wire-friendly view a
    /// service front-end reports for queued jobs without exposing plan
    /// internals.
    pub fn view(&self) -> PlanView {
        PlanView {
            n_qubits: self.circuit.n_qubits(),
            measured: self.measured.clone(),
            n_programs: self.n_programs(),
            n_requests: self.n_requests(),
            n_subsets: self.n_subsets(),
            n_skipped: self.skipped.len(),
            shared_gate_fraction: self.batch_stats.shared_gate_fraction(),
        }
    }

    /// Logical requests per program slot: the global run plus one request
    /// per slot occurrence in every assignment's walk (symmetric subsets
    /// replay a shared walk, so its slots count once per subset served).
    /// Sums to `n_requests()` by construction.
    fn slot_fanout(&self) -> Vec<f64> {
        let mut fanout = vec![0usize; self.programs.len()];
        fanout[self.global_slot] += 1;
        for a in &self.assignments {
            for &slot in &self.traces[a.trace].slots {
                fanout[slot] += 1;
            }
        }
        fanout.iter().map(|&f| f.max(1) as f64).collect()
    }

    /// Runs the plan as a policy-driven [`MitigationSession`] and
    /// recombines — the one-call form of `session.run(runner)` for callers
    /// that want a report, not artifacts. With [`ShotPolicy::Adaptive`]
    /// this is the full two-round pilot/Neyman schedule.
    ///
    /// # Errors
    ///
    /// The session-construction errors of [`MitigationSession::new`] plus
    /// whatever execution and recombination report.
    pub fn run_sampled<R: Runner>(
        &self,
        runner: &R,
        total_shots: usize,
        policy: ShotPolicy,
        seed: u64,
    ) -> Result<QuTracerReport, ExecError> {
        MitigationSession::new(self, policy, total_shots, seed)?.run(runner)
    }
}

/// The staged pipeline behind the strategy-unified surface: jobs are the
/// prefix-clustered batch ([`MitigationPlan::batch_jobs`]), recombination
/// scatters outputs back to program-slot order and runs the full Bayesian
/// recombination. Budget allocation apportions in *slot* order and
/// permutes to batch order, so shot ties break in plan order whatever the
/// trie clustering.
impl MitigationStrategy for MitigationPlan {
    type Report = QuTracerReport;

    fn name(&self) -> &'static str {
        "qutracer"
    }

    fn batch_jobs(&self) -> Vec<BatchJob> {
        MitigationPlan::batch_jobs(self)
    }

    fn n_jobs(&self) -> usize {
        self.programs.len()
    }

    fn shot_fanout(&self) -> Vec<f64> {
        let fanout = self.slot_fanout();
        self.batch_order.iter().map(|&s| fanout[s]).collect()
    }

    fn allocate_budget(&self, total_shots: usize, weights: &[f64]) -> Vec<usize> {
        let mut slot_weights = vec![0.0; self.programs.len()];
        for (&slot, &w) in self.batch_order.iter().zip(weights) {
            slot_weights[slot] = w;
        }
        let slot_shots = apportion_shots(total_shots, &slot_weights);
        self.batch_order.iter().map(|&s| slot_shots[s]).collect()
    }

    fn recombine_outputs(
        &self,
        outputs: Vec<RunOutput>,
        record: &ExecutionRecord,
    ) -> Result<QuTracerReport, StrategyError> {
        let artifacts = self.scatter(outputs, record.clone()).map_err(|e| match e {
            ExecError::ResultCountMismatch { expected, got } => {
                StrategyError::ResultCountMismatch { expected, got }
            }
            other => StrategyError::Recombine {
                detail: other.to_string(),
            },
        })?;
        artifacts.recombine().map_err(|e| match e {
            // Report failed jobs in batch-jobs order — the trait's index
            // space — rather than internal slot order.
            ExecError::JobFailed { slot, error } => StrategyError::JobFailed {
                job: self
                    .batch_order
                    .iter()
                    .position(|&s| s == slot)
                    .unwrap_or(slot),
                detail: error.to_string(),
            },
            other => StrategyError::Recombine {
                detail: other.to_string(),
            },
        })
    }
}

/// Stage-2 output: the raw results of every planned program, still keyed
/// by the plan that produced them, plus the [`ExecutionRecord`] of how
/// they ran. The exact entry points fill them with simulator
/// probabilities; [`MitigationSession::finish`] with the plug-in
/// frequencies of sampled counts and the shots behind them.
#[derive(Debug, Clone)]
pub struct ExecutionArtifacts<'p> {
    plan: &'p MitigationPlan,
    /// Outputs in program-slot order. A failed slot holds a zero-mass
    /// placeholder that recombination never reads: it voids every trace
    /// depending on that slot instead.
    outputs: Vec<RunOutput>,
    /// How the batch executed, with its per-job entries in program-slot
    /// order.
    record: ExecutionRecord,
}

/// The stand-in output stored at a failed slot: a zero-mass distribution
/// of the job's own measured width. Never consumed — recombination skips
/// every walk that would read it — but keeps `outputs` densely indexed by
/// program slot.
pub(crate) fn placeholder_output(measured_bits: usize) -> RunOutput {
    RunOutput {
        dist: Distribution::try_from_entries(measured_bits.max(1), Vec::new())
            .expect("an empty entry list over a nonzero register is always valid"),
        gates: 0,
        two_qubit_gates: 0,
    }
}

impl ExecutionArtifacts<'_> {
    /// The plan these artifacts were executed from.
    pub fn plan(&self) -> &MitigationPlan {
        self.plan
    }

    /// Terminal typed failures per program slot, aligned with
    /// [`MitigationPlan::programs`] (`None` for infallible executions;
    /// `Some` of all-`None` entries for a fallible run that lost nothing).
    pub fn slot_failures(&self) -> Option<&[Option<RunError>]> {
        self.record.failures.as_ref().map(|f| f.per_job.as_slice())
    }

    /// What the retry/quarantine engine did during a fallible execution
    /// (`None` for infallible paths). `voided_subsets` is filled in by
    /// [`ExecutionArtifacts::recombine`], which knows the dependency
    /// structure; here it is always 0.
    pub fn failure_stats(&self) -> Option<FailureStats> {
        self.record.failures.as_ref().map(|f| f.stats)
    }

    /// The typed failure of `slot`, if that program failed.
    fn slot_failure(&self, slot: usize) -> Option<&RunError> {
        self.record
            .failures
            .as_ref()
            .and_then(|f| f.per_job[slot].as_ref())
    }

    /// Stage 3: replays every subset's walk against the recorded results
    /// (purely classical) and performs the Bayesian recombination.
    ///
    /// Fallible executions degrade partially here: a trace whose walk
    /// depends on a failed slot is *voided* — its subsets drop out of the
    /// recombination and the report's locals, counted in
    /// [`OverheadStats::failures`] — while every surviving subset's
    /// contribution stays bit-identical to the fault-free run.
    ///
    /// # Errors
    ///
    /// [`ExecError`] if the artifacts do not match the plan (wrong count,
    /// or a walk consuming a different request stream than planned);
    /// [`ExecError::JobFailed`] when a fallible execution lost the global
    /// run itself, which no subset can degrade around.
    pub fn recombine(&self) -> Result<QuTracerReport, ExecError> {
        let plan = self.plan;
        if let Some(err) = self.slot_failure(plan.global_slot) {
            return Err(ExecError::JobFailed {
                slot: plan.global_slot,
                error: err.clone(),
            });
        }
        let global_out = &self.outputs[plan.global_slot];
        let global = global_out.dist.clone();

        let mut outcomes: Vec<Option<TraceOutcome>> = Vec::with_capacity(plan.traces.len());
        for t in &plan.traces {
            if t.slots.iter().any(|&s| self.slot_failure(s).is_some()) {
                // A job this walk depends on failed for good: void the
                // trace instead of replaying it against placeholders.
                outcomes.push(None);
                continue;
            }
            let outs: Vec<RunOutput> = t.slots.iter().map(|&s| self.outputs[s].clone()).collect();
            let mut port = ReplayPort::new(&outs);
            let walk = trace_with_port(&mut port, &plan.circuit, &t.qubits, &plan.config.trace);
            let outcome = walk.map_err(|e| match e {
                TraceError::Exec(x) => x,
                TraceError::Coupling(c) => ExecError::PlanMismatch {
                    detail: format!("subset {:?} no longer traceable: {c}", t.qubits),
                },
            })?;
            if !port.fully_consumed() {
                return Err(ExecError::PlanMismatch {
                    detail: format!("subset {:?} consumed fewer results than planned", t.qubits),
                });
            }
            outcomes.push(Some(outcome));
        }

        let locals: Vec<(Distribution, Vec<usize>)> = plan
            .assignments
            .iter()
            .filter_map(|a| {
                outcomes[a.trace]
                    .as_ref()
                    .map(|o| (o.local.clone(), a.positions.clone()))
            })
            .collect();
        let voided_subsets = plan
            .assignments
            .iter()
            .filter(|a| outcomes[a.trace].is_none())
            .count() as u64;
        // Stats accounting is derived from the plan: each distinct walk
        // counts once, independent of enumeration order; values come from
        // the executed outputs (so transpiling runners report real gate
        // counts). Voided walks contribute nothing — the report prices
        // what was actually recombined.
        let subset_stats: Vec<QspcStats> = outcomes.iter().flatten().map(|o| o.stats).collect();
        let refined = recombine::try_bayesian_update_all(
            &global,
            locals.iter().map(|(d, p)| (d, p.as_slice())),
        )
        .map_err(|e| ExecError::PlanMismatch {
            detail: format!("recombination rejected the planned subsets: {e}"),
        })?;
        let n_mitigation_circuits: usize = subset_stats.iter().map(|s| s.n_circuits).sum();
        let total_2q: usize = subset_stats.iter().map(|s| s.total_two_qubit_gates).sum();
        Ok(QuTracerReport {
            distribution: refined,
            global,
            locals,
            skipped: plan.skipped.clone(),
            stats: OverheadStats {
                n_circuits: 1 + n_mitigation_circuits,
                normalized_shots: n_mitigation_circuits as f64,
                avg_two_qubit_gates: if n_mitigation_circuits > 0 {
                    total_2q as f64 / n_mitigation_circuits as f64
                } else {
                    0.0
                },
                global_two_qubit_gates: global_out.two_qubit_gates,
                batch: Some(plan.batch_stats),
                total_shots: self.record.sampled_shots.as_ref().map(|s| s.iter().sum()),
                round_shots: self.record.round_shots.clone(),
                engine_mix: self.record.engine_mix.clone(),
                failures: self.record.failures.as_ref().map(|f| FailureStats {
                    voided_subsets,
                    ..f.stats
                }),
            },
            subset_stats,
        })
    }
}
