//! High-level execution: the [`Runner`] abstraction, noisy distributions,
//! readout and parallel batched execution.
//!
//! The [`Executor`] mirrors the role of Qiskit's `AerSimulator` in the
//! paper's artifact: callers hand it programs, it resolves a
//! [`crate::backend::BackendEngine`] per program (exact density matrix for
//! small registers, trajectories for large ones), applies the gate noise
//! and terminal readout error, and returns outcome distributions.
//!
//! Mitigation workloads are ensembles: one QSPC check alone runs
//! `preps × bases` independent circuits. [`Runner::run_batch`] is the
//! throughput path for those — the default implementation is a serial
//! loop, and [`Executor`] overrides it to fold the jobs into
//! prefix-sharing execution tries, then drains one work pool per batch:
//! every independent trie subtree and every stream of every trajectory
//! job is an item, and the items start heaviest first on the whole
//! machine.

use crate::backend::{self, BackendEngine, EngineState, ResolvedEngine};
use crate::classify::ProgramProfile;
use crate::density::DensityMatrix;
use crate::noise::{apply_readout, NoiseModel};
use crate::program::{Op, Program};
use crate::statevector::StateVector;
use crate::trajectory::{self, TrajectoryConfig, TrajectoryRun};
use crate::trie::{ExecutionTrie, TrieStats};
use qt_dist::{Counts, Distribution};
use std::collections::BTreeMap;
use std::sync::OnceLock;

pub use crate::backend::Backend;

/// The result of one program execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// Noisy outcome distribution over the measured qubits.
    pub dist: Distribution,
    /// Gates actually executed (post-transpilation where applicable).
    pub gates: usize,
    /// Multi-qubit gates actually executed.
    pub two_qubit_gates: usize,
}

/// The result of one finite-shot program execution: sampled measurement
/// counts instead of an exact distribution — what hardware (and the
/// paper's cost accounting, which is denominated in shots) returns.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledOutput {
    /// Per-outcome counts over the measured qubits (same indexing as
    /// [`RunOutput::dist`]); their total is `shots`.
    pub counts: Counts,
    /// Shots sampled for this job.
    pub shots: usize,
    /// Gates actually executed (post-transpilation where applicable).
    pub gates: usize,
    /// Multi-qubit gates actually executed.
    pub two_qubit_gates: usize,
}

impl SampledOutput {
    /// Draws `shots` multinomial samples from an executed job's noisy
    /// distribution — the dist-then-sample step shared by every finite-shot
    /// path. Deterministic in `(out.dist, shots, seed)` alone, so batched,
    /// serial and re-ordered executions agree bit for bit.
    pub fn from_run(out: &RunOutput, shots: usize, seed: u64) -> SampledOutput {
        SampledOutput {
            counts: sample_counts_deterministic(&out.dist, shots, seed, 1),
            shots,
            gates: out.gates,
            two_qubit_gates: out.two_qubit_gates,
        }
    }

    /// The plug-in [`RunOutput`]: empirical frequencies (uniform when no
    /// shots were recorded, consistent with normalizing a zero-mass
    /// distribution). Gate statistics carry over unchanged.
    pub fn to_run_output(&self) -> RunOutput {
        RunOutput {
            dist: self.counts.to_distribution(),
            gates: self.gates,
            two_qubit_gates: self.two_qubit_gates,
        }
    }

    /// Merges another round's counts for the *same* job into this output —
    /// the pilot-absorption primitive of multi-round sessions: counts add
    /// outcome-wise ([`Counts::absorb`]) and the shot totals sum, so no
    /// sampled shot is ever discarded between rounds. Gate statistics
    /// describe one execution of the job and are identical across rounds;
    /// they stay as recorded.
    ///
    /// # Panics
    ///
    /// Panics if the outcome spaces differ (different measured widths —
    /// these are not the same job).
    pub fn absorb(&mut self, other: &SampledOutput) {
        self.counts.absorb(&other.counts);
        self.shots += other.shots;
    }
}

/// Per-job shot allocation of one [`Runner::run_batch_sampled`] submission.
/// Allocation *policies* (splitting a total budget across a mitigation
/// plan's deduplicated programs) live upstream in `qt-core`; the executor
/// only needs the final per-job counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShotPlan {
    per_job: Vec<usize>,
}

impl ShotPlan {
    /// The same shot count for every job.
    pub fn uniform(n_jobs: usize, shots_each: usize) -> Self {
        ShotPlan {
            per_job: vec![shots_each; n_jobs],
        }
    }

    /// Explicit per-job shot counts.
    pub fn from_shots(per_job: Vec<usize>) -> Self {
        ShotPlan { per_job }
    }

    /// Number of jobs the plan covers.
    pub fn n_jobs(&self) -> usize {
        self.per_job.len()
    }

    /// Shots allocated to `job`.
    ///
    /// # Panics
    ///
    /// Panics if `job` is out of range.
    pub fn shots(&self, job: usize) -> usize {
        self.per_job[job]
    }

    /// The per-job shot counts, in job order.
    pub fn per_job(&self) -> &[usize] {
        &self.per_job
    }

    /// Total shots across all jobs.
    pub fn total_shots(&self) -> u64 {
        self.per_job.iter().map(|&s| s as u64).sum()
    }
}

/// The per-job sampling seed of a batched finite-shot submission: a
/// SplitMix64-style avalanche over `(seed, index)`, decorrelating jobs from
/// each other *and* from the per-stream offsets inside one job's sampler
/// (which are additive in the raw seed).
///
/// Public because multi-round sessions (`qt_core::MitigationSession`)
/// derive one seed per round from the caller's seed with it; within a
/// round, [`sample_batch`] keys every job's draws to its submission index,
/// so a retried job is sampled bit-identically to the fault-free run.
pub fn job_sample_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed
        ^ (index as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x243f_6a88_85a3_08d3);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Samples every job of an executed batch: job `i` draws
/// `shots.shots(i)` outcomes from `outputs[i]` seeded by
/// [`job_sample_seed`]`(seed, i)`. This is the one dist-then-sample step of
/// every batched finite-shot path ([`Runner::run_batch_sampled`] and
/// `qt_core`'s session absorption); jobs fan out over
/// [`backend::parallel_indexed`], and since each job's counts depend only
/// on its own output, shots and seed, the result is bit-identical for any
/// worker count.
///
/// # Panics
///
/// Panics if `shots` does not cover exactly `outputs.len()` jobs.
pub fn sample_batch(outputs: &[RunOutput], shots: &ShotPlan, seed: u64) -> Vec<SampledOutput> {
    fan_out_jobs(outputs.len(), shots, |i| {
        SampledOutput::from_run(&outputs[i], shots.shots(i), job_sample_seed(seed, i))
    })
}

/// [`sample_batch`] over a fallible batch: failed jobs keep their error,
/// the others are sampled exactly as [`sample_batch`] samples them — so a
/// job's counts never depend on which other jobs failed.
///
/// # Panics
///
/// Panics if `shots` does not cover exactly `results.len()` jobs.
pub fn try_sample_batch(
    results: &[Result<RunOutput, crate::RunError>],
    shots: &ShotPlan,
    seed: u64,
) -> Vec<Result<SampledOutput, crate::RunError>> {
    fan_out_jobs(results.len(), shots, |i| match &results[i] {
        Ok(out) => Ok(SampledOutput::from_run(
            out,
            shots.shots(i),
            job_sample_seed(seed, i),
        )),
        Err(e) => Err(e.clone()),
    })
}

/// Runs `f` over the jobs of a shot plan on the batch worker pool.
fn fan_out_jobs<T: Send>(n_jobs: usize, shots: &ShotPlan, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    assert_eq!(
        n_jobs,
        shots.n_jobs(),
        "shot plan covers a different number of jobs than submitted"
    );
    backend::parallel_indexed(n_jobs, backend::available_threads(), f)
}

/// Samples `shots` outcomes from a [`Distribution`] in a fixed number of
/// independent seeded streams. The stream layout is a function of the shot
/// count alone and each stream owns its own RNG, so the counts depend only
/// on `(dist, shots, seed)` — never on `threads` (which bounds the worker
/// fan-out, not the result) or the machine's core count.
///
/// The inverse-CDF table covers only the distribution's nonzero support,
/// so sampling a sparse wide-register distribution never materialises its
/// `2^n_bits` outcome space. Each draw `r` lands on the first CDF entry
/// above it (the last entry if none is), found through a guide table in
/// expected O(1); counts accumulate in one dense counter per support
/// entry and worker.
pub fn sample_counts_deterministic(
    dist: &Distribution,
    shots: usize,
    seed: u64,
    threads: usize,
) -> Counts {
    use rand::SeedableRng;
    let table = GuideTable::new(dist, shots);
    if table.total <= 0.0 {
        return Counts::try_from_entries(dist.n_bits(), Vec::new())
            .expect("an empty count table fits any outcome space");
    }
    let streams = if shots >= 1 << 14 { 8 } else { 1 };
    let chunk = shots.div_ceil(streams);
    // Streams run in contiguous runs per worker and share its counters:
    // integer sums do not depend on the order the draws land in.
    let per_worker = streams.div_ceil(threads.clamp(1, streams));
    let workers = streams.div_ceil(per_worker);
    let partials = backend::parallel_indexed(workers, workers, |w| {
        let mut counts = vec![0u64; table.outcomes.len()];
        for s in w * per_worker..((w + 1) * per_worker).min(streams) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(
                seed.wrapping_add((s as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            );
            let n = ((s + 1) * chunk).min(shots).saturating_sub(s * chunk);
            table.draw_into(&mut rng, n, &mut counts);
        }
        counts
    });
    let mut partials = partials.into_iter();
    let mut counts = partials.next().expect("at least one worker");
    for part in partials {
        for (acc, c) in counts.iter_mut().zip(part) {
            *acc += c;
        }
    }
    let entries = table
        .outcomes
        .iter()
        .zip(counts)
        .filter(|&(_, c)| c > 0)
        .map(|(&idx, c)| (idx, c))
        .collect();
    Counts::try_from_entries(dist.n_bits(), entries)
        .expect("sampled outcomes lie in the distribution's own outcome space")
}

/// The inverse-CDF lookup behind [`sample_counts_deterministic`].
///
/// A draw is a 53-bit integer `u`, mapped to `r = (u · 2⁻⁵³) · total`
/// exactly as `rand`'s `f64` sampling does, and lands on
/// `cdf.partition_point(|c| c <= r).min(len - 1)`. The guide splits the
/// draws into `2^g` buckets on the top `g` bits of `u`, and `guide[b]` is
/// the partition point of `r_min(b)`, the `r` of bucket `b`'s smallest
/// `u`. `u → r` is an exact scaling followed by an IEEE multiplication by
/// a non-negative constant, and both are monotone, so every draw of
/// bucket `b` has `r_min(b) <= r <= r_min(b + 1)`: all entries before
/// `guide[b]` are `<= r`, all entries from the partition point of
/// `r_min(b + 1)` on are `> r`, and a scan from `guide[b]` stops on the
/// exact answer. With `g = ⌈log2 min(support, shots)⌉ + 1` the expected
/// scan is under one step and the guide has at most `4·support` entries.
struct GuideTable {
    /// Outcome index of each support entry, ascending.
    outcomes: Vec<u64>,
    /// Cumulative clamped mass (non-decreasing), then a NaN sentinel that
    /// compares false against every draw, so scans never run off the end.
    cdf: Vec<f64>,
    total: f64,
    guide: Vec<usize>,
    /// `53 - g`: a draw's bucket is `u >> shift`.
    shift: u32,
}

/// `2⁻⁵³`, the scale of `rand`'s 53-bit `f64` draws.
const DRAW_SCALE: f64 = 1.0 / (1u64 << 53) as f64;

impl GuideTable {
    fn new(dist: &Distribution, shots: usize) -> Self {
        let len = dist.support_len();
        let mut outcomes = Vec::with_capacity(len);
        let mut cdf = Vec::with_capacity(len + 1);
        let mut acc = 0.0;
        for (idx, p) in dist.iter() {
            acc += p.max(0.0);
            outcomes.push(idx);
            cdf.push(acc);
        }
        let buckets = len.min(shots).max(1).next_power_of_two().min(1 << 52) * 2;
        let shift = 53 - buckets.trailing_zeros();
        let mut guide = Vec::with_capacity(buckets);
        let mut k = 0;
        for b in 0..buckets as u64 {
            let r_min = ((b << shift) as f64 * DRAW_SCALE) * acc;
            while k < len && cdf[k] <= r_min {
                k += 1;
            }
            guide.push(k);
        }
        cdf.push(f64::NAN);
        GuideTable {
            outcomes,
            cdf,
            total: acc,
            guide,
            shift,
        }
    }

    /// Draws `n` outcomes from `rng` into `counts` (one per support entry).
    fn draw_into(&self, rng: &mut impl rand::Rng, n: usize, counts: &mut [u64]) {
        let last = self.outcomes.len() - 1;
        for _ in 0..n {
            let u = rng.next_u64() >> 11;
            let r = (u as f64 * DRAW_SCALE) * self.total;
            let mut k = self.guide[(u >> self.shift) as usize];
            // Most buckets hold at most one CDF step: take the first one
            // without a branch, which random draws would mispredict.
            k += (self.cdf[k] <= r) as usize;
            while self.cdf[k] <= r {
                k += 1;
            }
            counts[k.min(last)] += 1;
        }
    }
}

/// One independent unit of work for [`Runner::run_batch`].
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// The program to execute.
    pub program: Program,
    /// The measured qubits (bit `i` of the outcome index = `measured[i]`).
    pub measured: Vec<usize>,
    /// Cached [`JobKey`], computed on first use.
    key: OnceLock<JobKey>,
    /// Cached [`ProgramProfile`], computed on first use (engine selection
    /// consults it once per job instead of rescanning the op stream).
    profile: OnceLock<ProgramProfile>,
}

/// A 128-bit structural hash of a `(program, measured)` pair — the
/// deduplication key of [`BatchJob`]. Two jobs with equal keys execute
/// identically on any deterministic runner, so one result can be fanned
/// out to both.
///
/// The key hashes the job's *structure* (op tags, gate variants, `f64`
/// parameter bits, operand lists, reset kets) in a single allocation-free
/// pass, replacing the old `format!("{measured:?}|{program:?}")` string
/// key whose construction was `O(|program|)` allocation per intern. The
/// mapping structure → 128 bits is not injective in principle, but
/// [`JobInterner`] debug-asserts every key hit against the old
/// collision-free string form, so a collision cannot slip through a
/// tested build silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobKey(u128);

impl JobKey {
    /// The raw 128 key bits — seed material for callers that want
    /// job-identity-derived randomness (e.g. finite-shot harnesses that
    /// give equal jobs equal sample noise regardless of submission order).
    pub fn bits(self) -> u128 {
        self.0
    }
}

/// Two-lane 64-bit mixing hasher behind [`JobKey`] (xorshift-multiply
/// avalanche per word, distinct seeds and multipliers per lane).
struct KeyHasher {
    a: u64,
    b: u64,
}

impl KeyHasher {
    fn new() -> Self {
        KeyHasher {
            a: 0x243f_6a88_85a3_08d3,
            b: 0x1319_8a2e_0370_7344,
        }
    }

    #[inline]
    fn mix(x: u64, k: u64) -> u64 {
        let mut h = x.wrapping_mul(k);
        h ^= h >> 29;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^ (h >> 32)
    }

    #[inline]
    fn word(&mut self, w: u64) {
        self.a = Self::mix(self.a ^ w, 0x9e37_79b9_7f4a_7c15);
        self.b = Self::mix(self.b ^ w.rotate_left(31), 0xc2b2_ae3d_27d4_eb4f);
    }

    fn finish(self) -> JobKey {
        JobKey(((self.a as u128) << 64) | self.b as u128)
    }
}

impl BatchJob {
    /// Creates a job.
    pub fn new(program: Program, measured: impl Into<Vec<usize>>) -> Self {
        BatchJob {
            program,
            measured: measured.into(),
            key: OnceLock::new(),
            profile: OnceLock::new(),
        }
    }

    /// The structural deduplication key of a `(program, measured)` pair
    /// (see [`JobKey`]).
    pub fn key_of(program: &Program, measured: &[usize]) -> JobKey {
        let mut h = KeyHasher::new();
        h.word(measured.len() as u64);
        for &m in measured {
            h.word(m as u64);
        }
        h.word(program.n_qubits() as u64);
        h.word(program.ops().len() as u64);
        for op in program.ops() {
            match op {
                Op::Gate(i) | Op::IdealGate(i) => {
                    h.word(if matches!(op, Op::Gate(_)) { 0 } else { 1 });
                    let (tag, params) = i.gate.structural_encoding();
                    h.word(tag as u64);
                    for p in params {
                        h.word(p.to_bits());
                    }
                    h.word(i.qubits.len() as u64);
                    for &q in &i.qubits {
                        h.word(q as u64);
                    }
                }
                Op::Reset { qubits, ket } => {
                    h.word(2);
                    h.word(qubits.len() as u64);
                    for &q in qubits {
                        h.word(q as u64);
                    }
                    for c in ket {
                        h.word(c.re.to_bits());
                        h.word(c.im.to_bits());
                    }
                }
            }
        }
        h.finish()
    }

    /// The [`BatchJob::key_of`] key of this job, computed once and cached.
    /// Jobs must not be mutated after their key has been read — debug
    /// builds re-derive the key on every call and assert it unchanged, so
    /// a stale cache fails loudly instead of silently fanning results out
    /// to the wrong program.
    pub fn dedup_key(&self) -> JobKey {
        let key = *self
            .key
            .get_or_init(|| Self::key_of(&self.program, &self.measured));
        debug_assert_eq!(
            key,
            Self::key_of(&self.program, &self.measured),
            "BatchJob mutated after its dedup key was read"
        );
        key
    }

    /// The structural [`ProgramProfile`] of this job's program, computed
    /// once and cached. Like [`BatchJob::dedup_key`], jobs must not be
    /// mutated after the profile has been read — debug builds re-derive it
    /// on every call and assert it unchanged.
    pub fn profile(&self) -> &ProgramProfile {
        let profile = self
            .profile
            .get_or_init(|| ProgramProfile::of(&self.program));
        debug_assert_eq!(
            *profile,
            ProgramProfile::of(&self.program),
            "BatchJob mutated after its profile was read"
        );
        profile
    }

    /// The pre-`JobKey` collision-free string form, kept as the
    /// debug-build oracle the interner checks key hits against.
    #[cfg(debug_assertions)]
    fn oracle_string(&self) -> String {
        format!("{:?}|{:?}", self.measured, self.program)
    }
}

/// Prefix-sharing statistics of one combined batch: jobs grouped by
/// register size (the coarsest grouping `run_batch_trie` ever uses) and
/// folded into execution tries, with each group's [`TrieStats`] absorbed
/// into one total. This is the drain-time instrumentation hook for batch
/// front-ends (e.g. `qt-serve`) that merge jobs from unrelated requests
/// and want to report how much circuit prefix the merge actually shared —
/// it builds the tries for counting only and executes nothing.
pub fn batch_trie_stats(jobs: &[BatchJob]) -> TrieStats {
    let mut by_width: BTreeMap<usize, Vec<&Program>> = BTreeMap::new();
    for job in jobs {
        by_width
            .entry(job.program.n_qubits())
            .or_default()
            .push(&job.program);
    }
    let mut stats = TrieStats::default();
    for group in by_width.values() {
        stats.absorb(&ExecutionTrie::build(group).stats());
    }
    stats
}

/// Interns jobs by [`BatchJob::dedup_key`]: equal jobs map to one table
/// slot, so a deduplicated batch executes each distinct program once and
/// fans the result back out (sound because every [`Runner`] here is a
/// deterministic function of the job). Shared by the staged pipelines in
/// `qt-core` and `qt-baselines`.
///
/// Debug builds additionally record each key's collision-free string form
/// and assert it on every key hit, so a [`JobKey`] hash collision fails
/// loudly instead of silently merging distinct jobs.
#[derive(Debug, Default)]
pub struct JobInterner {
    index: std::collections::HashMap<JobKey, usize>,
    #[cfg(debug_assertions)]
    oracle: std::collections::HashMap<JobKey, String>,
}

impl JobInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the slot of `job` in `table`, appending `make(job)` when the
    /// job is new. The `bool` is `true` for fresh entries.
    pub fn intern_with<T>(
        &mut self,
        table: &mut Vec<T>,
        job: BatchJob,
        make: impl FnOnce(BatchJob) -> T,
    ) -> (usize, bool) {
        let key = job.dedup_key();
        if let Some(&slot) = self.index.get(&key) {
            #[cfg(debug_assertions)]
            debug_assert_eq!(
                self.oracle[&key],
                job.oracle_string(),
                "JobKey collision: distinct jobs hashed identically"
            );
            (slot, false)
        } else {
            #[cfg(debug_assertions)]
            self.oracle.insert(key, job.oracle_string());
            let slot = table.len();
            self.index.insert(key, slot);
            table.push(make(job));
            (slot, true)
        }
    }

    /// [`JobInterner::intern_with`] for a plain job table.
    pub fn intern(&mut self, table: &mut Vec<BatchJob>, job: BatchJob) -> usize {
        self.intern_with(table, job, |j| j).0
    }
}

/// Anything that can execute a [`Program`] and return a noisy outcome
/// distribution: the plain [`Executor`] here, or a transpiling device
/// executor (`qt-device`) that first maps the program onto a physical
/// topology.
pub trait Runner {
    /// Executes `program`, returning the noisy distribution over `measured`
    /// (bit `i` of the outcome index = `measured[i]`) plus gate statistics.
    fn run(&self, program: &Program, measured: &[usize]) -> RunOutput;

    /// Executes a batch of independent jobs, returning outputs in job
    /// order. The default implementation is a serial loop; concurrent
    /// implementations must preserve per-job results exactly (every engine
    /// here is deterministic given its seed, so batched and serial
    /// execution agree bit-for-bit).
    fn run_batch(&self, jobs: &[BatchJob]) -> Vec<RunOutput> {
        jobs.iter()
            .map(|j| self.run(&j.program, &j.measured))
            .collect()
    }

    /// Executes a batch of independent jobs at finite shot budgets,
    /// returning sampled counts in job order. The default implementation
    /// runs the batch through [`Runner::run_batch`] — inheriting whatever
    /// batching the runner does (deduplication, prefix sharing,
    /// transpilation grouping) — and then samples each job's terminal
    /// distribution with a per-index seed through [`sample_batch`], whose
    /// per-job draws fan out over worker threads; results are
    /// bit-identical for any scheduling of the same job list.
    ///
    /// # Panics
    ///
    /// Panics if `shots` does not cover exactly `jobs.len()` jobs (a
    /// `qt_core::MitigationSession` round always covers its batch).
    fn run_batch_sampled(
        &self,
        jobs: &[BatchJob],
        shots: &ShotPlan,
        seed: u64,
    ) -> Vec<SampledOutput> {
        sample_batch(&self.run_batch(jobs), shots, seed)
    }

    /// The engine mix this runner would use for `jobs`: `(engine name, job
    /// count)` pairs sorted by name, or `None` for runners without engine
    /// introspection (the default). Reporting only — never affects
    /// execution.
    fn engine_mix(&self, _jobs: &[BatchJob]) -> Option<Vec<(String, usize)>> {
        None
    }

    /// The fallible batch surface: one `Result` per job, in job order.
    /// Runners that can observe per-job failure (device backends, the
    /// fault-injecting [`crate::ChaosRunner`]) override this to return
    /// typed [`crate::RunError`]s; the default rides the infallible
    /// [`Runner::run_batch`], so every existing runner keeps working
    /// unchanged and simply never reports a failure.
    ///
    /// Contract: the returned vector has exactly `jobs.len()` entries, and
    /// every `Ok` output is bit-identical to what the infallible path
    /// would produce for that job — failure handling must never perturb
    /// healthy results.
    fn try_run_batch(&self, jobs: &[BatchJob]) -> Vec<Result<RunOutput, crate::RunError>> {
        self.run_batch(jobs).into_iter().map(Ok).collect()
    }
}

/// Largest measured-qubit set the *dense-table* execution paths (the
/// trajectory engine's per-shot accumulator, noisy readout convolution)
/// will allocate a `2^m` vector for (`2^26` f64 entries is 512 MiB).
/// Mirrors [`qt_dist::DEFAULT_DENSE_CAP_BITS`]. Sparse-native engines
/// (stabilizer, sparse statevector) emit [`Distribution`]s over their
/// nonzero support directly and are *not* bound by this cap — a 32-qubit
/// low-entanglement job can measure all 32 qubits.
pub const MAX_MEASURED_BITS: usize = 26;

/// Total bytes of checkpoint states [`auto_live_states`] budgets per trie
/// walk.
const CHECKPOINT_BUDGET_BYTES: usize = 1 << 28; // 256 MiB

/// The live-state bound of every trie walk: as many states as the byte
/// budget affords (conservatively sized as density matrices), clamped to
/// `[1, 64]`. When the bound is hit the walk re-simulates instead of
/// checkpointing, so memory stays bounded at the price of repeated gate
/// work.
fn auto_live_states(n_qubits: usize) -> usize {
    // 16-byte amplitudes, 4^n of them for a density matrix.
    let state_bytes = match 1usize.checked_shl(2 * n_qubits as u32) {
        Some(amps) => amps.saturating_mul(16),
        None => usize::MAX,
    };
    (CHECKPOINT_BUDGET_BYTES / state_bytes.max(1)).clamp(1, 64)
}

impl Runner for Executor {
    fn run(&self, program: &Program, measured: &[usize]) -> RunOutput {
        RunOutput {
            dist: self.noisy_distribution(program, measured),
            gates: program.gate_count(),
            two_qubit_gates: program.two_qubit_gate_count(),
        }
    }

    /// Executes the batch on the prefix-sharing trie path — the
    /// executor's one batch path: every common op prefix across jobs is
    /// evolved once (bit-identical to per-job execution — see
    /// [`crate::trie`]), and one work pool runs the independent trie
    /// subtrees and every trajectory stream, heaviest first.
    fn run_batch(&self, jobs: &[BatchJob]) -> Vec<RunOutput> {
        self.run_batch_trie(jobs)
    }

    fn engine_mix(&self, jobs: &[BatchJob]) -> Option<Vec<(String, usize)>> {
        Some(self.engine_mix_of(jobs))
    }
}

/// One item of a batch's work pool: a trie root subtree (shared prefixes
/// inside, nothing shared across subtrees) or one stream of a trajectory
/// job.
enum PoolItem {
    Subtree { group: usize, child: usize },
    Stream { job: usize, stream: usize },
}

/// The static work estimate that orders a batch's work pool, heaviest
/// first: `ops` op applications on a state of `n_qubits` qubits, each
/// costed as one pass over the state's amplitudes — 4ⁿ of them for a
/// density matrix, 2ⁿ for every other representation.
fn work_estimate(ops: usize, n_qubits: usize, density_matrix: bool) -> f64 {
    let amplitude_bits = if density_matrix {
        2 * n_qubits
    } else {
        n_qubits
    };
    ops as f64 * (amplitude_bits as f64).exp2()
}

/// A trajectory job of a batch's work pool. Its run is prepared when its
/// first stream starts and finished when its last stream folds.
struct TrajectoryJob<'a> {
    /// Batch index.
    job: usize,
    program: &'a Program,
    measured: &'a [usize],
    config: TrajectoryConfig,
    run: OnceLock<TrajectoryRun<'a>>,
}

/// One fork-capable batch group: jobs whose compacted programs share a
/// register size and engine fork class, folded into one trie.
struct BatchGroup {
    /// Batch indices, aligned with the trie's job numbering.
    jobs: Vec<usize>,
    trie: ExecutionTrie,
    /// Compacted measured qubits per trie job.
    measured: Vec<Vec<usize>>,
    n_qubits: usize,
    class: u8,
    /// The engine the group's jobs resolved to. A fork class pins the
    /// state representation, so any engine producing the same class yields
    /// bit-identical snapshots — the first job's engine stands for all.
    engine: ResolvedEngine,
}

/// A noisy-circuit executor.
///
/// # Example
///
/// ```
/// use qt_sim::{Executor, NoiseModel, Program};
/// use qt_circuit::Circuit;
///
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// let exec = Executor::new(NoiseModel::depolarizing(0.001, 0.01).with_readout(0.02));
/// let dist = exec.noisy_distribution(&Program::from_circuit(&c), &[0, 1]);
/// assert!((dist.total() - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Executor {
    noise: NoiseModel,
    backend: Backend,
}

impl Executor {
    /// Creates an executor with the default (auto) backend.
    pub fn new(noise: NoiseModel) -> Self {
        Executor {
            noise,
            backend: Backend::default(),
        }
    }

    /// Creates an executor with an explicit backend.
    pub fn with_backend(noise: NoiseModel, backend: Backend) -> Self {
        Executor { noise, backend }
    }

    /// The noise model.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// The backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The prefix-sharing batch path (see [`crate::trie`]).
    ///
    /// Per job, the same compaction the serial path applies yields the
    /// program the engine actually simulates; jobs whose resolved engine
    /// offers a fork class are grouped by `(register size, class)` and
    /// folded into execution tries, and the rest (trajectory engines) run
    /// stream by stream. Readout error and gate statistics use the
    /// *original* job, exactly as [`Executor::run`] does, so the outputs
    /// are bit-identical to the serial loop.
    fn run_batch_trie(&self, jobs: &[BatchJob]) -> Vec<RunOutput> {
        if jobs.is_empty() {
            return Vec::new();
        }
        // Stage 1: per-job compaction, identical to the serial path
        // (`None` = the job runs as-is; no clone needed).
        let prepared: Vec<Option<(Program, Vec<usize>)>> = jobs
            .iter()
            .map(|j| self.compacted(&j.program, &j.measured))
            .collect();
        let program_of =
            |i: usize| -> &Program { prepared[i].as_ref().map_or(&jobs[i].program, |(p, _)| p) };
        let measured_of =
            |i: usize| -> &[usize] { prepared[i].as_ref().map_or(&jobs[i].measured, |(_, m)| m) };

        // Stage 2: partition into fork-capable groups and trajectory jobs.
        // Engine selection uses the cached job profile (structure is
        // invariant under compaction's qubit renaming) with the register
        // size of the program actually simulated.
        let mut by_class: BTreeMap<(usize, u8), Vec<usize>> = BTreeMap::new();
        let mut trajectory_jobs: Vec<TrajectoryJob> = Vec::new();
        let mut resolved: Vec<Option<ResolvedEngine>> = vec![None; jobs.len()];
        for i in 0..jobs.len() {
            let p = program_of(i);
            let profile = ProgramProfile {
                n_qubits: p.n_qubits(),
                ..*jobs[i].profile()
            };
            let engine = self
                .backend
                .resolve_for(p.n_qubits(), &self.noise, &profile);
            match (engine.fork_class(&self.noise, &profile), engine) {
                (Some(class), _) => {
                    resolved[i] = Some(engine);
                    by_class.entry((p.n_qubits(), class)).or_default().push(i);
                }
                (None, ResolvedEngine::Trajectory(t)) => trajectory_jobs.push(TrajectoryJob {
                    job: i,
                    program: p,
                    measured: measured_of(i),
                    config: t.config,
                    run: OnceLock::new(),
                }),
                (None, _) => unreachable!("only the trajectory engine lacks a fork class"),
            }
        }
        let groups: Vec<BatchGroup> = by_class
            .into_iter()
            .map(|((n_qubits, class), idxs)| {
                let programs: Vec<&Program> = idxs.iter().map(|&i| program_of(i)).collect();
                let trie = ExecutionTrie::build(&programs);
                let measured = idxs.iter().map(|&i| measured_of(i).to_vec()).collect();
                let engine = resolved[idxs[0]].expect("grouped jobs have a resolved engine");
                BatchGroup {
                    jobs: idxs,
                    trie,
                    measured,
                    n_qubits,
                    class,
                    engine,
                }
            })
            .collect();

        // One shared noise-model handle for every snapshot of the batch.
        let noise_arc = std::sync::Arc::new(self.noise.clone());
        let snapshot_of = |g: &BatchGroup| {
            let engine = g.engine;
            let (n_qubits, class) = (g.n_qubits, g.class);
            let noise = &noise_arc;
            move || {
                engine
                    .snapshot(n_qubits, noise, class)
                    .expect("fork class implies snapshot capability")
            }
        };

        let mut raw: Vec<Option<Distribution>> = vec![None; jobs.len()];

        // Jobs with empty compacted programs end at the trie root and are
        // measured inline on a fresh state.
        for g in &groups {
            for &local in g.trie.root_jobs() {
                let state = snapshot_of(g)();
                raw[g.jobs[local]] = Some(state.raw_distribution(&g.measured[local]));
            }
        }

        // Stage 3: one work pool. Its items are the independent trie
        // subtrees and every trajectory stream, started heaviest first by
        // `work_estimate` under a stable sort. Every stream of a job carries
        // the job's full-stream estimate, so a job's streams stay adjacent
        // and in stream order: the fold rarely waits, and each worker holds
        // the buffers of about one trajectory job at a time. Inside the
        // pool's workers every nested fan-out runs serially.
        let mut items: Vec<(f64, PoolItem)> = Vec::new();
        for (gi, g) in groups.iter().enumerate() {
            let density_matrix = g.class == backend::FORK_CLASS_DM;
            for &child in g.trie.root_children() {
                let work = work_estimate(g.trie.subtree_ops(child), g.n_qubits, density_matrix);
                items.push((work, PoolItem::Subtree { group: gi, child }));
            }
        }
        for (ti, t) in trajectory_jobs.iter().enumerate() {
            let (streams, chunk) = trajectory::stream_layout(t.config.n_trajectories);
            let work = work_estimate(chunk * t.program.ops().len(), t.program.n_qubits(), false);
            items.extend((0..streams).map(|stream| (work, PoolItem::Stream { job: ti, stream })));
        }
        items.sort_by(|a, b| b.0.total_cmp(&a.0));
        let finished = backend::parallel_indexed(items.len(), backend::available_threads(), |k| {
            match items[k].1 {
                PoolItem::Subtree { group, child } => {
                    let g = &groups[group];
                    let init = snapshot_of(g);
                    let init: &(dyn Fn() -> Box<dyn EngineState> + Sync) = &init;
                    let (dists, _) = g.trie.execute_subtree(
                        child,
                        init,
                        &g.measured,
                        auto_live_states(g.n_qubits),
                    );
                    dists
                        .into_iter()
                        .enumerate()
                        .filter_map(|(local, d)| d.map(|d| (g.jobs[local], d)))
                        .collect()
                }
                PoolItem::Stream { job, stream } => {
                    let t = &trajectory_jobs[job];
                    let run = t.run.get_or_init(|| {
                        TrajectoryRun::new(t.program, &self.noise, t.measured, &t.config)
                    });
                    if run.run_stream(stream) {
                        vec![(t.job, run.finish())]
                    } else {
                        Vec::new()
                    }
                }
            }
        });
        for (job, dist) in finished.into_iter().flatten() {
            raw[job] = Some(dist);
        }

        // Stage 4: readout + gate statistics from the original jobs.
        jobs.iter()
            .zip(raw)
            .map(|(job, dist)| {
                let dist = dist.expect("every batch job is scheduled exactly once");
                RunOutput {
                    dist: apply_readout(&dist, &job.measured, &self.noise.readout),
                    gates: job.program.gate_count(),
                    two_qubit_gates: job.program.two_qubit_gate_count(),
                }
            })
            .collect()
    }

    /// The gate-noisy outcome distribution over `measured`, **without**
    /// readout error (bit `i` of the index = `measured[i]`).
    ///
    /// The program is first compacted onto its used qubits (plus `measured`)
    /// so that reduced ensemble circuits do not pay for idle wires, then
    /// handed to the engine the backend resolves for the compacted size.
    /// Engines that track a dense outcome table enforce
    /// [`MAX_MEASURED_BITS`] themselves (see
    /// [`crate::trajectory::run_distribution`]); sparse-native engines
    /// accept any measured set up to 64 bits.
    pub fn raw_distribution(&self, program: &Program, measured: &[usize]) -> Distribution {
        match self.compacted(program, measured) {
            Some((p, m)) => self
                .resolve_engine(&p)
                .raw_distribution(&p, &self.noise, &m),
            None => self
                .resolve_engine(program)
                .raw_distribution(program, &self.noise, measured),
        }
    }

    /// The engine [`Backend::resolve_for`] picks for a concrete program —
    /// the one definition the serial path, the trie partition and the
    /// engine-mix report all share.
    fn resolve_engine(&self, program: &Program) -> ResolvedEngine {
        let profile = ProgramProfile::of(program);
        self.backend
            .resolve_for(program.n_qubits(), &self.noise, &profile)
    }

    /// The engine name each job of a batch resolves to, aggregated into
    /// `(name, job count)` pairs sorted by name — the engine-mix record
    /// surfaced through plan statistics.
    pub fn engine_mix_of(&self, jobs: &[BatchJob]) -> Vec<(String, usize)> {
        let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        for job in jobs {
            let name = match self.compacted(&job.program, &job.measured) {
                Some((p, _)) => self.resolve_engine(&p).name(),
                None => self.resolve_engine(&job.program).name(),
            };
            *counts.entry(name).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .map(|(name, n)| (name.to_string(), n))
            .collect()
    }

    /// The compacted `(program, measured)` this executor would simulate
    /// for a job, or `None` when the job runs as-is. One definition for
    /// the serial and the trie-batched path, so both simulate exactly the
    /// same program.
    fn compacted(&self, program: &Program, measured: &[usize]) -> Option<(Program, Vec<usize>)> {
        // Compaction renames qubits, so it is only sound when the noise
        // model is uniform (no per-qubit/per-edge calibration).
        let uniform = self.noise.per_qubit.is_empty()
            && self.noise.per_edge.is_empty()
            && self.noise.readout.per_qubit.is_empty();
        if uniform {
            compact(program, measured)
        } else {
            None
        }
    }

    /// The full noisy outcome distribution over `measured`: gate noise plus
    /// readout error (including measurement crosstalk scaled by the number
    /// of simultaneously measured qubits).
    ///
    /// Readout is applied with the *original* qubit identities, so per-qubit
    /// readout calibration survives compaction.
    pub fn noisy_distribution(&self, program: &Program, measured: &[usize]) -> Distribution {
        let raw = self.raw_distribution(program, measured);
        apply_readout(&raw, measured, &self.noise.readout)
    }

    /// Samples `shots` measurement outcomes from the noisy distribution —
    /// the finite-shot pipeline the paper's hardware runs use (100 000
    /// shots per circuit). Returns per-outcome counts over `measured`.
    ///
    /// Large shot counts are drawn in a fixed number of independent streams
    /// executed across threads; the counts depend only on `seed` (never on
    /// the machine's core count).
    pub fn sampled_counts(
        &self,
        program: &Program,
        measured: &[usize],
        shots: usize,
        seed: u64,
    ) -> Counts {
        let dist = self.noisy_distribution(program, measured);
        sample_counts_deterministic(&dist, shots, seed, backend::available_threads())
    }

    /// Runs the program on the exact density-matrix engine.
    ///
    /// # Panics
    ///
    /// Panics if the register exceeds [`crate::density::MAX_QUBITS`].
    pub fn run_dm(&self, program: &Program) -> DensityMatrix {
        backend::density_evolution(program, &self.noise)
    }
}

/// The noiseless outcome distribution of a program over `measured`.
///
/// Uses a pure-state simulation when the program has no resets, otherwise
/// the density-matrix engine.
pub fn ideal_distribution(program: &Program, measured: &[usize]) -> Distribution {
    let probs = if !program.has_resets() {
        let mut sv = StateVector::zero(program.n_qubits());
        for op in program.ops() {
            if let Op::Gate(i) | Op::IdealGate(i) = op {
                sv.apply_instruction(i);
            }
        }
        sv.marginal_probabilities(measured)
    } else {
        Executor::new(NoiseModel::ideal())
            .run_dm(program)
            .marginal_probabilities(measured)
    };
    Distribution::try_from_probs(measured.len(), probs)
        .expect("dense marginal fits its measured bit count")
}

/// Compacts a program onto its used qubits (always including `measured`).
/// Returns `None` when nothing would shrink. Qubit *identities are
/// preserved logically*: the caller still indexes results by the original
/// `measured` order; only the register is renamed internally, so this is
/// only valid for noise models without per-qubit overrides — the
/// [`Executor`] therefore skips compaction when overrides exist.
///
/// Compact indices are assigned in **first-use order** (by op stream, then
/// remaining measured qubits): two programs sharing an op prefix compact
/// that prefix identically even when their divergent suffixes touch
/// different qubit sets, so prefix sharing (see [`crate::trie`]) survives
/// compaction.
fn compact(program: &Program, measured: &[usize]) -> Option<(Program, Vec<usize>)> {
    let mut seen = vec![false; program.n_qubits()];
    let mut kept: Vec<usize> = Vec::new();
    let note = |q: usize, seen: &mut Vec<bool>, kept: &mut Vec<usize>| {
        if !seen[q] {
            seen[q] = true;
            kept.push(q);
        }
    };
    for op in program.ops() {
        match op {
            Op::Gate(i) | Op::IdealGate(i) => {
                for &q in &i.qubits {
                    note(q, &mut seen, &mut kept);
                }
            }
            Op::Reset { qubits, .. } => {
                for &q in qubits {
                    note(q, &mut seen, &mut kept);
                }
            }
        }
    }
    for &m in measured {
        note(m, &mut seen, &mut kept);
    }
    if kept.len() == program.n_qubits() {
        return None;
    }
    let mut map = vec![usize::MAX; program.n_qubits()];
    for (c, &q) in kept.iter().enumerate() {
        map[q] = c;
    }
    let mut out = Program::new(kept.len());
    for op in program.ops() {
        match op {
            Op::Gate(i) => {
                let qs = i.qubits.iter().map(|&q| map[q]).collect();
                out.push_gate(qt_circuit::Instruction::new(i.gate.clone(), qs));
            }
            Op::IdealGate(i) => {
                let qs = i.qubits.iter().map(|&q| map[q]).collect();
                out.push_ideal_gate(qt_circuit::Instruction::new(i.gate.clone(), qs));
            }
            Op::Reset { qubits, ket } => {
                let qs: Vec<usize> = qubits.iter().map(|&q| map[q]).collect();
                out.push_reset(&qs, ket.clone());
            }
        }
    }
    let m = measured.iter().map(|&q| map[q]).collect();
    Some((out, m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_circuit::Circuit;

    #[test]
    fn dm_and_trajectory_backends_agree() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cz(1, 2).ry(2, 0.4);
        let prog = Program::from_circuit(&c);
        let noise = NoiseModel::depolarizing(0.01, 0.05).with_readout(0.03);
        let dm = Executor::with_backend(noise.clone(), Backend::DensityMatrix);
        let tj = Executor::with_backend(
            noise,
            Backend::Trajectory(TrajectoryConfig {
                n_trajectories: 30_000,
                seed: 9,
                n_threads: Some(2),
            }),
        );
        let a = dm.noisy_distribution(&prog, &[0, 1, 2]);
        let b = tj.noisy_distribution(&prog, &[0, 1, 2]);
        for i in 0..8 {
            let (x, y) = (a.prob(i), b.prob(i));
            assert!((x - y).abs() < 0.02, "{x} vs {y}");
        }
    }

    #[test]
    fn readout_error_applied_on_top_of_gates() {
        let mut c = Circuit::new(1);
        c.x(0);
        let prog = Program::from_circuit(&c);
        let exec = Executor::new(NoiseModel::ideal().with_readout(0.25));
        let dist = exec.noisy_distribution(&prog, &[0]);
        assert!((dist.prob(0) - 0.25).abs() < 1e-12);
        assert!((dist.prob(1) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn ideal_distribution_matches_expected() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let prog = Program::from_circuit(&c);
        let dist = ideal_distribution(&prog, &[0, 1]);
        assert!((dist.prob(0) - 0.5).abs() < 1e-12);
        assert!((dist.prob(3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ideal_distribution_with_resets_uses_dm() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut prog = Program::from_circuit(&c);
        prog.push_reset_state(&[0], qt_math::states::PrepState::Zero);
        let dist = ideal_distribution(&prog, &[0, 1]);
        assert!((dist.prob(0) - 0.5).abs() < 1e-12);
        assert!((dist.prob(2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn crosstalk_reduces_when_measuring_fewer_qubits() {
        // Jigsaw's premise: measuring a subset sees less readout error.
        let mut c = Circuit::new(3);
        c.x(0).x(1).x(2);
        let prog = Program::from_circuit(&c);
        let noise = NoiseModel::ideal()
            .with_readout_model(crate::noise::ReadoutModel::with_crosstalk(0.01, 0.03));
        let exec = Executor::new(noise);
        let all = exec.noisy_distribution(&prog, &[0, 1, 2]);
        let sub = exec.noisy_distribution(&prog, &[0]);
        // P(correct) on qubit 0 alone must exceed marginal correctness when
        // measured jointly with two others.
        let p_joint_correct: f64 = all.iter().filter(|(i, _)| i & 1 == 1).map(|(_, p)| p).sum();
        assert!(sub.prob(1) > p_joint_correct + 0.02);
    }

    #[test]
    fn run_batch_matches_serial_execution_exactly() {
        let noise = NoiseModel::depolarizing(0.005, 0.02).with_readout(0.03);
        let exec = Executor::with_backend(noise, Backend::default());
        let mut jobs = Vec::new();
        for k in 0..12 {
            let mut c = Circuit::new(3);
            c.h(0).ry(1, 0.1 * k as f64).cx(0, 1).cz(1, 2);
            jobs.push(BatchJob::new(Program::from_circuit(&c), vec![0, 1, 2]));
        }
        let batched = exec.run_batch(&jobs);
        let serial: Vec<RunOutput> = jobs
            .iter()
            .map(|j| exec.run(&j.program, &j.measured))
            .collect();
        assert_eq!(batched, serial);
    }

    #[test]
    fn run_batch_matches_serial_on_trajectory_backend() {
        // Trajectory results are seed-deterministic and thread-invariant,
        // so the batch fan-out must agree bit-for-bit with serial runs.
        let noise = NoiseModel::depolarizing(0.01, 0.05);
        let cfg = TrajectoryConfig {
            n_trajectories: 2_000,
            seed: 7,
            n_threads: None,
        };
        let exec = Executor::with_backend(noise, Backend::Trajectory(cfg));
        let mut jobs = Vec::new();
        for k in 0..4 {
            let mut c = Circuit::new(2);
            c.h(0).ry(1, 0.3 + 0.2 * k as f64).cx(0, 1);
            jobs.push(BatchJob::new(Program::from_circuit(&c), vec![0, 1]));
        }
        let batched = exec.run_batch(&jobs);
        let serial: Vec<RunOutput> = jobs
            .iter()
            .map(|j| exec.run(&j.program, &j.measured))
            .collect();
        assert_eq!(batched, serial);
    }

    #[test]
    fn sampled_counts_are_seed_stable_and_total_shots() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let prog = Program::from_circuit(&c);
        let exec = Executor::with_backend(
            NoiseModel::ideal().with_readout(0.05),
            Backend::DensityMatrix,
        );
        let shots = 40_000; // exercises the multi-stream path
        let a = exec.sampled_counts(&prog, &[0, 1], shots, 11);
        let b = exec.sampled_counts(&prog, &[0, 1], shots, 11);
        assert_eq!(a, b, "same seed must reproduce counts");
        assert_eq!(a.shots(), shots as u64);
        let c2 = exec.sampled_counts(&prog, &[0, 1], shots, 12);
        assert_ne!(a, c2, "different seeds should differ");
    }
}
