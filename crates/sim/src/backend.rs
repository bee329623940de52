//! First-class simulation backends and the scoped-thread helpers behind
//! every parallel execution path in the workspace.
//!
//! The [`Backend`] value a caller configures (exact density matrix,
//! trajectories, or automatic selection by register size) resolves per
//! program to a concrete [`BackendEngine`] — the object that turns a noisy
//! program into an outcome distribution. Everything above this module
//! (executors, QSPC checks, the tracing framework, baselines, benches)
//! speaks [`crate::Runner`]; everything below it is an engine.
//!
//! ```text
//! Runner::run / run_batch
//!         │
//!         ▼
//! Backend::resolve_for(n, noise, profile)
//!         ├─► StabilizerEngine          (Clifford + Pauli noise, O(n²)/gate)
//!         ├─► SparseStatevectorEngine   (low-entanglement pure states)
//!         ├─► DensityMatrixEngine       (exact mixed state, small n)
//!         ├─► StatevectorEngine         (dense pure state, mid n)
//!         └─► TrajectoryEngine          (sampled, large n)
//! ```
//!
//! Engine choice never changes results — only cost. Every engine is exact
//! for the programs it admits, and inadmissible programs transparently fall
//! back to the density matrix, so `Backend::Auto` is a pure performance
//! decision driven by the one-pass [`ProgramProfile`] classifier.

use crate::classify::ProgramProfile;
use crate::density::DensityMatrix;
use crate::noise::NoiseModel;
use crate::program::{Op, Program};
use crate::sparse::{sparse_admissible, sparse_distribution, SparseState};
use crate::stabilizer::{stabilizer_admissible, stabilizer_distribution, StabilizerState};
use crate::statevector::{self, StateVector};
use crate::trajectory::{self, TrajectoryConfig};
use qt_dist::Distribution;
use qt_math::Matrix;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A deterministic, checkpointable simulation state — the fork/snapshot
/// capability behind trie-scheduled batch execution (see [`crate::trie`]).
///
/// Contract: applying the ops of a program in order to a fresh snapshot
/// and reading [`EngineState::raw_distribution`] must be **bit-identical**
/// to the owning engine's [`BackendEngine::raw_distribution`] for that
/// program, and [`EngineState::fork`] must be an exact copy — together
/// these make prefix-shared execution indistinguishable from per-job runs.
pub trait EngineState: Send {
    /// Applies one program op (gate + attached noise, ideal gate, or
    /// reset).
    fn apply_op(&mut self, op: &Op);

    /// Checkpoints the state (exact copy).
    fn fork(&self) -> Box<dyn EngineState>;

    /// The gate-noisy outcome distribution over `measured` at this point
    /// of the evolution (bit `i` of the index = `measured[i]`), before
    /// readout error.
    fn raw_distribution(&self, measured: &[usize]) -> Distribution;
}

/// A simulation engine: anything that can turn a noisy [`Program`] into a
/// gate-noisy outcome distribution (readout error is applied above, by the
/// executor, because it needs original qubit identities).
pub trait BackendEngine: Send + Sync + std::fmt::Debug {
    /// Engine name for diagnostics and reports.
    fn name(&self) -> &'static str;

    /// The gate-noisy distribution over `measured` (bit `i` of the outcome
    /// index = `measured[i]`), **before** readout error.
    fn raw_distribution(
        &self,
        program: &Program,
        noise: &NoiseModel,
        measured: &[usize],
    ) -> Distribution;

    /// The engine's fork-capability class for a job with the given shape,
    /// or `None` when the engine must run whole programs (stochastic
    /// trajectory sampling draws each stream's RNG through the whole
    /// program and cannot split mid-evolution; a batch schedules its
    /// streams instead). Jobs with equal `(register size, class)` may
    /// share one [`EngineState`] evolution; the class therefore encodes
    /// every state-representation choice the engine makes (pure state vs
    /// density matrix vs stabilizer tableau vs sparse map), which is why it
    /// takes the full [`ProgramProfile`] rather than just the reset flag.
    fn fork_class(&self, _noise: &NoiseModel, _profile: &ProgramProfile) -> Option<u8> {
        None
    }

    /// A fresh `|0…0⟩` [`EngineState`] for a fork class previously
    /// returned by [`BackendEngine::fork_class`], or `None` for engines
    /// without the capability. The noise model arrives shared (`Arc`) so
    /// that snapshot-heavy walks (one per independent subtree, one per
    /// budget-forced replay) do not clone channel tables.
    fn snapshot(
        &self,
        _n_qubits: usize,
        _noise: &Arc<NoiseModel>,
        _class: u8,
    ) -> Option<Box<dyn EngineState>> {
        None
    }
}

/// Applies one program op to a density matrix exactly as
/// [`density_evolution`] does — the single definition both the serial
/// engine and the trie scheduler's [`EngineState`] share, so their
/// results are bit-identical by construction.
pub(crate) fn apply_density_op(rho: &mut DensityMatrix, op: &Op, noise: &NoiseModel) {
    match op {
        Op::Gate(instr) => {
            rho.apply_instruction(instr);
            for (qs, ch) in noise.channels_for(instr) {
                rho.apply_channel(ch, &qs);
            }
        }
        Op::IdealGate(instr) => rho.apply_instruction(instr),
        Op::Reset { qubits, ket } => {
            let rho_small = ket_to_density(ket);
            rho.reset_qubits(qubits, &rho_small);
        }
    }
}

/// Wraps a dense marginal-probability vector as a [`Distribution`] — the
/// adapter every dense engine readout shares.
fn dense_raw(probs: Vec<f64>, measured: &[usize]) -> Distribution {
    Distribution::try_from_probs(measured.len(), probs)
        .expect("dense marginal fits its measured bit count")
}

/// The [`EngineState`] of the exact density-matrix engine.
#[derive(Debug, Clone)]
struct DensityState {
    rho: DensityMatrix,
    noise: Arc<NoiseModel>,
}

impl EngineState for DensityState {
    fn apply_op(&mut self, op: &Op) {
        apply_density_op(&mut self.rho, op, &self.noise);
    }

    fn fork(&self) -> Box<dyn EngineState> {
        Box::new(self.clone())
    }

    fn raw_distribution(&self, measured: &[usize]) -> Distribution {
        dense_raw(self.rho.marginal_probabilities(measured), measured)
    }
}

/// The [`EngineState`] of the exact pure-state engine (reset-free
/// programs under gate-ideal noise only — see [`StatevectorEngine`]).
#[derive(Debug, Clone)]
struct PureState {
    sv: StateVector,
}

impl EngineState for PureState {
    fn apply_op(&mut self, op: &Op) {
        match op {
            Op::Gate(i) | Op::IdealGate(i) => self.sv.apply_instruction(i),
            Op::Reset { .. } => {
                unreachable!("pure fork class excludes programs with resets")
            }
        }
    }

    fn fork(&self) -> Box<dyn EngineState> {
        Box::new(self.clone())
    }

    fn raw_distribution(&self, measured: &[usize]) -> Distribution {
        dense_raw(self.sv.marginal_probabilities(measured), measured)
    }
}

/// Exact mixed-state evolution: every Kraus channel applied in full.
#[derive(Debug, Clone, Copy, Default)]
pub struct DensityMatrixEngine;

impl BackendEngine for DensityMatrixEngine {
    fn name(&self) -> &'static str {
        "density-matrix"
    }

    fn raw_distribution(
        &self,
        program: &Program,
        noise: &NoiseModel,
        measured: &[usize],
    ) -> Distribution {
        dense_raw(
            density_evolution(program, noise).marginal_probabilities(measured),
            measured,
        )
    }

    fn fork_class(&self, _noise: &NoiseModel, _profile: &ProgramProfile) -> Option<u8> {
        // One representation for every program shape: the mixed state.
        Some(FORK_CLASS_DM)
    }

    fn snapshot(
        &self,
        n_qubits: usize,
        noise: &Arc<NoiseModel>,
        class: u8,
    ) -> Option<Box<dyn EngineState>> {
        debug_assert_eq!(class, FORK_CLASS_DM);
        Some(Box::new(DensityState {
            rho: DensityMatrix::zero(n_qubits),
            noise: Arc::clone(noise),
        }))
    }
}

/// Fork class of a density-matrix representation.
pub(crate) const FORK_CLASS_DM: u8 = 0;
/// Fork class of a pure-state representation.
const FORK_CLASS_PURE: u8 = 1;
/// Fork class of a stabilizer-tableau representation.
const FORK_CLASS_STABILIZER: u8 = 2;
/// Fork class of a sparse-statevector representation.
const FORK_CLASS_SPARSE: u8 = 3;

/// Exact pure-state evolution for reset-free programs under gate-ideal
/// noise (`2^n` amplitudes instead of the density matrix's `4^n`), with a
/// transparent density-matrix fallback for programs that need mixed
/// states (resets) or whose noise model attaches gate channels. Readout
/// error still applies (above, by the executor) — the engine choice only
/// concerns gate evolution.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatevectorEngine;

impl StatevectorEngine {
    /// Whether a program/noise pair admits the pure-state representation.
    fn pure_eligible(noise: &NoiseModel, has_resets: bool) -> bool {
        !has_resets && noise.gates_are_ideal()
    }
}

impl EngineState for StabilizerState {
    fn apply_op(&mut self, op: &Op) {
        StabilizerState::apply_op(self, op);
    }

    fn fork(&self) -> Box<dyn EngineState> {
        Box::new(StabilizerState::fork(self))
    }

    fn raw_distribution(&self, measured: &[usize]) -> Distribution {
        StabilizerState::raw_distribution(self, measured)
    }
}

impl EngineState for SparseState {
    fn apply_op(&mut self, op: &Op) {
        SparseState::apply_op(self, op);
    }

    fn fork(&self) -> Box<dyn EngineState> {
        Box::new(SparseState::fork(self))
    }

    fn raw_distribution(&self, measured: &[usize]) -> Distribution {
        SparseState::raw_distribution(self, measured)
    }
}

/// CHP-style stabilizer-tableau evolution for all-Clifford, reset-free
/// programs whose gate noise is absent or a Pauli mixture (mixed exactly,
/// without trajectories — see [`crate::stabilizer`]), with a transparent
/// density-matrix fallback for everything else. `O(n²)` per gate instead
/// of `O(4^n)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StabilizerEngine;

impl BackendEngine for StabilizerEngine {
    fn name(&self) -> &'static str {
        "stabilizer"
    }

    fn raw_distribution(
        &self,
        program: &Program,
        noise: &NoiseModel,
        measured: &[usize],
    ) -> Distribution {
        let profile = ProgramProfile::of(program);
        if stabilizer_admissible(noise, &profile) {
            let noise = Arc::new(noise.clone());
            stabilizer_distribution(program, &noise, measured)
        } else {
            dense_raw(
                density_evolution(program, noise).marginal_probabilities(measured),
                measured,
            )
        }
    }

    fn fork_class(&self, noise: &NoiseModel, profile: &ProgramProfile) -> Option<u8> {
        Some(if stabilizer_admissible(noise, profile) {
            FORK_CLASS_STABILIZER
        } else {
            FORK_CLASS_DM
        })
    }

    fn snapshot(
        &self,
        n_qubits: usize,
        noise: &Arc<NoiseModel>,
        class: u8,
    ) -> Option<Box<dyn EngineState>> {
        Some(if class == FORK_CLASS_STABILIZER {
            Box::new(StabilizerState::zero(n_qubits, Arc::clone(noise)))
        } else {
            Box::new(DensityState {
                rho: DensityMatrix::zero(n_qubits),
                noise: Arc::clone(noise),
            })
        })
    }
}

/// Sparse pure-state evolution for reset-free programs under gate-ideal
/// noise: only nonzero amplitudes are stored, so cost scales with the
/// superposition a program actually builds, not the register width (see
/// [`crate::sparse`]). Densifies in place past half density; falls back to
/// the density matrix for programs that need mixed states.
#[derive(Debug, Clone, Copy, Default)]
pub struct SparseStatevectorEngine;

impl BackendEngine for SparseStatevectorEngine {
    fn name(&self) -> &'static str {
        "sparse-statevector"
    }

    fn raw_distribution(
        &self,
        program: &Program,
        noise: &NoiseModel,
        measured: &[usize],
    ) -> Distribution {
        let profile = ProgramProfile::of(program);
        if sparse_admissible(noise, &profile) {
            sparse_distribution(program, measured)
        } else {
            dense_raw(
                density_evolution(program, noise).marginal_probabilities(measured),
                measured,
            )
        }
    }

    fn fork_class(&self, noise: &NoiseModel, profile: &ProgramProfile) -> Option<u8> {
        Some(if sparse_admissible(noise, profile) {
            FORK_CLASS_SPARSE
        } else {
            FORK_CLASS_DM
        })
    }

    fn snapshot(
        &self,
        n_qubits: usize,
        noise: &Arc<NoiseModel>,
        class: u8,
    ) -> Option<Box<dyn EngineState>> {
        Some(if class == FORK_CLASS_SPARSE {
            Box::new(SparseState::zero(n_qubits))
        } else {
            Box::new(DensityState {
                rho: DensityMatrix::zero(n_qubits),
                noise: Arc::clone(noise),
            })
        })
    }
}

impl BackendEngine for StatevectorEngine {
    fn name(&self) -> &'static str {
        "statevector"
    }

    fn raw_distribution(
        &self,
        program: &Program,
        noise: &NoiseModel,
        measured: &[usize],
    ) -> Distribution {
        if Self::pure_eligible(noise, program.has_resets()) {
            let mut sv = StateVector::zero(program.n_qubits());
            for op in program.ops() {
                if let Op::Gate(i) | Op::IdealGate(i) = op {
                    sv.apply_instruction(i);
                }
            }
            dense_raw(sv.marginal_probabilities(measured), measured)
        } else {
            dense_raw(
                density_evolution(program, noise).marginal_probabilities(measured),
                measured,
            )
        }
    }

    fn fork_class(&self, noise: &NoiseModel, profile: &ProgramProfile) -> Option<u8> {
        Some(if Self::pure_eligible(noise, profile.has_resets) {
            FORK_CLASS_PURE
        } else {
            FORK_CLASS_DM
        })
    }

    fn snapshot(
        &self,
        n_qubits: usize,
        noise: &Arc<NoiseModel>,
        class: u8,
    ) -> Option<Box<dyn EngineState>> {
        Some(if class == FORK_CLASS_PURE {
            Box::new(PureState {
                sv: StateVector::zero(n_qubits),
            })
        } else {
            Box::new(DensityState {
                rho: DensityMatrix::zero(n_qubits),
                noise: Arc::clone(noise),
            })
        })
    }
}

/// Monte-Carlo wave-function sampling, fanned out over scoped threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrajectoryEngine {
    /// Trajectory count, seed and worker budget.
    pub config: TrajectoryConfig,
}

impl BackendEngine for TrajectoryEngine {
    fn name(&self) -> &'static str {
        "trajectory"
    }

    fn raw_distribution(
        &self,
        program: &Program,
        noise: &NoiseModel,
        measured: &[usize],
    ) -> Distribution {
        trajectory::run_distribution(program, noise, measured, &self.config)
    }
}

/// Simulation backend choice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backend {
    /// Exact density-matrix simulation up to the given register size, then
    /// fall back to trajectories.
    Auto {
        /// Largest register simulated exactly.
        dm_max_qubits: usize,
        /// Trajectory settings for larger registers.
        trajectories: TrajectoryConfig,
    },
    /// Always use the density-matrix engine.
    DensityMatrix,
    /// Exact pure-state engine for reset-free programs under gate-ideal
    /// noise; falls back to the density matrix per program otherwise.
    Statevector,
    /// Stabilizer-tableau engine for all-Clifford reset-free programs
    /// under Pauli (or no) gate noise; falls back to the density matrix
    /// per program otherwise.
    Stabilizer,
    /// Sparse pure-state engine for reset-free programs under gate-ideal
    /// noise; falls back to the density matrix per program otherwise.
    Sparse,
    /// Always use the trajectory engine.
    Trajectory(TrajectoryConfig),
}

impl Default for Backend {
    fn default() -> Self {
        Backend::Auto {
            dm_max_qubits: 10,
            trajectories: TrajectoryConfig::default(),
        }
    }
}

impl Backend {
    /// Resolves the engine that will simulate a register of `n_qubits`,
    /// without program knowledge. `Auto` falls back to its size-only rule
    /// (density matrix up to `dm_max_qubits`, then trajectories); callers
    /// that hold a program should prefer [`Backend::resolve_for`].
    pub fn resolve(&self, n_qubits: usize) -> ResolvedEngine {
        match *self {
            Backend::DensityMatrix => ResolvedEngine::DensityMatrix(DensityMatrixEngine),
            Backend::Statevector => ResolvedEngine::Statevector(StatevectorEngine),
            Backend::Stabilizer => ResolvedEngine::Stabilizer(StabilizerEngine),
            Backend::Sparse => ResolvedEngine::Sparse(SparseStatevectorEngine),
            Backend::Trajectory(config) => ResolvedEngine::Trajectory(TrajectoryEngine { config }),
            Backend::Auto {
                dm_max_qubits,
                trajectories,
            } => {
                if n_qubits <= dm_max_qubits {
                    ResolvedEngine::DensityMatrix(DensityMatrixEngine)
                } else {
                    ResolvedEngine::Trajectory(TrajectoryEngine {
                        config: trajectories,
                    })
                }
            }
        }
    }

    /// Resolves the cheapest admissible engine for a concrete job: register
    /// size `n_qubits` (of the program actually executed, which compaction
    /// may have shrunk), the noise model, and the job's structural
    /// [`ProgramProfile`]. Forced backends resolve to themselves; `Auto`
    /// walks the admissibility ladder cheapest-first:
    ///
    /// 1. **Stabilizer** — all-Clifford, reset-free, Pauli/no gate noise:
    ///    polynomial in `n` regardless of register width.
    /// 2. **Sparse statevector** — pure-eligible with a support bound
    ///    comfortably below the dense size (`2^(s+2) ≤ 2^n`).
    /// 3. **Density matrix** — exact mixed state, within `dm_max_qubits`.
    /// 4. **Dense statevector** — pure-eligible registers the dense pure
    ///    engine can hold.
    /// 5. **Trajectories** — everything else.
    ///
    /// Engine choice is a pure performance decision: every engine is exact
    /// for the jobs it admits, so `Auto` never changes results.
    pub fn resolve_for(
        &self,
        n_qubits: usize,
        noise: &NoiseModel,
        profile: &ProgramProfile,
    ) -> ResolvedEngine {
        let Backend::Auto { dm_max_qubits, .. } = *self else {
            return self.resolve(n_qubits);
        };
        if stabilizer_admissible(noise, profile) {
            return ResolvedEngine::Stabilizer(StabilizerEngine);
        }
        if sparse_admissible(noise, profile) && profile.support_bound_log2() + 2 <= n_qubits {
            return ResolvedEngine::Sparse(SparseStatevectorEngine);
        }
        if n_qubits <= dm_max_qubits {
            return ResolvedEngine::DensityMatrix(DensityMatrixEngine);
        }
        if sparse_admissible(noise, profile) && n_qubits <= statevector::MAX_QUBITS {
            return ResolvedEngine::Statevector(StatevectorEngine);
        }
        self.resolve(n_qubits)
    }
}

/// A [`Backend`] resolved against a concrete register size.
#[derive(Debug, Clone, Copy)]
pub enum ResolvedEngine {
    /// The exact mixed-state engine.
    DensityMatrix(DensityMatrixEngine),
    /// The exact pure-state engine (with DM fallback per program).
    Statevector(StatevectorEngine),
    /// The stabilizer-tableau engine (with DM fallback per program).
    Stabilizer(StabilizerEngine),
    /// The sparse pure-state engine (with DM fallback per program).
    Sparse(SparseStatevectorEngine),
    /// The sampling engine.
    Trajectory(TrajectoryEngine),
}

impl BackendEngine for ResolvedEngine {
    fn name(&self) -> &'static str {
        match self {
            ResolvedEngine::DensityMatrix(e) => e.name(),
            ResolvedEngine::Statevector(e) => e.name(),
            ResolvedEngine::Stabilizer(e) => e.name(),
            ResolvedEngine::Sparse(e) => e.name(),
            ResolvedEngine::Trajectory(e) => e.name(),
        }
    }

    fn raw_distribution(
        &self,
        program: &Program,
        noise: &NoiseModel,
        measured: &[usize],
    ) -> Distribution {
        match self {
            ResolvedEngine::DensityMatrix(e) => e.raw_distribution(program, noise, measured),
            ResolvedEngine::Statevector(e) => e.raw_distribution(program, noise, measured),
            ResolvedEngine::Stabilizer(e) => e.raw_distribution(program, noise, measured),
            ResolvedEngine::Sparse(e) => e.raw_distribution(program, noise, measured),
            ResolvedEngine::Trajectory(e) => e.raw_distribution(program, noise, measured),
        }
    }

    fn fork_class(&self, noise: &NoiseModel, profile: &ProgramProfile) -> Option<u8> {
        match self {
            ResolvedEngine::DensityMatrix(e) => e.fork_class(noise, profile),
            ResolvedEngine::Statevector(e) => e.fork_class(noise, profile),
            ResolvedEngine::Stabilizer(e) => e.fork_class(noise, profile),
            ResolvedEngine::Sparse(e) => e.fork_class(noise, profile),
            ResolvedEngine::Trajectory(e) => e.fork_class(noise, profile),
        }
    }

    fn snapshot(
        &self,
        n_qubits: usize,
        noise: &Arc<NoiseModel>,
        class: u8,
    ) -> Option<Box<dyn EngineState>> {
        match self {
            ResolvedEngine::DensityMatrix(e) => e.snapshot(n_qubits, noise, class),
            ResolvedEngine::Statevector(e) => e.snapshot(n_qubits, noise, class),
            ResolvedEngine::Stabilizer(e) => e.snapshot(n_qubits, noise, class),
            ResolvedEngine::Sparse(e) => e.snapshot(n_qubits, noise, class),
            ResolvedEngine::Trajectory(e) => e.snapshot(n_qubits, noise, class),
        }
    }
}

/// Evolves `program` under `noise` on the exact density-matrix engine.
///
/// # Panics
///
/// Panics if the register exceeds [`crate::density::MAX_QUBITS`].
pub fn density_evolution(program: &Program, noise: &NoiseModel) -> DensityMatrix {
    let mut rho = DensityMatrix::zero(program.n_qubits());
    for op in program.ops() {
        apply_density_op(&mut rho, op, noise);
    }
    rho
}

fn ket_to_density(ket: &[qt_math::Complex]) -> Matrix {
    let d = ket.len();
    let mut m = Matrix::zeros(d, d);
    for r in 0..d {
        for c in 0..d {
            m[(r, c)] = ket[r] * ket[c].conj();
        }
    }
    m
}

/// The machine's available parallelism (≥ 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1)
}

std::thread_local! {
    /// Whether the current thread is a `parallel_indexed` worker.
    static IN_PARALLEL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether the calling thread is already inside a [`parallel_indexed`]
/// worker.
fn in_parallel_worker() -> bool {
    IN_PARALLEL_WORKER.with(|c| c.get())
}

/// Marks the calling thread as a [`parallel_indexed`] worker while it
/// drains its own call, and unmarks it on drop, unwinding included.
struct CallerWorker;

impl CallerWorker {
    fn enter() -> Self {
        IN_PARALLEL_WORKER.with(|c| c.set(true));
        CallerWorker
    }
}

impl Drop for CallerWorker {
    fn drop(&mut self) {
        IN_PARALLEL_WORKER.with(|c| c.set(false));
    }
}

/// Runs `f(0..n)` on up to `threads` workers (work-stealing by atomic
/// index) and returns the results in index order. The calling thread is
/// the first worker, beside up to `threads − 1` scoped threads, so a call
/// spawns one thread fewer than it uses and leaves no thread idle in
/// `join`. Falls back to a serial loop for a single thread or item.
///
/// The one nesting rule of every parallel path: called from one of its
/// own workers, it runs serially on that worker. A batch's work pool
/// therefore owns the machine, and the engines, kernels and samplers its
/// items call stay serial inside it; called from outside any worker (a
/// one-item batch, a standalone run), they fan out themselves.
///
/// A panicking item re-raises its own payload on the caller once every
/// worker has stopped, as the serial loop does.
pub fn parallel_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.min(n);
    if workers <= 1 || in_parallel_worker() {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let drain = || {
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            local.push((i, f(i)));
        }
        local
    };
    let mut parts: Vec<Vec<(usize, T)>> = Vec::with_capacity(workers);
    let mut panic = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers)
            .map(|_| {
                scope.spawn(|| {
                    IN_PARALLEL_WORKER.with(|c| c.set(true));
                    drain()
                })
            })
            .collect();
        let caller = CallerWorker::enter();
        parts.push(drain());
        drop(caller);
        for h in handles {
            match h.join() {
                Ok(part) => parts.push(part),
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
    });
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, v) in parts.into_iter().flatten() {
        out[i] = Some(v);
    }
    out.into_iter()
        .map(|v| v.expect("every index computed exactly once"))
        .collect()
}

/// Runs `f(chunk_index, chunk)` over `data` split into chunks of
/// `chunk_len`, distributing the chunks over up to `threads` workers via
/// [`parallel_indexed`]. Falls back to a serial loop for a single thread or
/// chunk. Each chunk is visited exactly once, so in-place transformations
/// are bit-identical to the serial order for any worker count.
///
/// The simulation kernels route large-register gate applications through
/// this helper (see [`crate::kernel`]).
///
/// # Panics
///
/// Panics if `chunk_len == 0`.
pub fn parallel_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    if threads <= 1 || data.len() <= chunk_len {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    // Wrap each chunk in a Mutex so the work-stealing index loop of
    // `parallel_indexed` can hand out mutable slices; every lock is taken
    // exactly once, so there is no contention.
    let chunks: Vec<std::sync::Mutex<&mut [T]>> = data
        .chunks_mut(chunk_len)
        .map(std::sync::Mutex::new)
        .collect();
    parallel_indexed(chunks.len(), threads, |i| {
        let mut chunk = chunks[i].lock().expect("chunk lock poisoned");
        f(i, &mut chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_indexed_preserves_order() {
        let squares = parallel_indexed(100, 4, |i| i * i);
        assert_eq!(squares, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_indexed_serial_fallback() {
        assert_eq!(parallel_indexed(3, 1, |i| i + 1), vec![1, 2, 3]);
        assert_eq!(parallel_indexed(0, 8, |i| i), Vec::<usize>::new());
        // Nested inside a worker, every item runs on that worker's thread.
        let nested = parallel_indexed(2, 2, |_| {
            let outer = std::thread::current().id();
            parallel_indexed(8, 8, |_| std::thread::current().id())
                .into_iter()
                .all(|id| id == outer)
        });
        assert_eq!(nested, vec![true, true]);
    }

    #[test]
    fn parallel_indexed_propagates_the_item_panic() {
        for threads in [1, 2] {
            let payload = std::panic::catch_unwind(|| {
                parallel_indexed(4, threads, |i| {
                    if i == 3 {
                        panic!("boom at item {i}");
                    }
                    i
                })
            })
            .expect_err("item 3 panics");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("boom at item 3"),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn parallel_chunks_mut_visits_every_chunk_once() {
        for threads in [1, 2, 4] {
            let mut data: Vec<usize> = (0..103).collect();
            parallel_chunks_mut(&mut data, 10, threads, |i, chunk| {
                for v in chunk.iter_mut() {
                    *v += i * 1000;
                }
            });
            for (j, v) in data.iter().enumerate() {
                assert_eq!(*v, j + (j / 10) * 1000, "{threads} threads");
            }
        }
    }

    #[test]
    fn auto_backend_resolves_by_register_size() {
        let b = Backend::Auto {
            dm_max_qubits: 5,
            trajectories: TrajectoryConfig::default(),
        };
        assert!(matches!(b.resolve(5), ResolvedEngine::DensityMatrix(_)));
        assert!(matches!(b.resolve(6), ResolvedEngine::Trajectory(_)));
        assert_eq!(b.resolve(5).name(), "density-matrix");
        assert_eq!(b.resolve(6).name(), "trajectory");
    }
}
