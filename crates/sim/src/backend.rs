//! First-class simulation backends and the scoped-thread helpers behind
//! every parallel execution path in the workspace.
//!
//! The [`Backend`] value a caller configures (exact density matrix,
//! trajectories, or automatic selection by register size) resolves per
//! program to a [`ResolvedEngine`]. Every exact engine evolves one
//! [`StateClass`] of [`EngineState`], op by op: the executor walks a job's
//! whole program on one state ([`StateClass::run`]) or forks shared
//! prefixes at the branch points of an execution trie (see
//! [`crate::trie`]); the trajectory engine samples whole programs instead.
//! Everything above this module (executors, QSPC checks, the tracing
//! framework, baselines, benches) speaks [`crate::Runner`]; everything
//! below it is an engine.
//!
//! ```text
//! Runner::run / run_batch
//!         │
//!         ▼
//! Backend::resolve_for(n, noise, profile) → ResolvedEngine::state_class
//!         ├─► Stabilizer     StateClass::Stabilizer  (Clifford + Pauli noise, O(n²)/gate)
//!         ├─► Sparse         StateClass::Sparse      (low-entanglement pure states)
//!         ├─► DensityMatrix  StateClass::Density     (exact mixed state, small n)
//!         ├─► Statevector    StateClass::Pure        (dense pure state, mid n)
//!         └─► Trajectory     no state class          (sampled, large n)
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
use crate::sparse::{sparse_admissible, SparseState};
use crate::stabilizer::{stabilizer_admissible, StabilizerState};
use crate::statevector::{self, StateVector};
use crate::trajectory::TrajectoryConfig;
use qt_dist::Distribution;
use qt_math::Matrix;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A deterministic, checkpointable simulation state: what every exact
/// engine evolves, op by op, from the `|0…0⟩` of its [`StateClass`].
///
/// Contract: [`EngineState::fork`] is an exact copy, so a trie walk that
/// evolves a shared prefix once and forks it at branch points is
/// bit-identical to [`StateClass::run`] of every job's whole program.
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

/// The state representation an exact engine evolves a job in. Jobs with
/// equal register size and class start from equal states, so they may
/// share one trie evolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StateClass {
    /// The exact mixed state (`4^n` entries), every Kraus channel applied
    /// in full.
    Density,
    /// The dense pure state (`2^n` amplitudes): reset-free programs under
    /// gate-ideal noise.
    Pure,
    /// The stabilizer tableau with Pauli noise mixed exactly at readout
    /// (see [`crate::stabilizer`]): all-Clifford, reset-free programs
    /// under Pauli (or no) gate noise.
    Stabilizer,
    /// The nonzero amplitudes of a pure state, densified past half density
    /// (see [`crate::sparse`]): the programs [`StateClass::Pure`] admits.
    Sparse,
}

impl StateClass {
    /// A fresh `|0…0⟩` state of this class on `n_qubits` qubits. The noise
    /// model arrives shared so that snapshot-heavy walks (one per
    /// independent subtree, one per budget-forced replay) do not clone
    /// channel tables.
    pub fn zero(self, n_qubits: usize, noise: &Arc<NoiseModel>) -> Box<dyn EngineState> {
        match self {
            StateClass::Density => Box::new(DensityState {
                rho: DensityMatrix::zero(n_qubits),
                noise: Arc::clone(noise),
            }),
            StateClass::Pure => Box::new(PureState {
                sv: StateVector::zero(n_qubits),
            }),
            StateClass::Stabilizer => Box::new(StabilizerState::zero(n_qubits, Arc::clone(noise))),
            StateClass::Sparse => Box::new(SparseState::zero(n_qubits)),
        }
    }

    /// Applies every op of `program` to a fresh state of this class and
    /// reads the gate-noisy distribution over `measured` (bit `i` of the
    /// index = `measured[i]`), before readout error: the straight-line
    /// walk a trie's forked walk reproduces bit for bit.
    pub fn run(
        self,
        program: &Program,
        noise: &Arc<NoiseModel>,
        measured: &[usize],
    ) -> Distribution {
        let mut state = self.zero(program.n_qubits(), noise);
        for op in program.ops() {
            state.apply_op(op);
        }
        state.raw_distribution(measured)
    }
}

/// Applies one program op to a density matrix: the one definition both
/// [`density_evolution`] and the density-matrix [`EngineState`] share.
pub(crate) fn apply_density_op(rho: &mut DensityMatrix, op: &Op, noise: &NoiseModel) {
    match op {
        Op::Gate(instr) => rho.apply_noisy_instruction(instr, noise),
        Op::IdealGate(instr) => rho.apply_instruction(instr),
        Op::Reset { qubits, ket } => {
            let rho_small = ket_to_density(ket);
            rho.reset_qubits(qubits, &rho_small);
        }
    }
}

/// Wraps a dense marginal-probability vector as a [`Distribution`] — the
/// adapter both dense readouts share.
fn dense_raw(probs: Vec<f64>, measured: &[usize]) -> Distribution {
    Distribution::try_from_probs(measured.len(), probs)
        .expect("dense marginal fits its measured bit count")
}

/// The [`StateClass::Density`] state.
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

/// The [`StateClass::Pure`] state.
#[derive(Debug, Clone)]
struct PureState {
    sv: StateVector,
}

impl EngineState for PureState {
    fn apply_op(&mut self, op: &Op) {
        match op {
            Op::Gate(i) | Op::IdealGate(i) => self.sv.apply_instruction(i),
            Op::Reset { .. } => {
                unreachable!("pure state class excludes programs with resets")
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
            Backend::DensityMatrix => ResolvedEngine::DensityMatrix,
            Backend::Statevector => ResolvedEngine::Statevector,
            Backend::Stabilizer => ResolvedEngine::Stabilizer,
            Backend::Sparse => ResolvedEngine::Sparse,
            Backend::Trajectory(config) => ResolvedEngine::Trajectory(config),
            Backend::Auto {
                dm_max_qubits,
                trajectories,
            } => {
                if n_qubits <= dm_max_qubits {
                    ResolvedEngine::DensityMatrix
                } else {
                    ResolvedEngine::Trajectory(trajectories)
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
            return ResolvedEngine::Stabilizer;
        }
        if sparse_admissible(noise, profile) && profile.support_bound_log2() + 2 <= n_qubits {
            return ResolvedEngine::Sparse;
        }
        if n_qubits <= dm_max_qubits {
            return ResolvedEngine::DensityMatrix;
        }
        if sparse_admissible(noise, profile) && n_qubits <= statevector::MAX_QUBITS {
            return ResolvedEngine::Statevector;
        }
        self.resolve(n_qubits)
    }
}

/// A [`Backend`] resolved for a concrete job.
#[derive(Debug, Clone, Copy)]
pub enum ResolvedEngine {
    /// The exact mixed-state engine.
    DensityMatrix,
    /// The exact pure-state engine (with DM fallback per program).
    Statevector,
    /// The stabilizer-tableau engine (with DM fallback per program).
    Stabilizer,
    /// The sparse pure-state engine (with DM fallback per program).
    Sparse,
    /// The sampling engine: Monte-Carlo wave-function trajectories with
    /// their count, seed and worker budget.
    Trajectory(TrajectoryConfig),
}

impl ResolvedEngine {
    /// Engine name for diagnostics and reports.
    pub fn name(&self) -> &'static str {
        match self {
            ResolvedEngine::DensityMatrix => "density-matrix",
            ResolvedEngine::Statevector => "statevector",
            ResolvedEngine::Stabilizer => "stabilizer",
            ResolvedEngine::Sparse => "sparse-statevector",
            ResolvedEngine::Trajectory(_) => "trajectory",
        }
    }

    /// The state class this engine evolves a job of the given shape in, or
    /// `None` for trajectories: each stream draws its RNG through the
    /// whole program, so it cannot split mid-evolution, and a batch
    /// schedules its streams instead. An exact engine whose representation
    /// does not admit the job (resets, gate noise, non-Clifford gates)
    /// falls back to [`StateClass::Density`] — the one place that fallback
    /// is decided. It takes the full [`ProgramProfile`] because the class
    /// encodes every representation choice an engine makes.
    pub fn state_class(&self, noise: &NoiseModel, profile: &ProgramProfile) -> Option<StateClass> {
        let (admitted, class) = match self {
            ResolvedEngine::DensityMatrix => (true, StateClass::Density),
            ResolvedEngine::Statevector => (sparse_admissible(noise, profile), StateClass::Pure),
            ResolvedEngine::Stabilizer => (
                stabilizer_admissible(noise, profile),
                StateClass::Stabilizer,
            ),
            ResolvedEngine::Sparse => (sparse_admissible(noise, profile), StateClass::Sparse),
            ResolvedEngine::Trajectory(_) => return None,
        };
        Some(if admitted { class } else { StateClass::Density })
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
        assert!(matches!(b.resolve(5), ResolvedEngine::DensityMatrix));
        assert!(matches!(b.resolve(6), ResolvedEngine::Trajectory(_)));
        assert_eq!(b.resolve(5).name(), "density-matrix");
        assert_eq!(b.resolve(6).name(), "trajectory");
    }
}
