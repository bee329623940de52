//! State-vector, density-matrix and quantum-trajectory simulators with
//! Kraus noise channels — the substrate replacing the paper's Qiskit
//! AerSimulator.
//!
//! * [`StateVector`] — pure-state engine (ideal runs, trajectories);
//! * [`DensityMatrix`] — exact mixed-state engine with Kraus channels;
//! * [`NoiseModel`]/[`KrausChannel`]/[`ReadoutModel`] — gate and readout
//!   noise, including the measurement crosstalk Jigsaw exploits;
//! * [`Program`] — circuits plus the mid-circuit wire resets QSPC needs;
//! * [`backend`] — the [`BackendEngine`] abstraction every execution path
//!   resolves to (exact DM vs. trajectories) plus the scoped-thread
//!   helpers behind all parallel paths;
//! * [`Executor`] — noisy distribution extraction, readout application and
//!   parallel batched execution ([`Runner::run_batch`]).
//!
//! # Example
//!
//! ```
//! use qt_sim::{Executor, NoiseModel, Program};
//! use qt_circuit::Circuit;
//!
//! let mut c = Circuit::new(2);
//! c.h(0).cx(0, 1);
//! let exec = Executor::new(NoiseModel::depolarizing(0.001, 0.01));
//! let dist = exec.noisy_distribution(&Program::from_circuit(&c), &[0, 1]);
//! assert!(dist.prob(0) > 0.45 && dist.prob(3) > 0.45);
//! ```

pub mod backend;
pub mod cache;
pub mod classify;
pub mod density;
pub mod executor;
pub mod fault;
pub mod kernel;
pub mod noise;
pub mod program;
pub mod sparse;
pub mod stabilizer;
pub mod statevector;
pub mod sync;
pub mod trajectory;
pub mod trie;

pub use backend::{
    Backend, BackendEngine, DensityMatrixEngine, EngineState, ResolvedEngine,
    SparseStatevectorEngine, StabilizerEngine, StatevectorEngine, TrajectoryEngine,
};
pub use cache::{run_output_weight, CacheStats, ShardedLruCache};
pub use classify::ProgramProfile;
pub use density::DensityMatrix;
pub use executor::{
    batch_trie_stats, ideal_distribution, job_sample_seed, sample_batch,
    sample_counts_deterministic, try_sample_batch, BatchConfigError, BatchJob, BatchPolicy,
    Executor, JobInterner, JobKey, RunOutput, Runner, SampledOutput, ShotPlan, MAX_MEASURED_BITS,
};
pub use fault::{
    try_run_batch_isolated, try_run_batch_resilient, ChaosConfig, ChaosRunner, FailureStats, Fault,
    InjectedFaults, RetryPolicy, RunError, RunErrorKind,
};
pub use kernel::{ControlledBlock, KernelClass};
pub use noise::{
    apply_readout, KrausChannel, NoiseModel, NoiseRule, ReadoutModel, TwirlUnsupported,
};
pub use program::{Op, Program};
pub use statevector::StateVector;
pub use sync::{wait_recover, wait_timeout_recover, LockRecoverExt};
pub use trajectory::TrajectoryConfig;
pub use trie::{ExecutionTrie, TrieStats};
