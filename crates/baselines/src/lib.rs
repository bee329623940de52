//! Comparison baselines — Jigsaw (measurement subsetting), SQEM
//! (classically simulated Pauli checks via full circuit cutting), and
//! truncated-Neumann readout mitigation — plus the
//! [`MitigationStrategy`] trait that unifies them (and QuTracer's staged
//! pipeline in `qt-core`) behind one plan → jobs → recombine surface.

pub mod jigsaw;
pub mod neumann;
pub mod sqem;
pub mod strategy;

pub use jigsaw::{plan_jigsaw, run_jigsaw, JigsawPlan, JigsawReport};
pub use neumann::{neumann_mitigate, plan_neumann, run_neumann, NeumannPlan, NeumannReport};
pub use sqem::{plan_sqem, run_sqem, SqemPlan, SqemReport, SqemUnsupported};
pub use strategy::{
    apportion_shots, execute_strategy, ExecutionRecord, JobFailures, MitigationStrategy,
    StrategyError,
};

/// Execution-cost bookkeeping shared by the result tables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OverheadStats {
    /// Number of distinct circuits executed (including the global run).
    pub n_circuits: usize,
    /// Shot budget relative to the unmitigated run (the paper's
    /// "normalized number of shots": circuit copies at the original shot
    /// count).
    pub normalized_shots: f64,
    /// Average 2-qubit basis gate count per *mitigation* circuit (the
    /// paper's gate-count column; the global circuit reported separately).
    pub avg_two_qubit_gates: f64,
    /// 2-qubit basis gate count of the global (original) circuit.
    pub global_two_qubit_gates: usize,
    /// Prefix-sharing statistics of the batch's execution trie (nodes,
    /// shared-gate fraction — see `qt_sim::TrieStats`). `None` for flows
    /// that do not batch through a plan (the serial legacy path, the
    /// baselines' own reports).
    pub batch: Option<qt_sim::TrieStats>,
    /// Measurement shots actually sampled across every executed circuit
    /// (the paper's real cost denomination). `None` for exact-distribution
    /// flows, which pay in density matrices rather than shots.
    pub total_shots: Option<u64>,
    /// Shots spent per session round (pilot first), for multi-round
    /// adaptive executions. `None` for single-round and exact flows.
    pub round_shots: Option<Vec<u64>>,
    /// Per-engine job counts of the executed batch (`(engine name, jobs)`
    /// sorted by name — e.g. `[("density-matrix", 3), ("stabilizer", 40)]`),
    /// recording what `Backend::Auto`'s per-program selection actually
    /// chose. `None` for runners without engine introspection and for
    /// plan-time (pre-execution) statistics.
    pub engine_mix: Option<Vec<(String, usize)>>,
    /// What the failure domain did during execution: retries spent on
    /// transient errors, quarantined panics, jobs failed past the budget,
    /// and mitigation subsets voided by those failures (see
    /// `qt_sim::FailureStats`). `None` for infallible execution paths,
    /// `Some` (possibly all-zero) whenever a fallible path produced the
    /// report — so a degraded report always says *how* it degraded.
    pub failures: Option<qt_sim::FailureStats>,
}
