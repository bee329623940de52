//! Pauli Check Sandwiching (PCS) and Qubit Subsetting Pauli Checks (QSPC).
//!
//! * [`checks`] — validation that a segment admits Z checks
//!   (`C_R U C_L = U`);
//! * [`pcs`] — the literal ancilla-based protocol (ideal and noisy
//!   variants, used as baselines);
//! * [`qspc`] — the paper's virtualized checks: ensemble state preparation
//!   and measurement with classical recombination, mitigating both gate and
//!   measurement errors on the traced subset.
//!
//! # Example
//!
//! ```
//! use qt_circuit::Circuit;
//! use qt_pcs::checks;
//!
//! let mut segment = Circuit::new(2);
//! segment.cp(0, 1, 0.7);
//! assert!(checks::z_checkable(&segment, &[0]));
//! ```

pub mod checks;
pub mod pcs;
pub mod qspc;

pub use pcs::{
    postselected_distribution, postselected_distribution_sampled, z_check_sandwich, PcsProgram,
};
pub use qspc::{
    bloch_state_from_expectations, combine_pair_mitigated, combine_single_mitigated,
    project_to_physical, tabulate_pair, tabulate_single, PairEnsemble, PairEnsembleKey, QspcConfig,
    QspcPairSpec, QspcSingleSpec, QspcStats, SingleEnsemble,
};
