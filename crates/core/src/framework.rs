//! The QuTracer framework: analysis & circuit preparation, execution &
//! error mitigation, and the global distribution update (Fig. 4).
//!
//! [`run_qutracer`] is a thin compatibility wrapper over the staged
//! pipeline ([`crate::QuTracer::plan`] → execute → recombine). The old
//! serial per-subset reference path now lives only in the equivalence
//! test suite (`tests/pipeline_equivalence.rs`), where it remains the
//! oracle the pipeline is checked against bit for bit.

use crate::error::SkippedSubset;
use crate::pipeline::QuTracer;
use crate::trace::TraceConfig;
use qt_baselines::OverheadStats;
use qt_circuit::Circuit;
use qt_dist::Distribution;
use qt_pcs::QspcStats;
use qt_sim::Runner;

/// Framework configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuTracerConfig {
    /// Subset size: 1 or 2 (the paper restricts to these).
    pub subset_size: usize,
    /// Per-subset tracing options.
    pub trace: TraceConfig,
    /// Exploit workload symmetry: trace one representative subset and reuse
    /// its local distribution for all symmetric positions (the paper's
    /// QAOA-on-regular-graphs optimization, Sec. VII-D).
    pub symmetric_subsets: bool,
}

impl Default for QuTracerConfig {
    fn default() -> Self {
        QuTracerConfig {
            subset_size: 1,
            trace: TraceConfig::default(),
            symmetric_subsets: false,
        }
    }
}

impl QuTracerConfig {
    /// Subset size 1 with all optimizations (the paper's default for VQE,
    /// QPE, BV and arithmetic benchmarks).
    pub fn single() -> Self {
        QuTracerConfig::default()
    }

    /// Subset size 2 (the paper's choice for QAOA's Z2-symmetric outputs).
    pub fn pairs() -> Self {
        QuTracerConfig {
            subset_size: 2,
            ..Default::default()
        }
    }

    /// Limits checking to the trailing `k` check segments (Fig. 9).
    pub fn with_checked_layers(mut self, k: usize) -> Self {
        self.trace.checked_layers = Some(k);
        self
    }

    /// Enables symmetric-subset reuse.
    pub fn with_symmetric_subsets(mut self) -> Self {
        self.symmetric_subsets = true;
        self
    }
}

/// Full framework output.
#[derive(Debug, Clone)]
pub struct QuTracerReport {
    /// The refined global distribution over the measured qubits.
    pub distribution: Distribution,
    /// The unrefined (noisy) global distribution.
    pub global: Distribution,
    /// Local distributions and their bit positions in the measured list.
    pub locals: Vec<(Distribution, Vec<usize>)>,
    /// Subsets that could not be traced, with the typed reason (usually
    /// non-diagonal coupling).
    pub skipped: Vec<SkippedSubset>,
    /// Aggregate overheads.
    pub stats: OverheadStats,
    /// Per-subset execution statistics (one entry per *distinct* trace:
    /// symmetric subsets share a single walk and count once).
    pub subset_stats: Vec<QspcStats>,
}

/// Enumerates traced subsets as position lists into the measured register:
/// singletons for subset size 1; all cyclically adjacent pairs under the
/// symmetric-subset optimization; consecutive non-overlapping pairs
/// otherwise (the last pair backing up when the count is odd).
pub(crate) fn enumerate_subset_positions(
    measured_len: usize,
    config: &QuTracerConfig,
) -> Vec<Vec<usize>> {
    if config.subset_size == 1 {
        (0..measured_len).map(|p| vec![p]).collect()
    } else if config.symmetric_subsets {
        // All cyclically adjacent pairs (ring workloads); traced once.
        (0..measured_len)
            .map(|p| vec![p, (p + 1) % measured_len])
            .collect()
    } else {
        let mut v = Vec::new();
        let mut start = 0;
        while start < measured_len {
            let end = (start + 2).min(measured_len);
            let lo = end.saturating_sub(2);
            v.push((lo..end).collect());
            start = end;
        }
        v
    }
}

/// Runs the QuTracer framework end to end:
///
/// 1. execute the original circuit → noisy global distribution;
/// 2. trace every subset of the measured qubits with QSPC → high-fidelity
///    local distributions;
/// 3. refine the global distribution by Bayesian recombination.
///
/// This is a thin compatibility wrapper over the staged pipeline: it plans
/// once, executes every mitigation circuit of every subset as one
/// deduplicated batch, and recombines — bit-identical to (and faster than)
/// the serial per-subset reference retained as the oracle in
/// `tests/pipeline_equivalence.rs`.
///
/// # Panics
///
/// Panics on configuration errors (subset size outside `{1, 2}`, a
/// measured qubit outside the register or listed twice, pair tracing with
/// fewer than two measured qubits) — use [`QuTracer::plan`] directly for
/// typed [`PlanError`](crate::PlanError)s.
pub fn run_qutracer<R: Runner>(
    runner: &R,
    circuit: &Circuit,
    measured: &[usize],
    config: &QuTracerConfig,
) -> QuTracerReport {
    let plan = QuTracer::plan(circuit, measured, config)
        .unwrap_or_else(|e| panic!("invalid QuTracer configuration: {e}"));
    plan.execute(runner)
        .and_then(|artifacts| artifacts.recombine())
        .unwrap_or_else(|e| panic!("QuTracer pipeline failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_algos::{bernstein_vazirani, qaoa::QaoaParams, qaoa_maxcut, ring_graph, vqe_ansatz};
    use qt_dist::hellinger_fidelity;
    use qt_sim::{ideal_distribution, Backend, Executor, NoiseModel, Program, ReadoutModel};

    fn fidelity_of(dist: &Distribution, circ: &Circuit, measured: &[usize]) -> f64 {
        let ideal = ideal_distribution(&Program::from_circuit(circ), measured);
        hellinger_fidelity(dist, &ideal)
    }

    #[test]
    fn qutracer_beats_unmitigated_on_vqe() {
        let circ = vqe_ansatz(5, 1, 8);
        let measured: Vec<usize> = (0..5).collect();
        let noise = NoiseModel::depolarizing(0.002, 0.02)
            .with_readout_model(ReadoutModel::with_crosstalk(0.04, 0.01));
        let exec = Executor::with_backend(noise, Backend::DensityMatrix);
        let report = run_qutracer(&exec, &circ, &measured, &QuTracerConfig::single());
        let before = fidelity_of(&report.global, &circ, &measured);
        let after = fidelity_of(&report.distribution, &circ, &measured);
        assert!(
            after > before + 0.01,
            "QuTracer should improve fidelity: {before} -> {after}"
        );
        assert!(report.skipped.is_empty());
    }

    #[test]
    fn qutracer_chains_multiple_layers() {
        // Multi-layer tracing pays off in the paper's regime: substantial
        // measurement error with crosstalk (the global run measures all
        // qubits at once, the subset circuits only one).
        let circ = vqe_ansatz(5, 2, 2);
        let measured: Vec<usize> = (0..5).collect();
        let noise = NoiseModel::depolarizing(0.002, 0.015)
            .with_readout_model(ReadoutModel::with_crosstalk(0.03, 0.025));
        let exec = Executor::with_backend(noise, Backend::DensityMatrix);
        let report = run_qutracer(&exec, &circ, &measured, &QuTracerConfig::single());
        let before = fidelity_of(&report.global, &circ, &measured);
        let after = fidelity_of(&report.distribution, &circ, &measured);
        assert!(after > before + 0.02, "{before} -> {after}");
        // Each traced qubit should have run mitigation circuits.
        assert!(report.subset_stats.iter().all(|s| s.n_circuits > 0));
    }

    #[test]
    fn repeated_entangling_layers_coalesce_into_one_check() {
        // Fig. 8's CNOT-depth sweep repeats the CZ chain back to back; with
        // no subset-local rotations in between the whole block is a single
        // check segment, so QuTracer's cost does not grow with depth.
        let n = 4;
        let mut circ = Circuit::new(n);
        for q in 0..n {
            circ.ry(q, 0.4 + q as f64 * 0.2);
        }
        for _rep in 0..5 {
            for q in 0..n - 1 {
                circ.cz(q, q + 1);
            }
        }
        for q in 0..n {
            circ.ry(q, 0.3);
        }
        let segs = qt_circuit::passes::split_into_segments(&circ, &[1]).unwrap();
        let checks = segs.iter().filter(|s| s.check_touches(&[1])).count();
        assert_eq!(checks, 1, "CZ repetitions must merge into one check");
        // And the noiseless trace is exact (first cut is a product state).
        let exec = Executor::with_backend(NoiseModel::ideal(), Backend::DensityMatrix);
        let measured: Vec<usize> = (0..n).collect();
        let report = run_qutracer(&exec, &circ, &measured, &QuTracerConfig::single());
        let f = fidelity_of(&report.distribution, &circ, &measured);
        assert!(f > 1.0 - 1e-6, "deep single-layer fidelity {f}");
    }

    #[test]
    fn more_checked_layers_help_more() {
        // Fig. 9's trend on a small QAOA instance.
        let n = 4;
        let circ = qaoa_maxcut(n, &ring_graph(n), &QaoaParams::seeded(2, 3));
        let measured: Vec<usize> = (0..n).collect();
        let noise = NoiseModel::depolarizing(0.004, 0.04).with_readout(0.05);
        let exec = Executor::with_backend(noise, Backend::DensityMatrix);
        let mut fidelities = Vec::new();
        for k in 0..=2 {
            let cfg = QuTracerConfig::pairs()
                .with_symmetric_subsets()
                .with_checked_layers(k);
            let report = run_qutracer(&exec, &circ, &measured, &cfg);
            fidelities.push(fidelity_of(&report.distribution, &circ, &measured));
        }
        assert!(
            fidelities[2] > fidelities[0],
            "checking all layers should beat checking none: {fidelities:?}"
        );
    }

    #[test]
    fn bv_gets_large_improvement() {
        // The paper's most dramatic row (Table II: 0.07 → 0.89).
        let circ = bernstein_vazirani(5, 0b10111);
        let measured: Vec<usize> = (0..5).collect();
        let noise = NoiseModel::depolarizing(0.003, 0.03)
            .with_readout_model(ReadoutModel::with_crosstalk(0.05, 0.02));
        let exec = Executor::with_backend(noise, Backend::DensityMatrix);
        let report = run_qutracer(&exec, &circ, &measured, &QuTracerConfig::single());
        let before = fidelity_of(&report.global, &circ, &measured);
        let after = fidelity_of(&report.distribution, &circ, &measured);
        assert!(after > 0.7, "BV should improve a lot: {before} -> {after}");
        assert!(after > before + 0.2);
    }

    #[test]
    fn noiseless_single_layer_is_exact() {
        // The first cut sits on a product state, so severing is exact and
        // the noiseless run must reproduce the ideal distribution.
        let circ = vqe_ansatz(4, 1, 5);
        let measured: Vec<usize> = (0..4).collect();
        let exec = Executor::with_backend(NoiseModel::ideal(), Backend::DensityMatrix);
        let report = run_qutracer(&exec, &circ, &measured, &QuTracerConfig::single());
        let f = fidelity_of(&report.distribution, &circ, &measured);
        assert!(f > 1.0 - 1e-6, "noiseless fidelity {f}");
    }

    #[test]
    fn noiseless_multi_layer_stays_high_fidelity() {
        // Beyond the first layer the cut states are entangled with the rest
        // of the register; tracing with local information only (the paper's
        // regime) is an approximation, so noiseless multi-layer runs are
        // close to — but not exactly — ideal.
        let circ = vqe_ansatz(4, 2, 5);
        let measured: Vec<usize> = (0..4).collect();
        let exec = Executor::with_backend(NoiseModel::ideal(), Backend::DensityMatrix);
        let report = run_qutracer(&exec, &circ, &measured, &QuTracerConfig::single());
        let f = fidelity_of(&report.distribution, &circ, &measured);
        assert!(f > 0.9, "noiseless multi-layer fidelity {f}");
    }

    #[test]
    fn traceback_reduces_circuit_count_without_hurting() {
        let circ = vqe_ansatz(4, 2, 6);
        let measured: Vec<usize> = (0..4).collect();
        let noise = NoiseModel::depolarizing(0.002, 0.02).with_readout(0.03);
        let exec = Executor::with_backend(noise, Backend::DensityMatrix);
        let mut with_tb = QuTracerConfig::single();
        with_tb.trace.state_traceback = true;
        let mut without_tb = QuTracerConfig::single();
        without_tb.trace.state_traceback = false;
        let r1 = run_qutracer(&exec, &circ, &measured, &with_tb);
        let r2 = run_qutracer(&exec, &circ, &measured, &without_tb);
        assert!(
            r1.stats.n_circuits <= r2.stats.n_circuits,
            "traceback should not increase circuits"
        );
        let f1 = fidelity_of(&r1.distribution, &circ, &measured);
        let f2 = fidelity_of(&r2.distribution, &circ, &measured);
        assert!(
            (f1 - f2).abs() < 0.05,
            "traceback changed results: {f1} vs {f2}"
        );
    }
}
