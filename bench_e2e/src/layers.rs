//! The per-layer metric table of the traced runs.

use crate::util::{ms_since, Outcome};
use std::collections::BTreeMap;
use std::time::Instant;

/// Engine names as `Executor::engine_mix_of` reports them.
pub const ENGINES: [&str; 5] = [
    "density-matrix",
    "trajectory",
    "stabilizer",
    "sparse-statevector",
    "statevector",
];

/// Spans inside the traced pipeline wall that are reported as metrics
/// (every span there, `core.next_round_ms` and `core.absorb_ms` too,
/// counts toward `trace.coverage`).
pub const PIPE_SPANS: [&str; 6] = [
    "core.plan_ms",
    "core.batch_jobs_ms",
    "sim.engine_mix_ms",
    "sim.run_batch_ms",
    "core.scatter_ms",
    "core.recombine_ms",
];

/// Spans measured beside the pipeline, outside its wall, or derived from
/// both.
pub const EXTRA_SPANS: [&str; 7] = [
    "sim.global_ms",
    "sim.subset_ms",
    "sim.co_schedule_ms",
    "sim.sample_ms",
    "sim.trie_build_ms",
    "sim.readout_ms",
    "dist.bayesian_update_ms",
];

/// Every per-layer metric, in output order, with its unit. Must match
/// `per_layer` in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("core.plan_ms", "ms"),
    ("core.plan_programs", "count"),
    ("core.plan_requests", "count"),
    ("core.dedup_ratio", "ratio"),
    ("core.batch_jobs_ms", "ms"),
    ("core.scatter_ms", "ms"),
    ("core.recombine_ms", "ms"),
    ("core.session_rounds", "count"),
    ("core.round_run_batch_ms", "ms"),
    ("core.round2_rerun_share", "ratio"),
    ("sim.engine_mix_ms", "ms"),
    ("sim.run_batch_ms", "ms"),
    ("sim.global_ms", "ms"),
    ("sim.subset_ms", "ms"),
    ("sim.co_schedule_ms", "ms"),
    ("sim.trie_build_ms", "ms"),
    ("sim.trie_shared_gate_fraction", "ratio"),
    ("sim.trie_request_gates", "count"),
    ("sim.trie_unique_gates", "count"),
    ("sim.jobs.density-matrix", "count"),
    ("sim.jobs.trajectory", "count"),
    ("sim.jobs.stabilizer", "count"),
    ("sim.jobs.sparse-statevector", "count"),
    ("sim.jobs.statevector", "count"),
    ("sim.readout_ms", "ms"),
    ("sim.sample_ms", "ms"),
    ("sim.shots", "count"),
    ("dist.bayesian_update_ms", "ms"),
    ("dist.support_len", "count"),
    ("serve.submit_ms", "ms"),
    ("serve.queued_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.encode_ms", "ms"),
    ("serve.decode_ms", "ms"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.avg_batch_requests", "count"),
    ("serve.distinct_jobs", "count"),
    ("serve.executed_jobs", "count"),
    ("serve.rejected", "count"),
    ("serve.retries", "count"),
    ("serve.failed", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.coverage", "ratio"),
];

/// Named values of a traced run: the milliseconds charged to each span
/// of one mitigation, and the per-layer metrics built from them.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    /// Runs `f`, charging its wall time to `layer` (spans do not nest, so
    /// a span's duration is its layer's self time).
    pub fn time<T>(&mut self, layer: &str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(layer, ms_since(t));
        out
    }

    pub fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(name.to_string()).or_default() += v;
    }

    pub fn set(&mut self, name: &str, v: f64) {
        self.0.insert(name.to_string(), v);
    }

    /// The value of `name` (0 when it never ran).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Sum over all names.
    pub fn total(&self) -> f64 {
        self.0.values().sum()
    }

    /// The ratios derived from counts already recorded.
    pub fn derive_ratios(&mut self) {
        let programs = self.get("core.plan_programs");
        if programs > 0.0 {
            self.set(
                "core.dedup_ratio",
                self.get("core.plan_requests") / programs,
            );
        }
        let request = self.get("sim.trie_request_gates");
        if request > 0.0 {
            self.set(
                "sim.trie_shared_gate_fraction",
                1.0 - self.get("sim.trie_unique_gates") / request,
            );
        }
    }

    /// Pushes every per-layer metric onto `out`; one the run did not
    /// measure is a failed check, not a silent zero.
    pub fn emit(&self, out: &mut Outcome) {
        for (name, unit) in PER_LAYER {
            match self.0.get(name) {
                Some(&v) => out.push(name, v, unit),
                None => {
                    out.fail(format!("per-layer metric {name} was not measured"));
                    out.push(name, 0.0, unit);
                }
            }
        }
    }
}
