//! Finite-shot batch execution contracts: sampled counts must be a pure
//! function of `(jobs, shot plan, seed)` — stable across repeated runs,
//! bit-identical between the trie-scheduled `Executor` batch and the
//! trait-default serial loop, and invariant to the sampler's worker-thread
//! count.

use qt_circuit::Circuit;
use qt_dist::Distribution;
use qt_sim::{
    sample_counts_deterministic, Backend, BatchJob, Executor, NoiseModel, Program, RunOutput,
    Runner, ShotPlan,
};

fn qaoa_like_jobs() -> Vec<BatchJob> {
    // Shared prefixes (h layer + entangler) with divergent suffixes, so
    // the trie path actually shares work, plus one duplicate program with
    // a different measured set.
    let mut jobs = Vec::new();
    for k in 0..10 {
        let mut c = Circuit::new(4);
        c.h(0).h(1).h(2).h(3).cz(0, 1).cz(1, 2).cz(2, 3);
        c.ry(k % 3, 0.2 + 0.1 * k as f64);
        jobs.push(BatchJob::new(Program::from_circuit(&c), vec![0, 1, 2, 3]));
    }
    let clone_of_first = jobs[0].program.clone();
    jobs.push(BatchJob::new(clone_of_first, vec![2, 0]));
    jobs
}

fn executor() -> Executor {
    Executor::with_backend(
        NoiseModel::depolarizing(0.003, 0.02).with_readout(0.02),
        Backend::DensityMatrix,
    )
}

/// A wrapper that deliberately exposes only `Runner::run`, so every batch
/// and sampling method exercises the trait's *default* implementations.
struct DefaultsOnly(Executor);

impl Runner for DefaultsOnly {
    fn run(&self, program: &Program, measured: &[usize]) -> RunOutput {
        self.0.run(program, measured)
    }
}

#[test]
fn sampled_batch_is_seed_stable_and_totals_the_plan() {
    let exec = executor();
    let jobs = qaoa_like_jobs();
    let plan = ShotPlan::from_shots((0..jobs.len()).map(|i| 1000 + 17 * i).collect());
    let a = exec.run_batch_sampled(&jobs, &plan, 42);
    let b = exec.run_batch_sampled(&jobs, &plan, 42);
    assert_eq!(a, b, "same seed must reproduce every count");
    let c = exec.run_batch_sampled(&jobs, &plan, 43);
    assert_ne!(a, c, "different seeds should differ somewhere");
    for (i, out) in a.iter().enumerate() {
        assert_eq!(out.shots, plan.shots(i));
        assert_eq!(out.counts.shots(), plan.shots(i) as u64);
        assert_eq!(out.gates, jobs[i].program.gate_count());
    }
    assert_eq!(plan.total_shots(), a.iter().map(|o| o.shots as u64).sum());
}

#[test]
fn sampled_counts_are_identical_across_batch_policies_and_defaults() {
    let exec = executor();
    let jobs = qaoa_like_jobs();
    let plan = ShotPlan::uniform(jobs.len(), 5000);
    let trie = exec.run_batch_sampled(&jobs, &plan, 7);
    let defaults = DefaultsOnly(exec).run_batch_sampled(&jobs, &plan, 7);
    assert_eq!(trie, defaults, "trait-default path must agree bit-for-bit");
}

#[test]
fn sampler_is_invariant_to_worker_thread_count() {
    let dist = Distribution::try_from_probs(3, vec![0.05, 0.3, 0.15, 0.2, 0.1, 0.08, 0.07, 0.05])
        .expect("3-bit test distribution");
    // Multi-stream regime (>= 2^14 shots) and single-stream regime.
    for shots in [50_000usize, 300] {
        let one = sample_counts_deterministic(&dist, shots, 123, 1);
        let many = sample_counts_deterministic(&dist, shots, 123, 8);
        assert_eq!(one, many, "{shots} shots");
        assert_eq!(one.shots(), shots as u64);
    }
}

#[test]
fn empirical_frequencies_converge_to_the_noisy_distribution() {
    let exec = executor();
    let mut c = Circuit::new(3);
    c.h(0).cx(0, 1).ry(2, 0.4).cz(1, 2);
    let p = Program::from_circuit(&c);
    let exact = exec.run(&p, &[0, 1, 2]);
    let job = BatchJob::new(p, vec![0, 1, 2]);
    let sampled = exec.run_batch_sampled(&[job], &ShotPlan::uniform(1, 1 << 20), 5);
    let freq = sampled[0].to_run_output();
    for i in 0..8 {
        let (f, e) = (freq.dist.prob(i), exact.dist.prob(i));
        assert!((f - e).abs() < 5e-3, "frequency {f} vs exact {e}");
    }
}
