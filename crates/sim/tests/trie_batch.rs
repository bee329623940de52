//! Equivalence and degradation tests for the prefix-sharing batch
//! executor: trie-scheduled `run_batch` must be **bit-for-bit** identical
//! to the serial per-job loop across random batches — shared and disjoint
//! prefixes, every engine (density matrix, statevector, trajectory
//! streams, auto), every memory budget.

use proptest::prelude::*;
use qt_circuit::{Circuit, Gate};
use qt_math::states::PrepState;
use qt_sim::{
    Backend, BatchJob, Executor, NoiseModel, Program, RunOutput, Runner, TrajectoryConfig,
};

fn arb_gate(n: usize) -> impl Strategy<Value = (Gate, Vec<usize>)> {
    let q = 0..n;
    let q2 = (0..n, 0..n).prop_filter("distinct", |(a, b)| a != b);
    prop_oneof![
        q.clone().prop_map(|a| (Gate::H, vec![a])),
        q.clone().prop_map(|a| (Gate::T, vec![a])),
        (q.clone(), -3.0..3.0f64).prop_map(|(a, t)| (Gate::Ry(t), vec![a])),
        (q.clone(), -3.0..3.0f64).prop_map(|(a, t)| (Gate::Rz(t), vec![a])),
        q2.clone().prop_map(|(a, b)| (Gate::Cx, vec![a, b])),
        q2.clone().prop_map(|(a, b)| (Gate::Cz, vec![a, b])),
        (q2, -3.0..3.0f64).prop_map(|((a, b), t)| (Gate::Cp(t), vec![a, b])),
    ]
}

/// A batch mixing prefix-sharing families and disjoint programs: a shared
/// prefix circuit, per-job suffixes (sometimes with a mid-circuit reset),
/// plus unrelated jobs, over subset sizes 1–2.
fn arb_batch(n: usize) -> impl Strategy<Value = Vec<BatchJob>> {
    let prefix = prop::collection::vec(arb_gate(n), 1..8);
    let suffixes = prop::collection::vec(
        (
            prop::collection::vec(arb_gate(n), 0..6),
            (0..2usize).prop_map(|x| x == 1),
            0..n,
            prop::collection::vec(0..n, 1..3),
        ),
        1..6,
    );
    let loners = prop::collection::vec(
        (
            prop::collection::vec(arb_gate(n), 1..8),
            prop::collection::vec(0..n, 1..3),
        ),
        0..3,
    );
    (prefix, suffixes, loners).prop_map(move |(prefix, suffixes, loners)| {
        let mut jobs = Vec::new();
        for (suffix, reset, reset_q, measured) in suffixes {
            let mut c = Circuit::new(n);
            for (g, qs) in &prefix {
                c.push(g.clone(), qs.clone());
            }
            let mut p = Program::from_circuit(&c);
            if reset {
                p.push_reset_state(&[reset_q], PrepState::Plus);
            }
            for (g, qs) in suffix {
                p.push_gate(qt_circuit::Instruction::new(g, qs));
            }
            let mut m = measured;
            m.dedup();
            jobs.push(BatchJob::new(p, m));
        }
        for (gates, measured) in loners {
            let mut c = Circuit::new(n);
            for (g, qs) in gates {
                c.push(g, qs);
            }
            let mut m = measured;
            m.dedup();
            jobs.push(BatchJob::new(Program::from_circuit(&c), m));
        }
        jobs
    })
}

/// Serial reference: the `Runner::run` loop.
fn serial(exec: &Executor, jobs: &[BatchJob]) -> Vec<RunOutput> {
    jobs.iter()
        .map(|j| exec.run(&j.program, &j.measured))
        .collect()
}

fn assert_identical(batched: &[RunOutput], reference: &[RunOutput]) {
    assert_eq!(batched.len(), reference.len());
    for (b, s) in batched.iter().zip(reference) {
        assert_eq!(b.gates, s.gates);
        assert_eq!(b.two_qubit_gates, s.two_qubit_gates);
        assert_eq!(b.dist, s.dist, "trie output differs from serial run");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Density-matrix engine: trie-scheduled batches equal the serial
    /// loop bit for bit, at the executor's derived checkpoint budget and
    /// at the tight budgets 1 and 2 of a direct trie walk.
    #[test]
    fn trie_matches_serial_on_density_matrix(jobs in arb_batch(4)) {
        use qt_sim::{ExecutionTrie, StateClass};
        use std::sync::Arc;

        let noise = NoiseModel::depolarizing(0.004, 0.03).with_readout(0.02);
        let exec = Executor::with_backend(noise.clone(), Backend::DensityMatrix);
        assert_identical(&exec.run_batch(&jobs), &serial(&exec, &jobs));

        let noise = Arc::new(noise);
        let programs: Vec<&Program> = jobs.iter().map(|j| &j.program).collect();
        let measured: Vec<Vec<usize>> = jobs.iter().map(|j| j.measured.clone()).collect();
        let reference: Vec<_> = jobs
            .iter()
            .map(|j| Some(StateClass::Density.run(&j.program, &noise, &j.measured)))
            .collect();
        let trie = ExecutionTrie::build(&programs);
        let init = move || StateClass::Density.zero(4, &noise);
        for budget in [1, 2] {
            let (dists, _) = trie.execute(&init, &measured, budget);
            assert_eq!(dists, reference, "budget {budget}");
        }
    }

    /// Statevector engine (pure fast path + DM fallback for resets):
    /// trie-scheduled batches equal the serial loop bit for bit.
    #[test]
    fn trie_matches_serial_on_statevector(jobs in arb_batch(4)) {
        let exec = Executor::with_backend(
            NoiseModel::ideal().with_readout(0.05),
            Backend::Statevector,
        );
        let reference = serial(&exec, &jobs);
        assert_identical(&exec.run_batch(&jobs), &reference);
    }

    /// Auto backend with a low DM threshold: part of the batch resolves to
    /// the trajectory engine, whose streams share the work pool with the
    /// trie subtrees, still bit identical to serial execution — also with
    /// fewer streams than workers, and for any standalone thread count.
    #[test]
    fn trie_matches_serial_with_trajectory_fallback(
        jobs in arb_batch(4),
        n_trajectories in prop::sample::select(vec![1usize, 3, 64]),
        n_threads in prop::sample::select(vec![None, Some(1usize), Some(3)]),
    ) {
        let exec = Executor::with_backend(
            NoiseModel::depolarizing(0.01, 0.04),
            Backend::Auto {
                dm_max_qubits: 2,
                trajectories: TrajectoryConfig {
                    n_trajectories,
                    seed: 11,
                    n_threads,
                },
            },
        );
        let reference = serial(&exec, &jobs);
        assert_identical(&exec.run_batch(&jobs), &reference);
    }
}

#[test]
fn pure_trajectory_backend_falls_back_per_job() {
    let exec = Executor::with_backend(
        NoiseModel::depolarizing(0.01, 0.05),
        Backend::Trajectory(TrajectoryConfig {
            n_trajectories: 500,
            seed: 3,
            n_threads: None,
        }),
    );
    let mut jobs = Vec::new();
    for k in 0..5 {
        let mut c = Circuit::new(3);
        c.h(0).ry(1, 0.2 * k as f64).cx(0, 1).cz(1, 2);
        jobs.push(BatchJob::new(Program::from_circuit(&c), vec![0, 1, 2]));
    }
    assert_identical(&exec.run_batch(&jobs), &serial(&exec, &jobs));
}

/// `max_live_states = 1` never holds a checkpoint: every branch point
/// re-simulates from the root instead of forking, and the results still
/// match the unconstrained walk exactly.
#[test]
fn max_live_states_one_degrades_to_replay() {
    use qt_sim::{ExecutionTrie, StateClass};
    use std::sync::Arc;

    // A 3-level fan-out so the walk has real branch points.
    let mut programs = Vec::new();
    for a in 0..3 {
        for b in 0..3 {
            let mut c = Circuit::new(3);
            c.h(0).cx(0, 1).ry(1, 0.3 * a as f64).rz(2, 0.5 * b as f64);
            programs.push(Program::from_circuit(&c));
        }
    }
    let refs: Vec<&Program> = programs.iter().collect();
    let trie = ExecutionTrie::build(&refs);
    let measured: Vec<Vec<usize>> = vec![vec![0, 1, 2]; programs.len()];
    let noise = Arc::new(NoiseModel::depolarizing(0.002, 0.01));
    let init = move || StateClass::Density.zero(3, &noise);

    let (free_dists, free) = trie.execute(&init, &measured, 64);
    let (one_dists, one) = trie.execute(&init, &measured, 1);
    assert_eq!(free_dists, one_dists, "budget must not change results");
    assert!(free.forks > 0, "unconstrained walk forks: {free:?}");
    assert_eq!(one.forks, 0, "budget 1 must never checkpoint: {one:?}");
    assert!(one.replays > 0, "budget 1 re-simulates branches: {one:?}");
}

/// Equal programs with different measured sets end on the same trie node
/// and share the entire evolution (a case plain job dedup cannot merge).
#[test]
fn different_measured_sets_share_one_evolution() {
    let mut c = Circuit::new(3);
    c.h(0).cx(0, 1).cz(1, 2).ry(2, 0.7);
    let p = Program::from_circuit(&c);
    let jobs = vec![
        BatchJob::new(p.clone(), vec![0]),
        BatchJob::new(p.clone(), vec![1, 2]),
        BatchJob::new(p.clone(), vec![2, 0, 1]),
    ];
    let exec = Executor::with_backend(
        NoiseModel::depolarizing(0.003, 0.02).with_readout(0.01),
        Backend::DensityMatrix,
    );
    assert_identical(&exec.run_batch(&jobs), &serial(&exec, &jobs));
}

#[test]
fn job_key_distinguishes_structure_and_caches() {
    let mut c1 = Circuit::new(2);
    c1.h(0).cx(0, 1);
    let mut c2 = Circuit::new(2);
    c2.h(0).cx(1, 0);
    let p1 = Program::from_circuit(&c1);
    let p2 = Program::from_circuit(&c2);
    assert_eq!(
        BatchJob::key_of(&p1, &[0, 1]),
        BatchJob::key_of(&p1.clone(), &[0, 1])
    );
    assert_ne!(
        BatchJob::key_of(&p1, &[0, 1]),
        BatchJob::key_of(&p2, &[0, 1])
    );
    assert_ne!(
        BatchJob::key_of(&p1, &[0, 1]),
        BatchJob::key_of(&p1, &[1, 0])
    );
    // Distinct gate parameters produce distinct keys.
    let mut a = Circuit::new(1);
    a.ry(0, 0.5);
    let mut b = Circuit::new(1);
    b.ry(0, 0.5000000000000001);
    assert_ne!(
        BatchJob::key_of(&Program::from_circuit(&a), &[0]),
        BatchJob::key_of(&Program::from_circuit(&b), &[0]),
    );
    // The cached key equals the recomputed one.
    let job = BatchJob::new(p1.clone(), vec![0, 1]);
    assert_eq!(job.dedup_key(), BatchJob::key_of(&p1, &[0, 1]));
    assert_eq!(job.dedup_key(), job.clone().dedup_key());
}
