//! Adaptive-session properties: the two-round pilot/Neyman schedule of
//! `ShotPolicy::Adaptive` must collapse to the single-round uniform
//! pipeline at the degenerate pilot fractions (bit-for-bit), produce the
//! same schedule and report regardless of seed replay, batch policy or
//! thread budget, execute its batch once and still equal a replay that
//! executes every round, converge to the uniform allocation when every
//! program has the same sampling dispersion, reject malformed rounds
//! typed, and degrade typed — never panic — when chaos hits the pilot
//! round.

use proptest::prelude::*;
use qt_algos::{qaoa::QaoaParams, qaoa_maxcut, ring_graph, vqe_ansatz};
use qt_circuit::Circuit;
use qt_core::{
    neyman_weights, ExecError, MitigationSession, MitigationStrategy, QuTracer, QuTracerConfig,
    QuTracerReport, RetryPolicy, RoundSpec, ShotPolicy,
};
use qt_dist::{Counts, Distribution};
use qt_sim::{
    Backend, BatchJob, BatchPolicy, ChaosConfig, ChaosRunner, Executor, NoiseModel, Program,
    RunOutput, Runner, ShotPlan,
};
use std::sync::atomic::{AtomicUsize, Ordering};

fn executor() -> Executor {
    Executor::with_backend(
        NoiseModel::depolarizing(0.002, 0.02).with_readout(0.03),
        Backend::DensityMatrix,
    )
}

/// A random small paper workload (sizes the exact DM engine handles
/// instantly, so the property sweep stays cheap).
fn arb_workload() -> impl Strategy<Value = (Circuit, Vec<usize>, QuTracerConfig)> {
    prop_oneof![
        (4usize..6, 1usize..3, 0u64..50).prop_map(|(n, layers, seed)| {
            (
                vqe_ansatz(n, layers, seed),
                (0..n).collect(),
                QuTracerConfig::single(),
            )
        }),
        (4usize..6, 1usize..3, 0u64..50).prop_map(|(n, p, seed)| {
            (
                qaoa_maxcut(n, &ring_graph(n), &QaoaParams::seeded(p, seed)),
                (0..n).collect(),
                QuTracerConfig::pairs().with_symmetric_subsets(),
            )
        }),
    ]
}

/// Base seed from the CI chaos matrix (`CHAOS_SEED`), mixed into the
/// fault schedules so each matrix entry explores different failures and
/// round-2 re-executions — deterministic and locally replayable.
fn matrix_seed(seed: u64) -> u64 {
    let base: u64 = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    seed ^ base.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// An [`Executor`] that counts the batches it executes.
struct CountingRunner {
    inner: Executor,
    batches: AtomicUsize,
}

impl Runner for CountingRunner {
    fn run(&self, program: &Program, measured: &[usize]) -> RunOutput {
        self.inner.run(program, measured)
    }

    fn run_batch(&self, jobs: &[BatchJob]) -> Vec<RunOutput> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.inner.run_batch(jobs)
    }

    fn engine_mix(&self, jobs: &[BatchJob]) -> Option<Vec<(String, usize)>> {
        self.inner.engine_mix(jobs)
    }
}

/// Every recorded bit of two reports: refined, global and local
/// distributions bitwise, and the overhead statistics (shot totals and the
/// per-round ledger included).
fn assert_reports_bit_identical(a: &QuTracerReport, b: &QuTracerReport, what: &str) {
    let bits =
        |d: &Distribution| -> Vec<(u64, u64)> { d.iter().map(|(i, p)| (i, p.to_bits())).collect() };
    assert_eq!(
        bits(&a.distribution),
        bits(&b.distribution),
        "{what}: refined"
    );
    assert_eq!(bits(&a.global), bits(&b.global), "{what}: global");
    assert_eq!(a.locals.len(), b.locals.len(), "{what}: locals count");
    for ((da, pa), (db, pb)) in a.locals.iter().zip(&b.locals) {
        assert_eq!(pa, pb, "{what}: local positions");
        assert_eq!(bits(da), bits(db), "{what}: local at {pa:?}");
    }
    assert_eq!(a.stats, b.stats, "{what}: overhead stats");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Degenerate pilot fractions are not "almost" the single-round
    /// pipeline — they ARE it. A pilot of 0 shots (pf=0) or a final round
    /// of 0 shots (pf=1) cannot fund two genuine rounds, so the session
    /// must fall back to the raw caller seed and reproduce the uniform
    /// single-round report bit-for-bit, with no per-round ledger.
    #[test]
    fn adaptive_pf_zero_and_one_are_bitwise_single_round(
        (circ, measured, cfg) in arb_workload(),
        seed in 0u64..1000,
    ) {
        let exec = executor();
        let plan = QuTracer::plan(&circ, &measured, &cfg).expect("plannable workload");
        let total = 2048 * plan.n_programs();

        // `run_sampled_reports_are_pinned` (tests/sampled_pipeline.rs) pins
        // the uniform single round itself.
        let uniform = plan
            .run_sampled(&exec, total, ShotPolicy::Uniform, seed)
            .expect("uniform single-round run");

        for pf in [0.0, 1.0] {
            let adaptive = plan
                .run_sampled(&exec, total, ShotPolicy::Adaptive { pilot_fraction: pf }, seed)
                .expect("degenerate adaptive run");
            assert_reports_bit_identical(&adaptive, &uniform, "degenerate adaptive vs uniform");
            prop_assert_eq!(
                adaptive.stats.round_shots.as_deref(),
                None,
                "a collapsed session must not report a round ledger (pf={})",
                pf
            );
        }
    }

    /// The adaptive schedule is a pure function of (plan, budget, seed):
    /// replaying the same seed reproduces the report bit-for-bit, and so
    /// does changing how the batch is *executed* — per-job fan-out versus
    /// trie sharing, full thread budget versus a single worker. Execution
    /// strategy must never leak into the pilot dispersions or the Neyman
    /// split.
    #[test]
    fn adaptive_schedule_is_seed_stable_and_thread_invariant(
        (circ, measured, cfg) in arb_workload(),
        seed in 0u64..1000,
    ) {
        let plan = QuTracer::plan(&circ, &measured, &cfg).expect("plannable workload");
        let total = 2048 * plan.n_programs();
        let policy = ShotPolicy::Adaptive { pilot_fraction: 0.25 };

        let baseline = plan
            .run_sampled(&executor(), total, policy, seed)
            .expect("adaptive run");
        let rounds = baseline
            .stats
            .round_shots
            .clone()
            .expect("a funded adaptive session runs two genuine rounds");
        prop_assert_eq!(rounds.len(), 2);
        prop_assert_eq!(rounds.iter().sum::<u64>(), total as u64);

        let replay = plan
            .run_sampled(&executor(), total, policy, seed)
            .expect("adaptive replay");
        assert_reports_bit_identical(&replay, &baseline, "seed replay");
        prop_assert_eq!(replay.stats.round_shots.as_deref(), Some(rounds.as_slice()));

        let per_job = executor()
            .with_batch_policy(BatchPolicy::PerJob)
            .expect("per-job policy is always valid");
        let via_per_job = plan
            .run_sampled(&per_job, total, policy, seed)
            .expect("adaptive run under per-job batching");
        assert_reports_bit_identical(&via_per_job, &baseline, "per-job batching");
        prop_assert_eq!(via_per_job.stats.round_shots.as_deref(), Some(rounds.as_slice()));

        let single_thread = Executor::with_backend(
            NoiseModel::depolarizing(0.002, 0.02).with_readout(0.03),
            Backend::DensityMatrix.with_thread_budget(1),
        );
        let via_one_thread = plan
            .run_sampled(&single_thread, total, policy, seed)
            .expect("adaptive run on one thread");
        assert_reports_bit_identical(&via_one_thread, &baseline, "single-thread budget");
        prop_assert_eq!(via_one_thread.stats.round_shots.as_deref(), Some(rounds.as_slice()));
    }

    /// Execute-once: a two-round session executes its batch a single time
    /// and samples both rounds from it, yet its report equals — bit for
    /// bit, round ledger included — a stepwise replay that executes every
    /// round (`next_round → run_batch_sampled → absorb_sampled`).
    #[test]
    fn a_two_round_session_executes_its_batch_once(
        (circ, measured, cfg) in arb_workload(),
        seed in 0u64..1000,
    ) {
        let plan = QuTracer::plan(&circ, &measured, &cfg).expect("plannable workload");
        let total = 2048 * plan.n_programs();
        let policy = ShotPolicy::Adaptive { pilot_fraction: 0.5 };

        let counting = CountingRunner { inner: executor(), batches: AtomicUsize::new(0) };
        let one_call = plan
            .run_sampled(&counting, total, policy, seed)
            .expect("adaptive run");
        prop_assert_eq!(
            one_call.stats.round_shots.as_ref().map(Vec::len),
            Some(2),
            "a funded adaptive session runs two genuine rounds"
        );
        prop_assert_eq!(counting.batches.load(Ordering::Relaxed), 1, "run_batch calls");

        let exec = executor();
        let mut session =
            MitigationSession::new(&plan, policy, total, seed).expect("valid session");
        session.set_engine_mix(exec.engine_mix(session.jobs()));
        while let Some(spec) = session.next_round() {
            let outputs = exec.run_batch_sampled(session.jobs(), &spec.shots, spec.seed);
            session.absorb_sampled(&spec, outputs).expect("well-formed round");
        }
        prop_assert_eq!(session.rounds_completed(), 2);
        let stepwise = session.finish().expect("stepwise recombination");
        assert_reports_bit_identical(&one_call, &stepwise, "one call vs per-round replay");
    }

    /// Neyman with nothing to exploit is uniform: when every pilot
    /// dispersion is the same, `neyman_weights` must hand back equal
    /// weights and the plan's budget allocator must reproduce the uniform
    /// apportionment exactly — same integer shot counts, same total.
    #[test]
    fn uniform_dispersions_collapse_neyman_to_uniform(
        (circ, measured, cfg) in arb_workload(),
        dispersion in 0.01f64..1.0,
        total in 100usize..100_000,
    ) {
        let plan = QuTracer::plan(&circ, &measured, &cfg).expect("plannable workload");
        let n = plan.n_jobs();

        let weights = neyman_weights(&vec![Some(dispersion); n]);
        prop_assert_eq!(weights.len(), n);
        for &w in &weights {
            prop_assert!(
                (w - weights[0]).abs() < 1e-12,
                "equal dispersions must yield equal weights: {:?}",
                weights
            );
        }

        let neyman = plan.allocate_budget(total, &weights);
        let uniform = plan.allocate_budget(total, &vec![1.0; n]);
        prop_assert_eq!(&neyman, &uniform, "equal-weight Neyman must equal uniform");
        prop_assert_eq!(neyman.iter().sum::<usize>(), total, "allocation must spend the budget exactly");
    }

    /// Chaos during an adaptive session — pilot round included — is
    /// absorbed by the fallible surface: the outcome is a (possibly
    /// degraded) report or a typed error, deterministic under seed replay,
    /// and never a panic. The pilot's variance estimates may be built from
    /// partial data; that must degrade the schedule, not the process.
    #[test]
    fn chaos_in_the_pilot_degrades_typed_and_never_panics(
        (circ, measured, cfg) in arb_workload(),
        seed in 0u64..500,
        chaos_seed in 1u64..500,
    ) {
        let plan = QuTracer::plan(&circ, &measured, &cfg).expect("plannable workload");
        let total = 1024 * plan.n_programs();
        // Unrecoverable mix on purpose: fatals and panics included, so
        // some schedules void pilot jobs and some kill the session.
        let config = ChaosConfig {
            seed: matrix_seed(chaos_seed),
            transient_rate: 0.3,
            fatal_rate: 0.15,
            panic_rate: 0.1,
            corrupt_rate: 0.15,
            max_transient_attempts: 2,
            ..ChaosConfig::default()
        };
        let outcome = |_: ()| {
            let chaos = ChaosRunner::new(executor(), config);
            MitigationSession::new(&plan, ShotPolicy::Adaptive { pilot_fraction: 0.25 }, total, seed)?
                .run_fallible(&chaos, &RetryPolicy::immediate(2))
        };
        match (outcome(()), outcome(())) {
            (Ok(a), Ok(b)) => {
                assert_reports_bit_identical(&a, &b, "chaotic adaptive rerun");
                // Voided jobs forfeit their shots, so degraded sessions may
                // record fewer than the budget — but never more.
                let spent = a.stats.total_shots.expect("sampled sessions record shots");
                prop_assert!(
                    spent <= total as u64,
                    "recorded shots {} exceed the {} budget",
                    spent,
                    total
                );
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b, "typed errors must replay identically"),
            (a, b) => prop_assert!(
                false,
                "same seed diverged into {:?} vs {:?}",
                a.map(|r| r.stats.failures),
                b.map(|r| r.stats.failures)
            ),
        }
    }
}

/// A malformed round is a typed error that leaves the tally untouched, so
/// the well-formed round absorbed afterwards still yields the one-call
/// report. Malformed means: outputs whose widths differ from their jobs'
/// (a typed [`ExecError::OutputWidthMismatch`] naming the job, on the
/// sampled and the exact absorb paths alike), counts holding other shots
/// than the round allocated, or a spec the session never issued — a
/// zero-shot job, another seed, or a round past the last one.
#[test]
fn a_width_mismatched_round_is_a_typed_error() {
    let circ = qaoa_maxcut(5, &ring_graph(5), &QaoaParams::seeded(1, 3));
    let measured: Vec<usize> = (0..5).collect();
    let cfg = QuTracerConfig::pairs().with_symmetric_subsets();
    let plan = QuTracer::plan(&circ, &measured, &cfg).expect("plannable workload");
    let exec = executor();
    let policy = ShotPolicy::Adaptive {
        pilot_fraction: 0.5,
    };
    let total = 1024 * plan.n_programs();
    let reference = plan
        .run_sampled(&exec, total, policy, 7)
        .expect("one-call run");

    let mut session = MitigationSession::new(&plan, policy, total, 7).expect("valid session");
    session.set_engine_mix(exec.engine_mix(session.jobs()));
    let pilot = session.next_round().expect("pilot round");
    let outputs = exec.run_batch_sampled(session.jobs(), &pilot.shots, pilot.seed);
    session
        .absorb_sampled(&pilot, outputs)
        .expect("pilot absorbs");

    let spec = session.next_round().expect("final round");
    let good = exec.run_batch_sampled(session.jobs(), &spec.shots, spec.seed);
    let widths: Vec<usize> = session.jobs().iter().map(|j| j.measured.len()).collect();

    let mut wide = good.clone();
    wide[0].counts = Counts::try_from_entries(widths[0] + 1, vec![(0, wide[0].counts.shots())])
        .expect("valid counts");
    let expected = (0, widths[0], widths[0] + 1);
    match session.absorb_sampled(&spec, wide) {
        Err(ExecError::OutputWidthMismatch {
            job,
            expected: e,
            got,
        }) => {
            assert_eq!((job, e, got), expected)
        }
        other => panic!("expected OutputWidthMismatch, got {other:?}"),
    }

    let last = widths.len() - 1;
    let mut exact = exec.run_batch(session.jobs());
    exact[last].dist =
        Distribution::try_from_entries(widths[last] + 1, vec![(0, 1.0)]).expect("valid dist");
    let expected = (last, widths[last], widths[last] + 1);
    match session.absorb_exact(&spec, &exact) {
        Err(ExecError::OutputWidthMismatch {
            job,
            expected: e,
            got,
        }) => {
            assert_eq!((job, e, got), expected)
        }
        other => panic!("expected OutputWidthMismatch, got {other:?}"),
    }

    let mut short = good.clone();
    short[last].counts = Counts::try_from_entries(widths[last], vec![(0, 1)]).expect("1 shot");
    match session.absorb_sampled(&spec, short) {
        Err(ExecError::PlanMismatch { detail }) => assert!(detail.contains("shots"), "{detail}"),
        other => panic!("expected PlanMismatch for a short output, got {other:?}"),
    }

    // Specs the session never issued: a zero-shot job (its empty counts
    // would normalize to a uniform "measurement") and another seed.
    let mut zero_shot = spec.clone();
    let mut per_job = zero_shot.shots.per_job().to_vec();
    per_job[0] = 0;
    zero_shot.shots = ShotPlan::from_shots(per_job);
    let zero_outputs = exec.run_batch_sampled(session.jobs(), &zero_shot.shots, zero_shot.seed);
    let reseeded = RoundSpec {
        seed: spec.seed ^ 1,
        ..spec.clone()
    };
    for (bad, outputs) in [(&zero_shot, zero_outputs), (&reseeded, good.clone())] {
        match session.absorb_sampled(bad, outputs) {
            Err(ExecError::PlanMismatch { .. }) => {}
            other => panic!("expected PlanMismatch for {bad:?}, got {other:?}"),
        }
    }
    match session.absorb_exact(&reseeded, &exec.run_batch(session.jobs())) {
        Err(ExecError::PlanMismatch { .. }) => {}
        other => panic!("expected PlanMismatch for a reseeded exact round, got {other:?}"),
    }

    assert_eq!(
        session.rounds_completed(),
        1,
        "rejected rounds are not absorbed"
    );
    session
        .absorb_sampled(&spec, good.clone())
        .expect("the well-formed round absorbs");

    // A round past the last one would count its shots twice.
    let extra = RoundSpec {
        round: session.rounds_completed(),
        ..spec.clone()
    };
    match session.absorb_sampled(&extra, good) {
        Err(ExecError::PlanMismatch { .. }) => {}
        other => panic!("expected PlanMismatch for an extra round, got {other:?}"),
    }
    assert_eq!(
        session.rounds_completed(),
        2,
        "the extra round is not absorbed"
    );
    let report = session.finish().expect("recombination");
    assert_reports_bit_identical(&report, &reference, "after rejected rounds");
}
