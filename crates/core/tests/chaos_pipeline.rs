//! Chaos properties of the fallible pipeline: fault schedules are driven
//! through `plan → execute_fallible → recombine` (and through single- and
//! two-round sessions) and the invariant is checked at the report level —
//! every run terminates with a report **bit-identical** to the fault-free
//! run (when the fault budget is recoverable) or with a typed error /
//! typed degradation (when it is not). No fault schedule may escape as a
//! panic, and no fault is counted twice.

use proptest::prelude::*;
use qt_algos::{qaoa::QaoaParams, qaoa_maxcut, ring_graph, vqe_ansatz};
use qt_circuit::Circuit;
use qt_core::{
    ExecError, JobKind, MitigationSession, QuTracer, QuTracerConfig, QuTracerReport, RetryPolicy,
    ShotPolicy,
};
use qt_sim::{
    Backend, ChaosConfig, ChaosRunner, Executor, Fault, JobKey, NoiseModel, RunErrorKind,
};

fn executor() -> Executor {
    Executor::with_backend(
        NoiseModel::depolarizing(0.002, 0.02).with_readout(0.03),
        Backend::DensityMatrix,
    )
}

/// A random small paper workload (sizes the exact DM engine handles
/// instantly, so the chaos sweep stays cheap).
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

/// Base seed from the CI chaos matrix (`CHAOS_SEED`): mixed into every
/// injected schedule so each matrix entry explores a distinct — but still
/// deterministic and locally replayable — fault set.
fn chaos_base() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn matrix_seed(seed: u64) -> u64 {
    seed ^ chaos_base().wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Transient-only chaos whose worst case (`max_transient_attempts`
/// failures, then success) still fits inside `attempt_budget` total
/// attempts — every fault is recoverable by construction.
fn recoverable_chaos(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed: matrix_seed(seed),
        transient_rate: 0.35,
        corrupt_rate: 0.25,
        max_transient_attempts: 2,
        ..ChaosConfig::default()
    }
}

fn assert_reports_bit_identical(a: &QuTracerReport, b: &QuTracerReport, what: &str) {
    let xs: Vec<(u64, u64)> = a
        .distribution
        .iter()
        .map(|(i, p)| (i, p.to_bits()))
        .collect();
    let ys: Vec<(u64, u64)> = b
        .distribution
        .iter()
        .map(|(i, p)| (i, p.to_bits()))
        .collect();
    assert_eq!(xs, ys, "{what}: refined distribution diverged");
    assert_eq!(a.locals.len(), b.locals.len(), "{what}: locals count");
    for (i, ((da, pa), (db, pb))) in a.locals.iter().zip(&b.locals).enumerate() {
        assert_eq!(pa, pb, "{what}: locals[{i}] positions");
        let la: Vec<(u64, u64)> = da.iter().map(|(j, p)| (j, p.to_bits())).collect();
        let lb: Vec<(u64, u64)> = db.iter().map(|(j, p)| (j, p.to_bits())).collect();
        assert_eq!(la, lb, "{what}: locals[{i}] diverged");
    }
}

/// The key of some planned job tagged (resp. not tagged) with the global
/// run — targets for surgical fault injection.
fn job_key(plan: &qt_core::MitigationPlan, global: bool) -> Option<(usize, JobKey)> {
    plan.programs()
        .enumerate()
        .find(|(_, (_, tags))| tags.iter().any(|t| t.kind == JobKind::Global) == global)
        .map(|(slot, (job, _))| (slot, job.dedup_key()))
}

/// Runs one session fault-free and once under recoverable chaos and
/// checks the reports agree bit for bit, shot totals and round ledger
/// included.
fn assert_recoverable_session_chaos(
    circ: &Circuit,
    measured: &[usize],
    cfg: &QuTracerConfig,
    chaos_seed: u64,
    sample_seed: u64,
    policy: ShotPolicy,
) {
    let plan = QuTracer::plan(circ, measured, cfg).expect("plannable workload");
    let total = 512 * plan.n_programs();
    let clean = plan
        .run_sampled(&executor(), total, policy, sample_seed)
        .expect("fault-free session");

    let chaos = ChaosRunner::new(executor(), recoverable_chaos(chaos_seed));
    let report = MitigationSession::new(&plan, policy, total, sample_seed)
        .expect("valid session")
        .run_fallible(&chaos, &RetryPolicy::immediate(3))
        .expect("recoverable chaos must still recombine");

    assert_reports_bit_identical(&report, &clean, "recoverable session chaos");
    assert_eq!(report.stats.total_shots, clean.stats.total_shots);
    assert_eq!(report.stats.round_shots, clean.stats.round_shots);
    let failures = report
        .stats
        .failures
        .expect("fallible sessions record failures");
    assert_eq!(failures.failed_jobs, 0, "all faults were recoverable");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline invariant: transient and corrupt-output faults that
    /// recover within the retry budget leave the report **bit-identical**
    /// to the fault-free run — retries are invisible in the data, visible
    /// only in the failure counters.
    #[test]
    fn recoverable_chaos_is_bit_identical_to_fault_free(
        (circ, measured, cfg) in arb_workload(),
        chaos_seed in 1u64..500,
    ) {
        let plan = QuTracer::plan(&circ, &measured, &cfg).expect("plannable workload");
        let clean = plan
            .execute(&executor())
            .expect("fault-free execution")
            .recombine()
            .expect("fault-free recombination");

        let chaos = ChaosRunner::new(executor(), recoverable_chaos(chaos_seed));
        // Budget: 1 first attempt + max_transient_attempts retries.
        let report = plan
            .execute_fallible(&chaos, &RetryPolicy::immediate(3))
            .expect("fallible execution")
            .recombine()
            .expect("recoverable chaos must still recombine");

        assert_reports_bit_identical(&report, &clean, "recoverable chaos");
        let failures = report.stats.failures.expect("fallible path records failures");
        prop_assert_eq!(failures.failed_jobs, 0, "all faults were recoverable");
        prop_assert_eq!(failures.voided_subsets, 0);
        let injected = chaos.injected();
        prop_assert!(
            failures.retries >= injected.transient_errors.min(1),
            "injected transients must show up as retries: {failures:?} vs {injected:?}"
        );
    }

    /// The sampled twin: a single-round session re-samples retried jobs
    /// from their original submission-index seeds, so recovered chaos
    /// leaves the finite-shot report bit-identical too.
    #[test]
    fn recoverable_chaos_sampled_is_bit_identical(
        (circ, measured, cfg) in arb_workload(),
        chaos_seed in 1u64..500,
        sample_seed in 0u64..1000,
    ) {
        assert_recoverable_session_chaos(
            &circ, &measured, &cfg, chaos_seed, sample_seed, ShotPolicy::Uniform,
        );
    }

    /// The two-round twin: an adaptive session executes its batch once,
    /// re-executes only transient failures before round 2, and samples
    /// both rounds from the recovered outputs — so recoverable chaos
    /// leaves the report bit-identical to the fault-free `run_sampled`,
    /// round ledger included.
    #[test]
    fn recoverable_chaos_adaptive_session_is_bit_identical(
        (circ, measured, cfg) in arb_workload(),
        chaos_seed in 1u64..500,
        sample_seed in 0u64..1000,
    ) {
        assert_recoverable_session_chaos(
            &circ,
            &measured,
            &cfg,
            chaos_seed,
            sample_seed,
            ShotPolicy::Adaptive { pilot_fraction: 0.5 },
        );
    }

    /// Determinism of the whole failure domain: the same fault seed
    /// replayed against a fresh chaos runner produces the same outcome —
    /// bit-identical reports on success, equal typed errors on failure.
    /// (This is what makes chaos failures debuggable: rerun the seed.)
    #[test]
    fn chaos_outcomes_reproduce_bit_identically_across_reruns(
        (circ, measured, cfg) in arb_workload(),
        chaos_seed in 1u64..500,
    ) {
        let plan = QuTracer::plan(&circ, &measured, &cfg).expect("plannable workload");
        // Unrecoverable mix on purpose: fatals and panics included.
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
            plan.execute_fallible(&chaos, &RetryPolicy::immediate(2))
                .and_then(|artifacts| artifacts.recombine())
        };
        match (outcome(()), outcome(())) {
            (Ok(a), Ok(b)) => {
                assert_reports_bit_identical(&a, &b, "chaos rerun");
                prop_assert_eq!(a.stats.failures, b.stats.failures);
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

/// A permanent fault on a *local-trace* job degrades gracefully: the
/// dependent subsets are voided (and counted), every other subset's
/// correction survives, and recombination still produces a report.
#[test]
fn permanent_local_fault_voids_only_dependent_subsets() {
    let circ = qaoa_maxcut(5, &ring_graph(5), &QaoaParams::seeded(1, 3));
    let measured: Vec<usize> = (0..5).collect();
    let cfg = QuTracerConfig::pairs().with_symmetric_subsets();
    let plan = QuTracer::plan(&circ, &measured, &cfg).expect("plannable workload");
    let clean = plan
        .execute(&executor())
        .unwrap()
        .recombine()
        .expect("fault-free run");

    let (_, key) = job_key(&plan, false).expect("plan has local-trace jobs");
    let chaos = ChaosRunner::new(executor(), ChaosConfig::quiet(1)).with_fault(key, Fault::Fatal);
    let report = plan
        .execute_fallible(&chaos, &RetryPolicy::none())
        .expect("fallible execution")
        .recombine()
        .expect("a local fault must degrade, not fail");

    let failures = report.stats.failures.expect("failures recorded");
    assert!(failures.failed_jobs >= 1, "the fatal job is failed");
    assert!(failures.voided_subsets >= 1, "its subsets are voided");
    assert!(
        report.locals.len() < clean.locals.len(),
        "voided subsets must drop locals: {} vs {}",
        report.locals.len(),
        clean.locals.len()
    );
    assert!(
        (report.distribution.total() - 1.0).abs() < 1e-9,
        "degraded report is still a distribution"
    );
}

/// One fault counts once, however many rounds sample the batch: a
/// permanently failed local job, or a quarantined panic, reports the same
/// failure statistics under a two-round adaptive session as under a single
/// uniform round.
#[test]
fn two_round_sessions_count_each_failure_once() {
    let circ = qaoa_maxcut(5, &ring_graph(5), &QaoaParams::seeded(1, 3));
    let measured: Vec<usize> = (0..5).collect();
    let cfg = QuTracerConfig::pairs().with_symmetric_subsets();
    let plan = QuTracer::plan(&circ, &measured, &cfg).expect("plannable workload");
    let (_, key) = job_key(&plan, false).expect("plan has local-trace jobs");
    let total = 1024 * plan.n_programs();

    for fault in [Fault::Fatal, Fault::Panic] {
        let run = |policy: ShotPolicy| {
            let chaos = ChaosRunner::new(executor(), ChaosConfig::quiet(1)).with_fault(key, fault);
            MitigationSession::new(&plan, policy, total, 11)
                .and_then(|session| session.run_fallible(&chaos, &RetryPolicy::none()))
                .expect("a local fault must degrade, not fail")
        };
        let uniform = run(ShotPolicy::Uniform);
        let adaptive = run(ShotPolicy::Adaptive {
            pilot_fraction: 0.5,
        });
        assert_eq!(
            adaptive.stats.round_shots.as_ref().map(Vec::len),
            Some(2),
            "{fault:?}: the adaptive session runs two rounds"
        );
        let uniform = uniform.stats.failures.expect("failures recorded");
        let adaptive = adaptive.stats.failures.expect("failures recorded");
        assert_eq!(uniform.failed_jobs, 1, "{fault:?}: one failed job");
        let panics = u64::from(fault == Fault::Panic);
        assert_eq!(uniform.isolated_panics, panics, "{fault:?}: panics");
        assert_eq!(
            adaptive, uniform,
            "{fault:?}: adaptive vs uniform failure stats"
        );
    }
}

/// A job that fails transiently in the pilot, with no retry budget left,
/// executes again before round 2 and recovers: it is not a failed job and
/// voids nothing — only its pilot shots are missing from the report.
#[test]
fn a_transient_pilot_failure_recovers_in_round_two() {
    let circ = qaoa_maxcut(5, &ring_graph(5), &QaoaParams::seeded(1, 3));
    let measured: Vec<usize> = (0..5).collect();
    let cfg = QuTracerConfig::pairs().with_symmetric_subsets();
    let plan = QuTracer::plan(&circ, &measured, &cfg).expect("plannable workload");
    let (_, key) = job_key(&plan, false).expect("plan has local-trace jobs");
    let total = 1024 * plan.n_programs();
    let policy = ShotPolicy::Adaptive {
        pilot_fraction: 0.5,
    };
    let clean = plan
        .run_sampled(&executor(), total, policy, 11)
        .expect("fault-free session");

    let chaos = ChaosRunner::new(executor(), ChaosConfig::quiet(1))
        .with_fault(key, Fault::Transient { attempts: 1 });
    let report = MitigationSession::new(&plan, policy, total, 11)
        .and_then(|session| session.run_fallible(&chaos, &RetryPolicy::none()))
        .expect("a recovered job must not fail the session");

    assert_eq!(chaos.injected().transient_errors, 1, "one failed attempt");
    let failures = report.stats.failures.expect("failures recorded");
    assert_eq!(failures.failed_jobs, 0, "the job recovered in round 2");
    assert_eq!(failures.voided_subsets, 0);
    assert_eq!(report.locals.len(), clean.locals.len(), "nothing voided");
    assert!(
        report.stats.total_shots < clean.stats.total_shots,
        "the failed pilot's shots are missing: {:?} vs {:?}",
        report.stats.total_shots,
        clean.stats.total_shots
    );
}

/// A permanent fault on the *global* run is unrecoverable: recombination
/// fails with a typed `JobFailed` naming the global slot — never a panic,
/// never a silent wrong answer.
#[test]
fn global_fault_is_a_typed_job_failure() {
    let circ = vqe_ansatz(4, 2, 9);
    let measured: Vec<usize> = (0..4).collect();
    let plan = QuTracer::plan(&circ, &measured, &QuTracerConfig::single()).unwrap();
    let (global_slot, key) = job_key(&plan, true).expect("plan has a global job");

    let chaos = ChaosRunner::new(executor(), ChaosConfig::quiet(2)).with_fault(key, Fault::Fatal);
    let err = plan
        .execute_fallible(&chaos, &RetryPolicy::none())
        .expect("fallible execution itself succeeds")
        .recombine()
        .expect_err("losing the global run must be a typed failure");
    match err {
        ExecError::JobFailed { slot, error } => {
            assert_eq!(slot, global_slot, "the failure names the global slot");
            assert_eq!(error.kind, RunErrorKind::Backend);
            assert!(!error.transient);
        }
        other => panic!("expected JobFailed, got {other:?}"),
    }
}

/// A panicking job is quarantined by batch bisection: the panic never
/// escapes `execute_fallible`, the job fails typed as a panic, and the
/// rest of the batch degrades normally.
#[test]
fn panic_fault_is_quarantined_not_propagated() {
    let circ = qaoa_maxcut(4, &ring_graph(4), &QaoaParams::seeded(2, 7));
    let measured: Vec<usize> = (0..4).collect();
    let cfg = QuTracerConfig::pairs();
    let plan = QuTracer::plan(&circ, &measured, &cfg).unwrap();
    let (_, key) = job_key(&plan, false).expect("plan has local-trace jobs");

    let chaos = ChaosRunner::new(executor(), ChaosConfig::quiet(3)).with_fault(key, Fault::Panic);
    let artifacts = plan
        .execute_fallible(&chaos, &RetryPolicy::immediate(3))
        .expect("the panic must not unwind out of execute_fallible");
    let failed: Vec<_> = artifacts
        .slot_failures()
        .expect("fallible path records per-slot failures")
        .iter()
        .flatten()
        .collect();
    assert_eq!(failed.len(), 1, "exactly the panicking job failed");
    assert_eq!(failed[0].kind, RunErrorKind::Panic);
    assert!(!failed[0].transient, "panics are never retried");
    let stats = artifacts.failure_stats().unwrap();
    assert_eq!(stats.isolated_panics, 1);
    assert!(
        artifacts.recombine().is_ok(),
        "a quarantined local panic degrades instead of failing"
    );
}
