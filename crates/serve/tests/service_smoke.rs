//! End-to-end smoke tests: a real server on an ephemeral port, real TCP
//! clients, and bit-for-bit comparison of every served report against an
//! in-process `run_qutracer` call with the same runner. Also drives the
//! engine directly (no batcher thread) to pin down admission control:
//! a full queue is a typed `Overloaded` rejection, never a hang.

use qt_algos::{qaoa_maxcut, ring_graph, QaoaParams};
use qt_circuit::Circuit;
use qt_core::{run_qutracer, QuTracer, QuTracerConfig, QuTracerReport, ShotPolicy};
use qt_dist::Distribution;
use qt_serve::{
    serve, ClientError, JobState, MitigationService, ServiceClient, ServiceConfig, ServiceError,
};
use qt_sim::{Backend, ChaosConfig, ChaosRunner, Executor, NoiseModel};
use std::time::{Duration, Instant};

fn runner() -> Executor {
    Executor::with_backend(
        NoiseModel::depolarizing(0.001, 0.01).with_readout(0.02),
        Backend::DensityMatrix,
    )
}

fn assert_dist_identical(a: &Distribution, b: &Distribution, what: &str) {
    let xs: Vec<(u64, u64)> = a.iter().map(|(i, p)| (i, p.to_bits())).collect();
    let ys: Vec<(u64, u64)> = b.iter().map(|(i, p)| (i, p.to_bits())).collect();
    assert_eq!(xs, ys, "{what}: served result is not bit-identical");
}

fn assert_report_identical(served: &QuTracerReport, local: &QuTracerReport) {
    assert_dist_identical(&served.distribution, &local.distribution, "distribution");
    assert_dist_identical(&served.global, &local.global, "global");
    assert_eq!(served.locals.len(), local.locals.len());
    for (i, ((da, pa), (db, pb))) in served.locals.iter().zip(&local.locals).enumerate() {
        assert_eq!(pa, pb, "locals[{i}] positions");
        assert_dist_identical(da, db, &format!("locals[{i}]"));
    }
    assert_eq!(served.stats.n_circuits, local.stats.n_circuits);
    assert_eq!(served.stats.engine_mix, local.stats.engine_mix);
}

/// Two prefix-sharing QAOA variants (same mixer structure, different
/// parameters), submitted concurrently from two client threads, batched
/// into one cross-request trie — both responses must be bit-for-bit
/// equal to one-shot pipeline calls.
#[test]
fn concurrent_prefix_sharing_jobs_are_served_bit_identically() {
    let n = 4;
    let edges = ring_graph(n);
    let circuits: Vec<Circuit> = (0..2)
        .map(|v| qaoa_maxcut(n, &edges, &QaoaParams::seeded(1, v)))
        .collect();
    let measured: Vec<usize> = (0..n).collect();
    let cfg = QuTracerConfig::single();

    // A long deadline so both submissions land in the same batch.
    let service_cfg = ServiceConfig {
        batch_max_requests: 2,
        batch_deadline: Duration::from_millis(250),
        ..ServiceConfig::default()
    };
    let server = serve("127.0.0.1:0", runner(), service_cfg).expect("bind ephemeral port");
    let addr = server.addr();

    let served: Vec<QuTracerReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = circuits
            .iter()
            .map(|circuit| {
                let measured = &measured;
                let cfg = &cfg;
                scope.spawn(move || {
                    let client = ServiceClient::new(addr);
                    let job = client.submit(circuit, measured, cfg).expect("submit");
                    client
                        .wait_result(job, Duration::from_secs(120))
                        .expect("result")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let stats = server.service().stats();
    server.shutdown();

    let local_runner = runner();
    for (circuit, report) in circuits.iter().zip(&served) {
        let local = run_qutracer(&local_runner, circuit, &measured, &cfg);
        assert_report_identical(report, &local);
    }

    assert_eq!(stats.completed, 2);
    assert_eq!(stats.failed, 0);
    // Both requests went through the batcher; whether they shared one
    // batch depends on arrival timing, but the trie must have seen both.
    assert_eq!(stats.batched_requests, 2);
    assert!(
        stats.batch_trie.shared_gate_fraction() >= 0.0,
        "trie stats must be populated"
    );
}

/// Submitting the same circuit again must serve from the cache and still
/// be bit-identical — the cache can forget, it can never lie.
#[test]
fn repeat_submission_hits_cache_and_stays_bit_identical() {
    let edges = ring_graph(4);
    let circuit = qaoa_maxcut(4, &edges, &QaoaParams::seeded(1, 7));
    let measured = [0, 1, 2, 3];
    let cfg = QuTracerConfig::single();

    let server = serve("127.0.0.1:0", runner(), ServiceConfig::default()).expect("bind");
    let client = ServiceClient::new(server.addr());

    let first = {
        let job = client.submit(&circuit, &measured, &cfg).unwrap();
        client.wait_result(job, Duration::from_secs(120)).unwrap()
    };
    let second = {
        let job = client.submit(&circuit, &measured, &cfg).unwrap();
        client.wait_result(job, Duration::from_secs(120)).unwrap()
    };

    let cache = server.service().cache_stats();
    let stats = server.service().stats();
    server.shutdown();

    assert_report_identical(&second, &first);
    let local = run_qutracer(&runner(), &circuit, &measured, &cfg);
    assert_report_identical(&first, &local);

    assert!(cache.hits > 0, "second submission produced no cache hits");
    assert_eq!(stats.completed, 2);
    assert!(
        stats.executed_jobs < 2 * stats.distinct_jobs.max(1),
        "repeat submission re-executed everything: {stats:?}"
    );
}

/// Admission control: with no batcher draining, a capacity-1 queue
/// rejects the second submission with a typed `Overloaded` — it must
/// never block the caller.
#[test]
fn full_queue_rejects_with_typed_overloaded() {
    let mut c = Circuit::new(2);
    c.h(0).cx(0, 1);
    let cfg = QuTracerConfig::single();

    let service = MitigationService::new(
        runner(),
        ServiceConfig {
            queue_capacity: 1,
            ..ServiceConfig::default()
        },
    );
    // No spawn_batcher(): the queue fills and stays full.
    service.submit(&c, &[0, 1], &cfg).expect("first admission");
    let err = service
        .submit(&c, &[0, 1], &cfg)
        .expect_err("second submission must be rejected");
    match err {
        ServiceError::Overloaded { capacity } => assert_eq!(capacity, 1),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let stats = service.stats();
    assert_eq!(stats.submitted, 1);
    assert_eq!(stats.rejected, 1);

    // After shutdown, admission reports ShuttingDown instead.
    service.shutdown();
    match service.submit(&c, &[0, 1], &cfg) {
        Err(ServiceError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
}

/// Planning failures surface as typed 4xx-mapped errors at submit time
/// (not as a queued job that later fails).
#[test]
fn plan_errors_are_rejected_at_submission() {
    let mut c = Circuit::new(3);
    c.h(0);
    let service = MitigationService::new(runner(), ServiceConfig::default());
    // Pair tracing needs at least 2 measured qubits.
    let cfg = QuTracerConfig {
        subset_size: 2,
        ..QuTracerConfig::default()
    };
    let err = service.submit(&c, &[0], &cfg).expect_err("plan must fail");
    assert!(
        matches!(err, ServiceError::Plan(_)),
        "expected Plan error, got {err:?}"
    );
    // A measured qubit outside the register, or listed twice, under
    // either subset size.
    let vqe = qt_algos::vqe_ansatz(4, 1, 1);
    for cfg in [QuTracerConfig::single(), QuTracerConfig::pairs()] {
        for measured in [[0, 9], [1, 1]] {
            let err = service
                .submit(&vqe, &measured, &cfg)
                .expect_err("plan must fail");
            assert!(
                matches!(err, ServiceError::Plan(_)),
                "{measured:?}: expected Plan error, got {err:?}"
            );
        }
    }
    assert_eq!(service.stats().submitted, 0);
    service.shutdown();
}

/// Shutdown landing mid-batch: the in-flight request completes with a
/// report bit-identical to a fault-free run, the still-queued request
/// fails with a typed `ShuttingDown`, and `wait_result` never hangs on
/// either — the drain-shutdown contract. The in-flight request is an
/// exact one, then a two-round adaptive session: a session finishes in
/// the batch that executes its jobs, so both of its rounds complete.
#[test]
fn shutdown_mid_batch_completes_in_flight_and_fails_queued_typed() {
    let edges = ring_graph(3);
    let circuit = qaoa_maxcut(3, &edges, &QaoaParams::seeded(5, 1));
    let measured = [0, 1, 2];
    let cfg = QuTracerConfig::single();
    let policy = ShotPolicy::Adaptive {
        pilot_fraction: 0.5,
    };
    let (total, seed) = (20_000usize, 9u64);

    for sampled in [false, true] {
        // Latency-only chaos: every batch stalls ~300 ms inside the
        // runner, giving shutdown a wide window to land while job A is in
        // flight. Latency never changes results, so A must still be
        // bit-identical.
        let chaos = ChaosRunner::new(
            runner(),
            ChaosConfig {
                seed: 11,
                latency_rate: 1.0,
                latency_millis: 300,
                ..ChaosConfig::default()
            },
        );
        let service = MitigationService::new(
            chaos,
            ServiceConfig {
                batch_max_requests: 1,
                batch_deadline: Duration::from_millis(1),
                ..ServiceConfig::default()
            },
        );
        let batcher = service.spawn_batcher();

        let job_a = if sampled {
            service.submit_sampled(&circuit, &measured, &cfg, total, policy, seed)
        } else {
            service.submit(&circuit, &measured, &cfg)
        }
        .expect("submit A");
        // Wait until the batcher has picked A up — from then on it is
        // in-flight work that shutdown must let finish.
        let pickup = Instant::now();
        while !matches!(
            service.status(job_a),
            Ok(JobState::Running(_) | JobState::Done(_))
        ) {
            assert!(
                pickup.elapsed() < Duration::from_secs(30),
                "job A was never picked up"
            );
            std::thread::sleep(Duration::from_micros(200));
        }

        let job_b = service.submit(&circuit, &measured, &cfg).expect("submit B");
        service.shutdown();

        // B was still queued: typed ShuttingDown, delivered without a hang.
        match service.wait_result(job_b, Duration::from_secs(30)) {
            Err(ServiceError::ShuttingDown) => {}
            other => panic!("queued job B should fail ShuttingDown, got {other:?}"),
        }
        // A was in flight: it completes, and the report is exact.
        let served = service
            .wait_result(job_a, Duration::from_secs(120))
            .unwrap_or_else(|e| {
                panic!("in-flight job A (sampled: {sampled}) must complete across shutdown: {e:?}")
            });
        let local = if sampled {
            QuTracer::plan(&circuit, &measured, &cfg)
                .unwrap()
                .run_sampled(&runner(), total, policy, seed)
                .unwrap()
        } else {
            run_qutracer(&runner(), &circuit, &measured, &cfg)
        };
        assert_report_identical(&served, &local);
        assert_eq!(served.stats.round_shots, local.stats.round_shots);

        batcher
            .join()
            .expect("batcher exits cleanly after the drain");
        let stats = service.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 1);
    }
}

/// An adaptive two-round session served over HTTP must be bit-identical
/// to the same session run offline, including the per-round shot
/// accounting on the wire. The service executes the session's jobs once
/// and samples both rounds from them in the same batch pass — with the
/// result cache on or off.
#[test]
fn adaptive_session_is_served_bit_identical_to_offline() {
    let edges = ring_graph(4);
    let circuit = qaoa_maxcut(4, &edges, &QaoaParams::seeded(3, 2));
    let measured = [0, 1, 2, 3];
    let cfg = QuTracerConfig::single();
    let policy = ShotPolicy::Adaptive {
        pilot_fraction: 0.25,
    };
    let total = 40_000u64;
    let seed = 7u64;
    let plan = QuTracer::plan(&circuit, &measured, &cfg).unwrap();
    let local = plan
        .run_sampled(&runner(), total as usize, policy, seed)
        .unwrap();

    for cache_bytes in [ServiceConfig::default().cache_bytes, 0] {
        let service_cfg = ServiceConfig {
            cache_bytes,
            ..ServiceConfig::default()
        };
        let server = serve("127.0.0.1:0", runner(), service_cfg).expect("bind");
        let client = ServiceClient::new(server.addr());
        let job = client
            .submit_sampled(&circuit, &measured, &cfg, total, &policy, seed)
            .expect("submit session");
        let served = client.wait_result(job, Duration::from_secs(120)).unwrap();
        let stats = server.service().stats();
        server.shutdown();

        assert_report_identical(&served, &local);
        assert_eq!(served.stats.total_shots, local.stats.total_shots);
        assert_eq!(served.stats.round_shots, local.stats.round_shots);
        let rounds = served.stats.round_shots.as_ref().expect("round accounting");
        assert_eq!(rounds.len(), 2, "session must be genuinely two-round");
        assert_eq!(rounds.iter().sum::<u64>(), total);
        // Both rounds sample one execution: one batch, each job once.
        assert_eq!(stats.batches, 1, "cache_bytes {cache_bytes}: {stats:?}");
        assert_eq!(
            stats.executed_jobs,
            plan.batch_jobs().len() as u64,
            "cache_bytes {cache_bytes}: {stats:?}"
        );
    }
}

/// A sampled session with an unfundable budget (or malformed policy) is
/// rejected at submission with a typed error, not queued to fail later.
#[test]
fn sampled_submissions_validate_budget_and_policy_at_admission() {
    let edges = ring_graph(3);
    let circuit = qaoa_maxcut(3, &edges, &QaoaParams::seeded(4, 0));
    let measured = [0, 1, 2];
    let cfg = QuTracerConfig::single();
    let service = MitigationService::new(runner(), ServiceConfig::default());

    // Budget below the plan's 1-shot-per-program floor.
    let err = service
        .submit_sampled(&circuit, &measured, &cfg, 1, ShotPolicy::Uniform, 0)
        .expect_err("one shot cannot fund the floor");
    assert!(
        matches!(
            err,
            ServiceError::Exec(qt_core::ExecError::InsufficientShotBudget { .. })
        ),
        "got {err:?}"
    );

    // Malformed adaptive fraction.
    let err = service
        .submit_sampled(
            &circuit,
            &measured,
            &cfg,
            10_000,
            ShotPolicy::Adaptive {
                pilot_fraction: 1.5,
            },
            0,
        )
        .expect_err("pilot fraction outside [0, 1]");
    assert!(
        matches!(
            err,
            ServiceError::Exec(qt_core::ExecError::InvalidPilotFraction { .. })
        ),
        "got {err:?}"
    );
    assert_eq!(service.stats().submitted, 0);
    service.shutdown();
}

/// The HTTP shell maps unknown jobs and unplannable submissions to typed
/// errors.
#[test]
fn http_shell_maps_errors_to_statuses() {
    let server = serve("127.0.0.1:0", runner(), ServiceConfig::default()).expect("bind");
    let client = ServiceClient::new(server.addr());

    match client.result(999_999) {
        Err(e) => assert!(format!("{e}").contains("not_found"), "got: {e}"),
        Ok(r) => panic!("unknown job returned {r:?}"),
    }
    let vqe = qt_algos::vqe_ansatz(4, 1, 1);
    match client.submit(&vqe, &[0, 9], &QuTracerConfig::pairs()) {
        Err(ClientError::Server { status, kind, .. }) => {
            assert_eq!((status, kind.as_str()), (422, "plan_error"));
        }
        other => panic!("out-of-register measured qubit returned {other:?}"),
    }
    server.shutdown();
}
