//! Chaos through a live server: fault schedules injected under real TCP
//! clients. The service-level invariant is the strong form of the chaos
//! contract — every request terminates with a report **bit-identical** to
//! the fault-free run or with a typed error, the process never dies, and
//! a panic quarantined to one request never fails a cohabiting healthy
//! one.

use qt_algos::{qaoa_maxcut, ring_graph, vqe_ansatz, QaoaParams};
use qt_core::{run_qutracer, JobKind, QuTracer, QuTracerConfig, QuTracerReport, ShotPolicy};
use qt_dist::Distribution;
use qt_serve::http::{read_message, response_status, write_request};
use qt_serve::{serve, ClientError, ServiceClient, ServiceConfig};
use qt_sim::{Backend, ChaosConfig, ChaosRunner, Executor, Fault, JobKey, NoiseModel, RetryPolicy};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn runner() -> Executor {
    Executor::with_backend(
        NoiseModel::depolarizing(0.001, 0.01).with_readout(0.02),
        Backend::DensityMatrix,
    )
}

/// Base seed from the CI chaos matrix (`CHAOS_SEED`): mixed into seeded
/// schedules so each matrix entry replays a distinct deterministic fault
/// set. Surgical per-job overrides and rate-1.0 schedules are unaffected.
fn matrix_seed(seed: u64) -> u64 {
    let base: u64 = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    seed ^ base.wrapping_mul(0x9e37_79b9_7f4a_7c15)
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
}

/// The dedup key of `circuit`'s global planned job — a fault target that
/// belongs to this request and (for structurally distinct circuits) to no
/// other.
fn global_job_key(
    circuit: &qt_circuit::Circuit,
    measured: &[usize],
    cfg: &QuTracerConfig,
) -> JobKey {
    let plan = QuTracer::plan(circuit, measured, cfg).expect("plannable");
    let key = plan
        .programs()
        .find(|(_, tags)| tags.iter().any(|t| t.kind == JobKind::Global))
        .map(|(job, _)| job.dedup_key())
        .expect("every plan has a global job");
    key
}

fn raw_get(addr: SocketAddr, path: &str) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_request(&mut stream, "GET", path, "").expect("write");
    let msg = read_message(&mut stream).expect("read");
    response_status(&msg).expect("status line")
}

/// A panic quarantined to one request's job must fail exactly that
/// request (typed 500, kind `exec_error`) while the healthy request
/// batched *with* it is served bit-identically — batch cohabitation never
/// spreads a panic.
#[test]
fn panic_in_one_request_never_fails_cohabiting_healthy_request() {
    let n = 4;
    let healthy = qaoa_maxcut(n, &ring_graph(n), &QaoaParams::seeded(1, 2));
    let doomed = vqe_ansatz(n, 2, 5);
    let measured: Vec<usize> = (0..n).collect();
    let cfg = QuTracerConfig::single();

    // Surgical chaos: only the doomed circuit's global job panics.
    let key = global_job_key(&doomed, &measured, &cfg);
    let chaos = ChaosRunner::new(runner(), ChaosConfig::quiet(7)).with_fault(key, Fault::Panic);

    let service_cfg = ServiceConfig {
        batch_max_requests: 2,
        // Wide drain window so both submissions share one batch.
        batch_deadline: Duration::from_millis(250),
        ..ServiceConfig::default()
    };
    let server = serve("127.0.0.1:0", chaos, service_cfg).expect("bind");
    let addr = server.addr();

    let (healthy_report, doomed_err) = std::thread::scope(|scope| {
        let h = {
            let (healthy, measured, cfg) = (&healthy, &measured, &cfg);
            scope.spawn(move || {
                let client = ServiceClient::new(addr);
                let job = client
                    .submit(healthy, measured, cfg)
                    .expect("submit healthy");
                client.wait_result(job, Duration::from_secs(120))
            })
        };
        let d = {
            let (doomed, measured, cfg) = (&doomed, &measured, &cfg);
            scope.spawn(move || {
                let client = ServiceClient::new(addr);
                let job = client.submit(doomed, measured, cfg).expect("submit doomed");
                client.wait_result(job, Duration::from_secs(120))
            })
        };
        (h.join().unwrap(), d.join().unwrap())
    });

    let stats = server.service().stats();
    server.shutdown();

    // The healthy cohabitant is bit-identical to a fault-free local run.
    let local = run_qutracer(&runner(), &healthy, &measured, &cfg);
    assert_report_identical(
        &healthy_report.expect("healthy request must be served"),
        &local,
    );

    // The doomed request failed typed — a 500 exec_error, not a hang, and
    // the panic itself is visible in the message.
    match doomed_err.expect_err("doomed request must fail") {
        ClientError::Server {
            status,
            kind,
            message,
        } => {
            assert_eq!(status, 500, "exec failures map to 500");
            assert_eq!(kind, "exec_error");
            assert!(
                message.contains("panic"),
                "failure names the panic: {message}"
            );
        }
        other => panic!("expected a typed server error, got {other:?}"),
    }

    assert_eq!(stats.completed, 1);
    assert_eq!(stats.failed, 1);
    assert!(
        stats.run_failures.isolated_panics >= 1,
        "panic was quarantined: {stats:?}"
    );
}

/// Transient chaos recovered inside the service's retry budget is
/// invisible in the data: every served report, exact or sampled, is
/// bit-identical to the fault-free run, and only the failure counters
/// betray the retries.
#[test]
fn transient_chaos_recovers_into_bit_identical_reports() {
    let n = 4;
    let circuits = [
        qaoa_maxcut(n, &ring_graph(n), &QaoaParams::seeded(1, 4)),
        vqe_ansatz(n, 1, 11),
    ];
    let measured: Vec<usize> = (0..n).collect();
    let cfg = QuTracerConfig::single();

    let chaos = ChaosRunner::new(
        runner(),
        ChaosConfig {
            seed: matrix_seed(13),
            transient_rate: 0.4,
            corrupt_rate: 0.3,
            max_transient_attempts: 2,
            ..ChaosConfig::default()
        },
    );
    let service_cfg = ServiceConfig {
        retry: RetryPolicy::immediate(3),
        ..ServiceConfig::default()
    };
    let server = serve("127.0.0.1:0", chaos, service_cfg).expect("bind");
    let client = ServiceClient::new(server.addr());

    let policy = ShotPolicy::Adaptive {
        pilot_fraction: 0.5,
    };
    let (total, seed) = (20_000u64, 5u64);
    for circuit in &circuits {
        // An exact request and an adaptive session of the same circuit,
        // submitted side by side.
        let job = client.submit(circuit, &measured, &cfg).expect("submit");
        let session = client
            .submit_sampled(circuit, &measured, &cfg, total, &policy, seed)
            .expect("submit session");
        let served = client
            .wait_result(job, Duration::from_secs(120))
            .expect("chaos within the retry budget must still serve");
        let local = run_qutracer(&runner(), circuit, &measured, &cfg);
        assert_report_identical(&served, &local);

        let served = client
            .wait_result(session, Duration::from_secs(120))
            .expect("chaos within the retry budget must still serve the session");
        let local = QuTracer::plan(circuit, &measured, &cfg)
            .expect("plannable")
            .run_sampled(&runner(), total as usize, policy, seed)
            .expect("fault-free session");
        assert_report_identical(&served, &local);
        assert_eq!(served.stats.round_shots, local.stats.round_shots);
    }

    let stats = server.service().stats();
    server.shutdown();
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.failed, 0);
}

/// A request that cannot be served inside the configured deadline fails
/// with a typed 504 (`deadline_exceeded`) — the client is released, never
/// left polling a zombie job.
#[test]
fn overdue_request_fails_with_typed_504() {
    let mut c = qt_circuit::Circuit::new(2);
    c.h(0).cx(0, 1);
    let cfg = QuTracerConfig::single();

    // Every batch stalls ~400 ms in the runner; the deadline is 40 ms.
    let chaos = ChaosRunner::new(
        runner(),
        ChaosConfig {
            seed: 3,
            latency_rate: 1.0,
            latency_millis: 400,
            ..ChaosConfig::default()
        },
    );
    let service_cfg = ServiceConfig {
        request_deadline: Some(Duration::from_millis(40)),
        ..ServiceConfig::default()
    };
    let server = serve("127.0.0.1:0", chaos, service_cfg).expect("bind");
    let client = ServiceClient::new(server.addr());

    let job = client.submit(&c, &[0, 1], &cfg).expect("submit");
    match client.wait_result(job, Duration::from_secs(60)) {
        Err(ClientError::Server { status, kind, .. }) => {
            assert_eq!(status, 504, "deadline maps to 504");
            assert_eq!(kind, "deadline_exceeded");
        }
        other => panic!("expected a typed 504, got {other:?}"),
    }
    let stats = server.service().stats();
    server.shutdown();
    assert_eq!(stats.deadline_expired, 1, "{stats:?}");
}

/// Liveness vs readiness: `/health` answers 200 as long as the process
/// lives, `/ready` flips to 503 the moment admission closes.
#[test]
fn health_stays_up_while_ready_flips_on_drain() {
    let server = serve("127.0.0.1:0", runner(), ServiceConfig::default()).expect("bind");
    let addr = server.addr();

    assert_eq!(raw_get(addr, "/health"), 200);
    assert_eq!(raw_get(addr, "/ready"), 200);

    // Begin draining (admission closes; the accept loop still answers).
    server.service().shutdown();
    assert_eq!(raw_get(addr, "/health"), 200, "liveness survives the drain");
    assert_eq!(raw_get(addr, "/ready"), 503, "readiness reports draining");

    server.shutdown();
}

/// The client's connect retry: against a dead address the budget is
/// spent and the typed `Unreachable` names the attempts — no hang, no
/// bare transport error.
#[test]
fn dead_server_yields_typed_unreachable_after_retry_budget() {
    // Bind-then-drop: the port is (almost surely) dead afterwards.
    let addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let client = ServiceClient::new(addr).with_connect_retry(3, Duration::from_millis(1));
    let mut c = qt_circuit::Circuit::new(2);
    c.h(0).cx(0, 1);
    match client.submit(&c, &[0, 1], &QuTracerConfig::single()) {
        Err(ClientError::Unreachable { attempts, .. }) => assert_eq!(attempts, 3),
        other => panic!("expected Unreachable, got {other:?}"),
    }
}
