//! The job registry keeps the newest 1024 finished jobs: older finished
//! ids answer a typed 404 on `/status` and `/result`, retained ids keep
//! serving bit-identical reports, and queued jobs are never evicted
//! however many others finish around them.

use qt_circuit::Circuit;
use qt_core::{run_qutracer, QuTracer, QuTracerConfig, QuTracerReport, ShotPolicy};
use qt_serve::http::{read_message, response_status, write_request};
use qt_serve::json::Json;
use qt_serve::wire::{report_from_json, report_to_json};
use qt_serve::{serve, JobState, MitigationService, ServiceConfig, ServiceError};
use qt_sim::{Backend, Executor, NoiseModel};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Finished jobs the registry retains (the service's documented bound).
const RETAINED: usize = 1024;
/// Completions past the bound in each test.
const EXTRA: usize = 3;

fn runner() -> Executor {
    Executor::with_backend(
        NoiseModel::depolarizing(0.002, 0.02).with_readout(0.02),
        Backend::DensityMatrix,
    )
}

/// Four cheap circuits, cycled by submission index, so a lookup that
/// returned another job's entry would show up as a different report.
fn circuit(i: usize) -> Circuit {
    let mut c = Circuit::new(2);
    c.h(0).cx(0, 1).ry(1, 0.3 + 0.2 * (i % 4) as f64);
    c
}

const MEASURED: [usize; 2] = [0, 1];

/// The wire encoding of the offline report of each circuit variant: equal
/// strings mean bit-identical reports (the codec round-trips floats
/// exactly).
fn offline_reports() -> Vec<String> {
    (0..4)
        .map(|v| {
            wire(&run_qutracer(
                &runner(),
                &circuit(v),
                &MEASURED,
                &QuTracerConfig::single(),
            ))
        })
        .collect()
}

fn wire(report: &QuTracerReport) -> String {
    report_to_json(report).to_string()
}

/// One raw HTTP GET: the status code and the parsed body.
fn get(addr: SocketAddr, path: &str) -> (u16, Json) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_request(&mut stream, "GET", path, "").expect("send");
    let msg = read_message(&mut stream).expect("response");
    let status = response_status(&msg).expect("status line");
    (status, Json::parse(&msg.body).expect("JSON body"))
}

#[test]
fn oldest_finished_jobs_are_evicted_and_in_flight_jobs_survive() {
    let service = MitigationService::new(
        runner(),
        ServiceConfig {
            queue_capacity: 2 * RETAINED,
            batch_max_requests: 1,
            ..ServiceConfig::default()
        },
    );
    let cfg = QuTracerConfig::single();
    let policy = ShotPolicy::Adaptive {
        pilot_fraction: 0.5,
    };
    // A two-round session first, then the finishing jobs, then one job
    // that stays queued while they finish.
    let session = service
        .submit_sampled(&circuit(0), &MEASURED, &cfg, 20_000, policy, 3)
        .unwrap();
    let ids: Vec<u64> = (0..RETAINED + EXTRA)
        .map(|i| service.submit(&circuit(i), &MEASURED, &cfg).unwrap())
        .collect();
    let queued = service.submit(&circuit(1), &MEASURED, &cfg).unwrap();

    // The session finishes both rounds in its one batch, bit-identical to
    // an offline run; checked before the finishing jobs evict it.
    assert!(service.process_next_batch());
    let served = service.result(session).unwrap().expect("session done");
    let local = QuTracer::plan(&circuit(0), &MEASURED, &cfg)
        .unwrap()
        .run_sampled(&runner(), 20_000, policy, 3)
        .unwrap();
    assert_eq!(wire(&served), wire(&local));
    for _ in &ids {
        assert!(service.process_next_batch());
    }
    assert_eq!(
        service.status(session).unwrap_err(),
        ServiceError::NotFound { job: session }
    );
    assert!(matches!(service.status(queued), Ok(JobState::Queued(_))));

    let offline = offline_reports();
    for (i, &id) in ids.iter().enumerate() {
        if i < EXTRA {
            assert_eq!(
                service.status(id).unwrap_err(),
                ServiceError::NotFound { job: id }
            );
            assert_eq!(
                service.result(id).unwrap_err(),
                ServiceError::NotFound { job: id }
            );
            assert_eq!(
                service.wait_result(id, Duration::ZERO).unwrap_err(),
                ServiceError::NotFound { job: id }
            );
        } else {
            let report = service.result(id).unwrap().expect("retained job is done");
            assert_eq!(wire(&report), offline[i % 4], "job {id}");
        }
    }

    // The queued job still finishes, bit-identical to an offline run.
    assert!(service.process_next_batch());
    let served = service.result(queued).unwrap().expect("queued job done");
    assert_eq!(wire(&served), offline[1]);
    // Its completion pushed the next oldest out.
    assert_eq!(
        service.status(ids[EXTRA]).unwrap_err(),
        ServiceError::NotFound { job: ids[EXTRA] }
    );
    assert!(service.status(ids[EXTRA + 1]).is_ok());
    assert_eq!(service.stats().completed, (RETAINED + EXTRA + 2) as u64);
    service.shutdown();
}

#[test]
fn evicted_ids_answer_404_over_http() {
    let server = serve("127.0.0.1:0", runner(), ServiceConfig::default()).expect("bind");
    let service = server.service();
    let cfg = QuTracerConfig::single();
    let mut ids = Vec::new();
    for chunk in (0..RETAINED + EXTRA).collect::<Vec<_>>().chunks(32) {
        let submitted: Vec<u64> = chunk
            .iter()
            .map(|&i| service.submit(&circuit(i), &MEASURED, &cfg).unwrap())
            .collect();
        for &id in &submitted {
            service.wait_result(id, Duration::from_secs(60)).unwrap();
        }
        ids.extend(submitted);
    }

    let offline = offline_reports();
    for (i, &id) in ids.iter().enumerate() {
        if i < EXTRA {
            for path in [format!("/status/{id}"), format!("/result/{id}")] {
                let (status, body) = get(server.addr(), &path);
                assert_eq!(status, 404, "{path}");
                assert_eq!(
                    body.field("error", "body").unwrap(),
                    &Json::Str("not_found".into())
                );
            }
        } else if i == EXTRA || i + 1 == ids.len() {
            let (status, body) = get(server.addr(), &format!("/status/{id}"));
            assert_eq!(
                (status, body.field("state", "body").unwrap()),
                (200, &Json::Str("done".into()))
            );
            let (status, body) = get(server.addr(), &format!("/result/{id}"));
            assert_eq!(status, 200);
            let report = report_from_json(&body).unwrap();
            assert_eq!(wire(&report), offline[i % 4], "job {id}");
        }
    }
    server.shutdown();
}
