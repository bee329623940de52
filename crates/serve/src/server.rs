//! The TCP/HTTP front-end over [`MitigationService`].
//!
//! Endpoints (one request per connection, `Connection: close`):
//!
//! | method & path      | body                                   | replies |
//! |--------------------|----------------------------------------|---------|
//! | `POST /submit`     | `{circuit, measured, config?}`         | `202 {"job_id":N}`, `429` overloaded, `422` plan error |
//! | `GET /status/<id>` | —                                      | `200 {"job_id","state",...}`, `404` |
//! | `GET /result/<id>` | —                                      | `200` report, `202` pending, `404`, `500` failed, `504` deadline |
//! | `GET /stats`       | —                                      | `200` service counters |
//! | `GET /health`      | —                                      | `200` liveness (the process answers) |
//! | `GET /ready`       | —                                      | `200` accepting, `503` draining |
//!
//! Every error body is `{"error": kind, "message": text}` (see
//! [`ServiceError`]).

use crate::error::ServiceError;
use crate::http::{read_message, write_response, Message};
use crate::json::{obj, Json};
use crate::service::{JobState, MitigationService, ServiceConfig};
use crate::wire;
use qt_sim::Runner;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running server: accept loop + batcher, shut down via
/// [`ServerHandle::shutdown`].
pub struct ServerHandle<R> {
    addr: SocketAddr,
    service: Arc<MitigationService<R>>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    batcher: Option<JoinHandle<()>>,
}

impl<R: Runner + Send + Sync + 'static> ServerHandle<R> {
    /// The bound address (use `"127.0.0.1:0"` at bind time for an
    /// ephemeral port and read it back here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine behind the front-end (stats, direct submission).
    pub fn service(&self) -> &Arc<MitigationService<R>> {
        &self.service
    }

    /// Stops accepting, drains the queue and joins both threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.service.shutdown();
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
    }
}

/// Binds `addr`, starts the batcher and the accept loop, and returns
/// immediately.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve<R: Runner + Send + Sync + 'static>(
    addr: &str,
    runner: R,
    config: ServiceConfig,
) -> io::Result<ServerHandle<R>> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let service = MitigationService::new(runner, config);
    let batcher = service.spawn_batcher();
    let stop = Arc::new(AtomicBool::new(false));

    let accept = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let service = Arc::clone(&service);
                // One short-lived thread per connection: each handles a
                // single request and closes. The service's queue bound,
                // not the thread count, is the admission mechanism.
                std::thread::spawn(move || handle_connection(stream, &service));
            }
        })
    };

    Ok(ServerHandle {
        addr,
        service,
        stop,
        accept: Some(accept),
        batcher: Some(batcher),
    })
}

fn handle_connection<R: Runner + Send + Sync + 'static>(
    mut stream: TcpStream,
    service: &MitigationService<R>,
) {
    let msg = match read_message(&mut stream) {
        Ok(msg) => msg,
        Err(_) => {
            let err = ServiceError::BadRequest("unreadable HTTP request".into());
            let _ = write_response(&mut stream, err.status_code(), &err.to_json().to_string());
            return;
        }
    };
    let (status, body) = route(&msg, service);
    let _ = write_response(&mut stream, status, &body.to_string());
}

fn route<R: Runner + Send + Sync + 'static>(
    msg: &Message,
    service: &MitigationService<R>,
) -> (u16, Json) {
    match (msg.method.as_str(), msg.path.as_str()) {
        ("POST", "/submit") => reply(handle_submit(msg, service)),
        ("GET", "/stats") => (200, service_stats_json(service)),
        // Liveness: answering at all is the signal.
        ("GET", "/health") => (200, obj([("status", Json::Str("ok".into()))])),
        // Readiness: admission must actually be open.
        ("GET", "/ready") => {
            if service.is_accepting() {
                (200, obj([("status", Json::Str("ready".into()))]))
            } else {
                (503, obj([("status", Json::Str("draining".into()))]))
            }
        }
        ("GET", path) => {
            if let Some(id) = parse_id(path, "/status/") {
                reply(handle_status(id, service))
            } else if let Some(id) = parse_id(path, "/result/") {
                handle_result(id, service)
            } else {
                let err = ServiceError::NotFound { job: 0 };
                (404, err.to_json())
            }
        }
        _ => (
            405,
            obj([
                ("error", Json::Str("method_not_allowed".into())),
                (
                    "message",
                    Json::Str(format!("{} {} is not an endpoint", msg.method, msg.path)),
                ),
            ]),
        ),
    }
}

fn reply(result: Result<(u16, Json), ServiceError>) -> (u16, Json) {
    match result {
        Ok(ok) => ok,
        Err(e) => (e.status_code(), e.to_json()),
    }
}

fn parse_id(path: &str, prefix: &str) -> Option<u64> {
    path.strip_prefix(prefix)?.parse::<u64>().ok()
}

fn handle_submit<R: Runner + Send + Sync + 'static>(
    msg: &Message,
    service: &MitigationService<R>,
) -> Result<(u16, Json), ServiceError> {
    let doc = Json::parse(&msg.body)
        .map_err(|e| ServiceError::BadRequest(format!("invalid JSON: {e}")))?;
    let circuit = wire::circuit_from_json(
        doc.field("circuit", "submit")
            .map_err(ServiceError::BadRequest)?,
    )
    .map_err(ServiceError::BadRequest)?;
    let measured = doc
        .field("measured", "submit")
        .map_err(ServiceError::BadRequest)?
        .as_arr("submit.measured")
        .map_err(ServiceError::BadRequest)?
        .iter()
        .map(|x| x.as_usize("submit.measured"))
        .collect::<Result<Vec<_>, _>>()
        .map_err(ServiceError::BadRequest)?;
    let config = match doc
        .opt_field("config", "submit")
        .map_err(ServiceError::BadRequest)?
    {
        Some(c) => wire::config_from_json(c).map_err(ServiceError::BadRequest)?,
        None => Default::default(),
    };
    // An optional `sampling` envelope turns the request into a finite-shot
    // mitigation session: {"total_shots":"40000", "policy":{...}, "seed":"7"}.
    // Policy defaults to uniform, seed to 0; total_shots is required.
    let id = match doc
        .opt_field("sampling", "submit")
        .map_err(ServiceError::BadRequest)?
    {
        None => service.submit(&circuit, &measured, &config)?,
        Some(s) => {
            let total_shots = s
                .field("total_shots", "submit.sampling")
                .and_then(|v| v.as_u64_str("sampling.total_shots"))
                .map_err(ServiceError::BadRequest)? as usize;
            let policy = match s
                .opt_field("policy", "submit.sampling")
                .map_err(ServiceError::BadRequest)?
            {
                Some(p) => wire::shot_policy_from_json(p).map_err(ServiceError::BadRequest)?,
                None => qt_core::ShotPolicy::Uniform,
            };
            let seed = s
                .opt_field("seed", "submit.sampling")
                .map_err(ServiceError::BadRequest)?
                .map(|v| v.as_u64_str("sampling.seed"))
                .transpose()
                .map_err(ServiceError::BadRequest)?
                .unwrap_or(0);
            service.submit_sampled(&circuit, &measured, &config, total_shots, policy, seed)?
        }
    };
    Ok((202, obj([("job_id", Json::Num(id as f64))])))
}

fn handle_status<R: Runner + Send + Sync + 'static>(
    id: u64,
    service: &MitigationService<R>,
) -> Result<(u16, Json), ServiceError> {
    let state = service.status(id)?;
    let mut fields = vec![
        ("job_id", Json::Num(id as f64)),
        ("state", Json::Str(state.name().into())),
    ];
    match &state {
        JobState::Queued(view) | JobState::Running(view) => {
            fields.push(("plan", wire::plan_view_to_json(view)));
        }
        JobState::Failed(e) => fields.push(("failure", e.to_json())),
        JobState::Done(_) => {}
    }
    Ok((200, obj(fields)))
}

fn handle_result<R: Runner + Send + Sync + 'static>(
    id: u64,
    service: &MitigationService<R>,
) -> (u16, Json) {
    match service.result(id) {
        Ok(Some(report)) => (200, wire::report_to_json(&report)),
        Ok(None) => (
            202,
            obj([
                ("job_id", Json::Num(id as f64)),
                ("state", Json::Str("pending".into())),
            ]),
        ),
        Err(e) => (e.status_code(), e.to_json()),
    }
}

fn service_stats_json<R: Runner + Send + Sync + 'static>(service: &MitigationService<R>) -> Json {
    let s = service.stats();
    obj([
        ("submitted", Json::Num(s.submitted as f64)),
        ("rejected", Json::Num(s.rejected as f64)),
        ("completed", Json::Num(s.completed as f64)),
        ("failed", Json::Num(s.failed as f64)),
        ("queue_depth", Json::Num(s.queue_depth as f64)),
        ("batches", Json::Num(s.batches as f64)),
        ("batched_requests", Json::Num(s.batched_requests as f64)),
        ("distinct_jobs", Json::Num(s.distinct_jobs as f64)),
        ("cache_hit_jobs", Json::Num(s.cache_hit_jobs as f64)),
        ("executed_jobs", Json::Num(s.executed_jobs as f64)),
        (
            "cache",
            obj([
                ("hits", Json::Num(s.cache.hits as f64)),
                ("misses", Json::Num(s.cache.misses as f64)),
                ("evictions", Json::Num(s.cache.evictions as f64)),
                ("insertions", Json::Num(s.cache.insertions as f64)),
                ("hit_rate", Json::Num(s.cache.hit_rate())),
            ]),
        ),
        ("batch_trie", wire::trie_stats_to_json(&s.batch_trie)),
        (
            "run_failures",
            obj([
                ("retries", Json::Num(s.run_failures.retries as f64)),
                (
                    "retried_jobs",
                    Json::Num(s.run_failures.retried_jobs as f64),
                ),
                ("failed_jobs", Json::Num(s.run_failures.failed_jobs as f64)),
                (
                    "isolated_panics",
                    Json::Num(s.run_failures.isolated_panics as f64),
                ),
                (
                    "corrupt_outputs",
                    Json::Num(s.run_failures.corrupt_outputs as f64),
                ),
            ]),
        ),
        ("deadline_expired", Json::Num(s.deadline_expired as f64)),
    ])
}
