//! The `service_zipf` workload — closed-loop HTTP clients against an
//! in-process `qt_serve::serve` — and the service probe every offline
//! traced run ends with.

use crate::layers::Layers;
use crate::offline::{executor, qaoa_ring, trace_units, Mode, Rounds, Unit, SETUP_REPS};
use crate::util::{
    derive, fingerprint, median, ms_since, peak_rss_mb, percentile, unit_f64, Outcome,
};
use qt_circuit::Circuit;
use qt_core::{QuTracerConfig, QuTracerReport, ShotPolicy};
use qt_dist::{hellinger_fidelity, Distribution};
use qt_serve::http::{read_message, write_request};
use qt_serve::{serve, wire, Json, ServerHandle, ServiceClient, ServiceConfig, ServiceStats};
use qt_sim::Executor;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

// The traffic model. Register, pool size, Zipf exponent and
// `QuTracerConfig` are those of the `load_gen` binary (qt-bench), the
// repository's existing service load; README.md gives the reason for
// each of the other values.

/// Closed-loop client threads: `load_gen` uses 3, but no workload here
/// drives the service with more clients than the 2 cores the figures were
/// taken on.
const CLIENTS: usize = 2;
/// QAOA register of every request (`load_gen`: 8 qubits, 2 layers).
const N_QUBITS: usize = 8;
/// Variants in the Zipf-hot pool, warmed into the cache during set-up
/// (`load_gen`: 10 variants in a full run).
const N_HOT: u64 = 10;
/// Zipf exponent of the hot-pool choice (`load_gen`: 1.1).
const ZIPF_S: f64 = 1.1;
/// Every block of `BLOCK` consecutive requests holds exactly
/// `FRESH_PER_BLOCK` fresh-parameter requests and `SAMPLED_PER_BLOCK`
/// sampled ones, in a seeded order; the rest are hot exact requests.
/// Fresh requests are the only misses: at 15 % of requests they make
/// about a tenth of the job lookups miss, near `load_gen`'s miss rate.
/// Above 10 % of requests, the p90 latency falls among executed requests
/// rather than on the edge of the hits.
const BLOCK: u64 = 20;
const FRESH_PER_BLOCK: u64 = 3;
/// An assumption: as many sampled requests as fresh ones.
const SAMPLED_PER_BLOCK: u64 = 3;
/// Shots per program of a sampled request. An assumption: the service
/// samples a session's rounds on its batcher thread, so at this budget a
/// sampled request costs less than a fresh miss and the hits still set
/// the median; at the paper's 100 000 the hits queue behind the sampler.
const SAMPLED_SHOTS_PER_PROGRAM: usize = 10_000;
/// How long a client waits for one report before counting it failed.
const RESULT_TIMEOUT: Duration = Duration::from_secs(60);
/// `/status` polling interval of a traced client. Every poll is one
/// connection and one server thread, so it is kept coarse.
const STATUS_POLL: Duration = Duration::from_micros(500);

/// Input streams of [`derive`].
const STREAM_ORDER: u64 = 10;
const STREAM_ZIPF: u64 = 11;
const STREAM_FRESH: u64 = 12;
const STREAM_SAMPLE_SEED: u64 = 13;
const STREAM_HOT: u64 = 14;

/// The three request kinds of the traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A hot-pool variant: every job is a cache hit.
    Hot,
    /// Fresh parameters, as from an optimizer loop: every job misses.
    Fresh,
    /// A hot-pool variant with the adaptive `sampling` envelope.
    Sampled,
}

const KINDS: [Kind; 3] = [Kind::Hot, Kind::Fresh, Kind::Sampled];

fn kind_of(seed: u64, i: u64) -> Kind {
    let block = i / BLOCK;
    let mut order: Vec<u64> = (0..BLOCK).collect();
    for j in (1..BLOCK).rev() {
        let k = derive(seed, STREAM_ORDER, block * BLOCK + j) % (j + 1);
        order.swap(j as usize, k as usize);
    }
    match order[(i % BLOCK) as usize] {
        s if s < FRESH_PER_BLOCK => Kind::Fresh,
        s if s < FRESH_PER_BLOCK + SAMPLED_PER_BLOCK => Kind::Sampled,
        _ => Kind::Hot,
    }
}

/// Zipf-distributed hot-pool variant of request `i`.
fn zipf_variant(seed: u64, i: u64) -> usize {
    let weights: Vec<f64> = (1..=N_HOT).map(|r| (r as f64).powf(-ZIPF_S)).collect();
    let mut u = unit_f64(seed, STREAM_ZIPF, i) * weights.iter().sum::<f64>();
    for (v, w) in weights.iter().enumerate() {
        if u < *w {
            return v;
        }
        u -= w;
    }
    N_HOT as usize - 1
}

/// The `QuTracerConfig` of every request (`load_gen`'s).
fn request_config() -> QuTracerConfig {
    QuTracerConfig::single()
}

/// The warmed hot pool.
struct Pool {
    hot: Vec<Circuit>,
    ideal: Vec<Distribution>,
    programs: Vec<usize>,
    refs: Vec<String>,
}

impl Pool {
    /// Request `i` of the schedule: its kind, and the hot variant it uses.
    fn request(&self, seed: u64, i: u64) -> (Kind, Option<usize>, Unit) {
        let kind = kind_of(seed, i);
        let (variant, circuit, mode) = match kind {
            Kind::Hot => {
                let v = zipf_variant(seed, i);
                (Some(v), self.hot[v].clone(), Mode::Exact)
            }
            Kind::Fresh => (
                None,
                qaoa_ring(N_QUBITS, derive(seed, STREAM_FRESH, i)),
                Mode::Exact,
            ),
            Kind::Sampled => {
                let v = zipf_variant(seed, i);
                let mode = Mode::Sampled {
                    total_shots: SAMPLED_SHOTS_PER_PROGRAM * self.programs[v],
                    policy: ShotPolicy::Adaptive {
                        pilot_fraction: 0.5,
                    },
                    seed: derive(seed, STREAM_SAMPLE_SEED, i),
                };
                (Some(v), self.hot[v].clone(), mode)
            }
        };
        let request = Unit {
            name: format!("{kind:?} request {i}"),
            circuit,
            measured: (0..N_QUBITS).collect(),
            config: request_config(),
            mode,
        };
        (kind, variant, request)
    }
}

/// A served request's client-side timings.
struct Served {
    report: QuTracerReport,
    submit_ms: f64,
    queued_ms: f64,
    wait_ms: f64,
    latency_ms: f64,
    retries: u64,
}

/// The state `/status/<job>` reports.
fn job_state(addr: SocketAddr, job: u64) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("status connect: {e}"))?;
    write_request(&mut stream, "GET", &format!("/status/{job}"), "")
        .map_err(|e| format!("status request: {e}"))?;
    let msg = read_message(&mut stream).map_err(|e| format!("status response: {e}"))?;
    let doc = Json::parse(&msg.body).map_err(|e| format!("status body: {e}"))?;
    doc.field("state", "status")
        .and_then(|s| s.as_str("state").map(str::to_string))
}

/// Submits `req`, then waits for its report. Traced, it first polls
/// `/status` until the job leaves the queue, splitting the wait into time
/// queued and time after pick-up.
fn send(
    client: &ServiceClient,
    addr: SocketAddr,
    req: &Unit,
    trace: bool,
) -> Result<Served, String> {
    let t0 = Instant::now();
    let mut retries = 0;
    let job = loop {
        let submitted = match req.mode {
            Mode::Exact => client.submit(&req.circuit, &req.measured, &req.config),
            Mode::Sampled {
                total_shots,
                policy,
                seed,
            } => client.submit_sampled(
                &req.circuit,
                &req.measured,
                &req.config,
                total_shots as u64,
                &policy,
                seed,
            ),
        };
        match submitted {
            Ok(job) => break job,
            Err(e) if e.is_overloaded() => {
                retries += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(format!("submit: {e}")),
        }
    };
    let submit_ms = ms_since(t0);
    let mut queued_ms = 0.0;
    if trace {
        let t = Instant::now();
        while job_state(addr, job)? == "queued" {
            std::thread::sleep(STATUS_POLL);
        }
        queued_ms = ms_since(t);
    }
    let t = Instant::now();
    let report = client
        .wait_result(job, RESULT_TIMEOUT)
        .map_err(|e| format!("job {job}: {e}"))?;
    let wait_ms = ms_since(t);
    Ok(Served {
        report,
        submit_ms,
        queued_ms,
        wait_ms,
        latency_ms: ms_since(t0),
        retries,
    })
}

/// One request of the measured window.
struct Record {
    kind: Kind,
    served: Option<Served>,
    fidelity: f64,
    error: Option<String>,
}

/// Generates the hot pool and its offline references, boots the server
/// and warms its cache with every hot variant, checking each served
/// report against the offline one.
fn setup(seed: u64) -> Result<(Pool, ServerHandle<Executor>), String> {
    let exec = executor();
    let config = request_config();
    let measured: Vec<usize> = (0..N_QUBITS).collect();
    let mut pool = Pool {
        hot: Vec::new(),
        ideal: Vec::new(),
        programs: Vec::new(),
        refs: Vec::new(),
    };
    for v in 0..N_HOT {
        let unit = Unit {
            name: format!("hot variant {v}"),
            circuit: qaoa_ring(N_QUBITS, derive(seed, STREAM_HOT, v)),
            measured: measured.clone(),
            config,
            mode: Mode::Exact,
        };
        pool.ideal.push(unit.ideal());
        pool.programs.push(unit.plan()?.n_programs());
        pool.refs.push(fingerprint(&unit.mitigate(&exec)?));
        pool.hot.push(unit.circuit);
    }
    let server = serve("127.0.0.1:0", executor(), ServiceConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let client = ServiceClient::new(server.addr());
    for (v, c) in pool.hot.iter().enumerate() {
        let job = client
            .submit(c, &measured, &config)
            .map_err(|e| format!("warm-up submit: {e}"))?;
        let report = client
            .wait_result(job, RESULT_TIMEOUT)
            .map_err(|e| format!("warm-up result: {e}"))?;
        if fingerprint(&report) != pool.refs[v] {
            return Err(format!(
                "hot variant {v}: served report differs from offline"
            ));
        }
    }
    Ok((pool, server))
}

/// The first served report of each kind (indexed like [`KINDS`]), with
/// its request.
type Samples = [Option<(Unit, QuTracerReport)>; 3];

/// What a closed-loop window produced.
struct Window {
    records: Vec<Record>,
    samples: Samples,
    wall_s: f64,
}

/// Runs `CLIENTS` closed-loop clients from schedule index `first` until
/// `window` has passed. Each result is checked and scored as it lands;
/// only the first report of each kind is kept.
fn closed_loop(
    seed: u64,
    pool: &Pool,
    addr: SocketAddr,
    first: u64,
    window: Duration,
    trace: bool,
) -> Window {
    let next = AtomicU64::new(first);
    let start = Instant::now();
    let per_client: Vec<(Vec<Record>, Samples)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let client = ServiceClient::new(addr);
                    let mut records = Vec::new();
                    let mut samples: Samples = [None, None, None];
                    while start.elapsed() < window {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let (kind, variant, req) = pool.request(seed, i);
                        let mut record = Record {
                            kind,
                            served: None,
                            fidelity: 0.0,
                            error: None,
                        };
                        match send(&client, addr, &req, trace) {
                            Ok(served) => {
                                let report = &served.report;
                                let ideal = match variant {
                                    Some(v) => pool.ideal[v].clone(),
                                    None => req.ideal(),
                                };
                                record.fidelity = hellinger_fidelity(&report.distribution, &ideal);
                                if let (Kind::Hot, Some(v)) = (kind, variant) {
                                    if fingerprint(report) != pool.refs[v] {
                                        record.error = Some(format!(
                                            "request {i}: hot variant {v} differs from offline"
                                        ));
                                    }
                                }
                                let slot = &mut samples[kind as usize];
                                if slot.is_none() {
                                    *slot = Some((req, report.clone()));
                                }
                                record.served = Some(served);
                            }
                            Err(e) => record.error = Some(format!("request {i}: {e}")),
                        }
                        records.push(record);
                    }
                    (records, samples)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut records = Vec::new();
    let mut samples: Samples = [None, None, None];
    for (recs, client_samples) in per_client {
        records.extend(recs);
        for (slot, s) in samples.iter_mut().zip(client_samples) {
            if slot.is_none() {
                *slot = s;
            }
        }
    }
    Window {
        records,
        samples,
        wall_s,
    }
}

/// Counts every record against `out` and returns the served ones.
fn tally<'a>(out: &mut Outcome, records: &'a [Record]) -> Vec<&'a Record> {
    let mut ok = Vec::new();
    for r in records {
        out.attempted += 1;
        match (&r.served, &r.error) {
            (Some(_), None) => ok.push(r),
            (_, Some(e)) => out.fail(e.clone()),
            (None, None) => out.fail("request neither served nor failed".to_string()),
        }
    }
    ok
}

/// The offline twin of each kind's first served request; the served
/// report must be bit-identical to it.
fn kind_units(w: &Window, out: &mut Outcome) -> (Vec<Unit>, Vec<String>) {
    let mut units = Vec::new();
    let mut refs = Vec::new();
    for (kind, sample) in KINDS.iter().zip(&w.samples) {
        match sample {
            Some((req, report)) => {
                units.push(req.clone());
                refs.push(fingerprint(report));
            }
            None => out.fail(format!("no {kind:?} request was served")),
        }
    }
    (units, refs)
}

/// The untraced `service_zipf` run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut booted = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, server)) = booted.take() {
            ServerHandle::shutdown(server);
        }
        let t = Instant::now();
        booted = Some(setup(seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (pool, server) = booted.expect("at least one set-up");
    let w = closed_loop(
        seed,
        &pool,
        server.addr(),
        0,
        Duration::from_secs_f64(seconds),
        false,
    );
    server.shutdown();

    let mut out = Outcome::new();
    let ok = tally(&mut out, &w.records);
    let (units, refs) = kind_units(&w, &mut out);
    let exec = executor();
    for (u, reference) in units.iter().zip(&refs) {
        match u.mitigate(&exec) {
            Ok(r) if &fingerprint(&r) == reference => {}
            Ok(_) => out.fail(format!("{}: served report differs from offline", u.name)),
            Err(e) => out.fail(e),
        }
    }

    let latencies: Vec<f64> = ok
        .iter()
        .filter_map(|r| r.served.as_ref().map(|s| s.latency_ms))
        .collect();
    let fidelity = ok.iter().map(|r| r.fidelity).sum::<f64>() / ok.len().max(1) as f64;
    println!(
        "served {} requests ({} hot, {} fresh, {} sampled) in {:.3} s",
        ok.len(),
        ok.iter().filter(|r| r.kind == Kind::Hot).count(),
        ok.iter().filter(|r| r.kind == Kind::Fresh).count(),
        ok.iter().filter(|r| r.kind == Kind::Sampled).count(),
        w.wall_s
    );
    out.push("mitigations_per_s", ok.len() as f64 / w.wall_s, "1/s");
    out.push("latency_p50_ms", median(&latencies), "ms");
    out.push("latency_p90_ms", percentile(&latencies, 0.9), "ms");
    out.push("mitigated_fidelity", fidelity, "fidelity");
    out.push(
        "success_rate",
        (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    out.push("peak_rss_mb", peak_rss_mb()?, "MiB");
    out.push("setup_s", median(&setup_s), "s");
    Ok(out)
}

/// Median wire encode and decode time of `reports`, checking that each
/// decodes back to itself.
fn codec_layers(layers: &mut Layers, reports: &[&QuTracerReport], out: &mut Outcome) {
    const REPS: usize = 50;
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for r in reports {
        let want = fingerprint(r);
        for _ in 0..REPS {
            let t = Instant::now();
            let text = wire::report_to_json(r).to_string();
            enc.push(ms_since(t));
            let t = Instant::now();
            let back = Json::parse(&text)
                .map_err(|e| e.to_string())
                .and_then(|j| wire::report_from_json(&j));
            dec.push(ms_since(t));
            match back {
                Ok(b) if fingerprint(&b) == want => {}
                Ok(_) => out.fail("wire round trip changed a report".to_string()),
                Err(e) => out.fail(format!("wire decode: {e}")),
            }
        }
    }
    layers.set("serve.encode_ms", median(&enc));
    layers.set("serve.decode_ms", median(&dec));
}

/// Service counters accumulated between two snapshots.
fn stats_layers(
    layers: &mut Layers,
    before: &ServiceStats,
    after: &ServiceStats,
    client_retries: u64,
) {
    let d = |a: u64, b: u64| (a - b) as f64;
    let hits = d(after.cache.hits, before.cache.hits);
    let lookups = hits + d(after.cache.misses, before.cache.misses);
    layers.set(
        "serve.cache_hit_rate",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
    let batches = d(after.batches, before.batches);
    layers.set(
        "serve.avg_batch_requests",
        d(after.batched_requests, before.batched_requests) / batches.max(1.0),
    );
    layers.set(
        "serve.distinct_jobs",
        d(after.distinct_jobs, before.distinct_jobs),
    );
    layers.set(
        "serve.executed_jobs",
        d(after.executed_jobs, before.executed_jobs),
    );
    layers.set("serve.rejected", d(after.rejected, before.rejected));
    layers.set(
        "serve.retries",
        client_retries as f64 + d(after.run_failures.retries, before.run_failures.retries),
    );
    layers.set("serve.failed", d(after.failed, before.failed));
}

fn client_layers(layers: &mut Layers, served: &[&Served]) {
    let field = |f: fn(&Served) -> f64| median(&served.iter().map(|s| f(s)).collect::<Vec<_>>());
    layers.set("serve.submit_ms", field(|s| s.submit_ms));
    layers.set("serve.queued_ms", field(|s| s.queued_ms));
    layers.set("serve.wait_ms", field(|s| s.wait_ms));
}

/// The traced `service_zipf` run: an untraced half-window for the
/// overhead baseline, a traced half-window, then the stepwise replay of
/// one request of each kind.
pub fn run_traced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (pool, server) = setup(seed)?;
    let half = Duration::from_secs_f64(seconds / 2.0);
    let plain = closed_loop(seed, &pool, server.addr(), 0, half, false);
    let before = server.service().stats();
    let first = plain.records.len() as u64;
    let traced = closed_loop(seed, &pool, server.addr(), first, half, true);
    let after = server.service().stats();
    server.shutdown();

    let mut out = Outcome::new();
    let plain_ok = tally(&mut out, &plain.records);
    let traced_ok = tally(&mut out, &traced.records);
    let (units, refs) = kind_units(&traced, &mut out);
    let exec = executor();
    let mut layers = trace_units(
        &units,
        &refs,
        &exec,
        Rounds::FromExact,
        Duration::from_secs(1),
        &mut out,
    )?;

    let served: Vec<&Served> = traced_ok.iter().filter_map(|r| r.served.as_ref()).collect();
    client_layers(&mut layers, &served);
    let reports: Vec<&QuTracerReport> = traced.samples.iter().flatten().map(|(_, r)| r).collect();
    codec_layers(&mut layers, &reports, &mut out);
    let retries = served.iter().map(|s| s.retries).sum();
    stats_layers(&mut layers, &before, &after, retries);

    let latency = |rs: &[&Record]| {
        median(
            &rs.iter()
                .filter_map(|r| r.served.as_ref().map(|s| s.latency_ms))
                .collect::<Vec<_>>(),
        )
    };
    layers.set(
        "trace.overhead_ms",
        latency(&traced_ok) - latency(&plain_ok),
    );
    layers.set(
        "trace.coverage",
        median(
            &served
                .iter()
                .map(|s| (s.submit_ms + s.queued_ms + s.wait_ms) / s.latency_ms)
                .collect::<Vec<_>>(),
        ),
    );
    layers.emit(&mut out);
    Ok(out)
}

/// Serves every unit once through a fresh in-process service (traced
/// client), checks each report against the offline reference and records
/// the `serve.*` layers.
pub fn probe(
    units: &[Unit],
    refs: &[String],
    layers: &mut Layers,
    out: &mut Outcome,
) -> Result<(), String> {
    let server = serve("127.0.0.1:0", executor(), ServiceConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let client = ServiceClient::new(server.addr());
    let before = server.service().stats();
    let mut served = Vec::new();
    for (u, reference) in units.iter().zip(refs) {
        out.attempted += 1;
        match send(&client, server.addr(), u, true) {
            Ok(s) if &fingerprint(&s.report) == reference => served.push(s),
            Ok(_) => out.fail(format!("{}: served report differs from offline", u.name)),
            Err(e) => out.fail(format!("{}: {e}", u.name)),
        }
    }
    let after = server.service().stats();
    server.shutdown();
    let refs: Vec<&Served> = served.iter().collect();
    client_layers(layers, &refs);
    let reports: Vec<&QuTracerReport> = served.iter().map(|s| &s.report).collect();
    codec_layers(layers, &reports, out);
    let retries = served.iter().map(|s| s.retries).sum();
    stats_layers(layers, &before, &after, retries);
    Ok(())
}
