//! The offline workloads, `suite_exact` and `qaoa_sampled`: each unit is
//! one mitigation (plan → execute → recombine) on an in-process
//! [`Executor`]. The untraced run times the one-call library surface; the
//! traced run replays every unit through the public stepwise API with a
//! span around each call and checks that its report is bit-identical.

use crate::layers::Layers;
use crate::util::{derive, fingerprint, median, ms_since, peak_rss_mb, percentile, Outcome};
use qt_algos::{paper_single_layer_suite, qaoa_maxcut, ring_graph, vqe_ansatz, QaoaParams};
use qt_circuit::Circuit;
use qt_core::{
    JobKind, MitigationPlan, MitigationSession, QuTracer, QuTracerConfig, QuTracerReport,
    ShotPolicy,
};
use qt_dist::{hellinger_fidelity, recombine::try_bayesian_update_all, Distribution};
use qt_sim::{
    apply_readout, batch_trie_stats, ideal_distribution, BatchJob, Executor, Program, Runner,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Shots per executed program on `qaoa_sampled` (the paper's Table I
/// budget).
const SHOTS_PER_PROGRAM: usize = 100_000;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// How a unit executes.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Exact distributions: `execute` → `recombine`.
    Exact,
    /// A finite-shot session: `run_sampled`.
    Sampled {
        total_shots: usize,
        policy: ShotPolicy,
        seed: u64,
    },
}

/// One mitigation: a unit the offline workloads repeat, or one request
/// of the service workload.
#[derive(Clone)]
pub struct Unit {
    pub name: String,
    pub circuit: Circuit,
    pub measured: Vec<usize>,
    pub config: QuTracerConfig,
    pub mode: Mode,
}

impl Unit {
    /// The noiseless distribution, for `mitigated_fidelity`.
    pub fn ideal(&self) -> Distribution {
        ideal_distribution(&Program::from_circuit(&self.circuit), &self.measured)
    }

    pub fn plan(&self) -> Result<MitigationPlan, String> {
        QuTracer::plan(&self.circuit, &self.measured, &self.config)
            .map_err(|e| format!("{}: plan: {e}", self.name))
    }

    /// The untraced one-call mitigation.
    pub fn mitigate(&self, exec: &Executor) -> Result<QuTracerReport, String> {
        let plan = self.plan()?;
        match self.mode {
            Mode::Exact => plan.execute(exec).and_then(|a| a.recombine()),
            Mode::Sampled {
                total_shots,
                policy,
                seed,
            } => plan.run_sampled(exec, total_shots, policy, seed),
        }
        .map_err(|e| format!("{}: {e}", self.name))
    }
}

/// The two offline workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    SuiteExact,
    QaoaSampled,
}

/// The mitigation service's noise model and runner for every workload.
pub fn executor() -> Executor {
    Executor::new(qt_bench::mumbai_uniform_noise())
}

/// QAOA max-cut on an `n`-ring with two layers and seeded angles.
pub fn qaoa_ring(n: usize, angle_seed: u64) -> Circuit {
    qaoa_maxcut(n, &ring_graph(n), &QaoaParams::seeded(2, angle_seed))
}

impl Workload {
    /// The workload's units; every input is a function of `seed`.
    pub fn units(self, seed: u64) -> Result<Vec<Unit>, String> {
        match self {
            Workload::SuiteExact => {
                // The paper's Table II single-layer circuits up to 10
                // qubits (the register the density matrix still runs
                // exactly) plus a two-layer 10-qubit VQE whose angles
                // follow the seed.
                let mut units: Vec<Unit> = paper_single_layer_suite()
                    .into_iter()
                    .filter(|w| w.circuit.n_qubits() <= 10)
                    .map(|w| Unit {
                        name: w.name,
                        circuit: w.circuit,
                        measured: w.measured,
                        config: QuTracerConfig::single(),
                        mode: Mode::Exact,
                    })
                    .collect();
                units.push(Unit {
                    name: "10-q VQE 2 layers".to_string(),
                    circuit: vqe_ansatz(10, 2, derive(seed, 1, 0)),
                    measured: (0..10).collect(),
                    config: QuTracerConfig::single(),
                    mode: Mode::Exact,
                });
                Ok(units)
            }
            Workload::QaoaSampled => [8usize, 12]
                .into_iter()
                .map(|n| {
                    let circuit = qaoa_ring(n, derive(seed, 2, n as u64));
                    let config = QuTracerConfig::pairs().with_symmetric_subsets();
                    let measured: Vec<usize> = (0..n).collect();
                    let programs = QuTracer::plan(&circuit, &measured, &config)
                        .map_err(|e| format!("QAOA-{n}: plan: {e}"))?
                        .n_programs();
                    let mode = Mode::Sampled {
                        total_shots: SHOTS_PER_PROGRAM * programs,
                        policy: ShotPolicy::Adaptive {
                            pilot_fraction: 0.5,
                        },
                        seed: derive(seed, 3, n as u64),
                    };
                    Ok(Unit {
                        name: format!("{n}-q QAOA 2 layers"),
                        circuit,
                        measured,
                        config,
                        mode,
                    })
                })
                .collect(),
        }
    }
}

/// Inputs, their ideal distributions, the runner and the reference
/// reports every later run is checked against.
struct Setup {
    units: Vec<Unit>,
    ideals: Vec<Distribution>,
    exec: Executor,
    reports: Vec<QuTracerReport>,
    refs: Vec<String>,
}

/// Generates the inputs, boots the runner and runs every unit once: the
/// warm-up whose reports become the references.
fn setup(workload: Workload, seed: u64) -> Result<Setup, String> {
    let units = workload.units(seed)?;
    let ideals = units.iter().map(Unit::ideal).collect();
    let exec = executor();
    let reports = units
        .iter()
        .map(|u| u.mitigate(&exec))
        .collect::<Result<Vec<_>, _>>()?;
    let refs = reports.iter().map(fingerprint).collect();
    Ok(Setup {
        units,
        ideals,
        exec,
        reports,
        refs,
    })
}

fn check(out: &mut Outcome, what: &str, got: Result<&QuTracerReport, &String>, reference: &str) {
    match got {
        Ok(report) if fingerprint(report) == reference => {}
        Ok(_) => out.fail(format!(
            "{what}: report is not bit-identical to the reference"
        )),
        Err(e) => out.fail(format!("{what}: {e}")),
    }
}

/// Mean Hellinger fidelity of the mitigated reports against the ideal.
fn mean_fidelity(ideals: &[Distribution], reports: &[QuTracerReport]) -> f64 {
    let sum: f64 = ideals
        .iter()
        .zip(reports)
        .map(|(ideal, r)| hellinger_fidelity(&r.distribution, ideal))
        .sum();
    sum / ideals.len() as f64
}

/// The untraced run: end-to-end metrics.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut s = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        s = Some(setup(workload, seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let s = s.expect("at least one set-up");
    let mut out = Outcome::new();

    // Whole passes over the units, so every run measures the same mix. A
    // pass (every unit mitigated once: the whole suite, or the whole
    // scaling set) is the latency sample; single mitigations differ by
    // two orders of magnitude across units, so their percentiles would
    // land on whichever unit sits at that rank.
    let window = Duration::from_secs_f64(seconds);
    let mut pass_ms = Vec::new();
    let mut results = Vec::new();
    let start = Instant::now();
    loop {
        let pass = Instant::now();
        for (i, u) in s.units.iter().enumerate() {
            results.push((i, u.mitigate(&s.exec)));
        }
        pass_ms.push(ms_since(pass));
        if start.elapsed() >= window {
            break;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    println!(
        "{} passes, pass ms: min {:.1} p25 {:.1} p50 {:.1} p75 {:.1} max {:.1}",
        pass_ms.len(),
        percentile(&pass_ms, 0.0),
        percentile(&pass_ms, 0.25),
        median(&pass_ms),
        percentile(&pass_ms, 0.75),
        percentile(&pass_ms, 1.0),
    );

    for (k, (i, r)) in results.iter().enumerate() {
        out.attempted += 1;
        let what = format!("{} (mitigation {k})", s.units[*i].name);
        check(&mut out, &what, r.as_ref(), &s.refs[*i]);
    }
    // The stepwise surface must reproduce the one-call report bit for bit.
    for (i, u) in s.units.iter().enumerate() {
        out.attempted += 1;
        let r = stepwise(u, &s.exec, Rounds::Sampled, &mut Layers::default()).map(|st| st.report);
        check(
            &mut out,
            &format!("{} stepwise", u.name),
            r.as_ref(),
            &s.refs[i],
        );
    }

    out.push("mitigations_per_s", results.len() as f64 / wall, "1/s");
    out.push("latency_p50_ms", median(&pass_ms), "ms");
    out.push("latency_p90_ms", percentile(&pass_ms, 0.9), "ms");
    out.push(
        "mitigated_fidelity",
        mean_fidelity(&s.ideals, &s.reports),
        "fidelity",
    );
    out.push(
        "success_rate",
        (out.attempted - out.failed) as f64 / out.attempted as f64,
        "ratio",
    );
    out.push("peak_rss_mb", peak_rss_mb()?, "MiB");
    out.push("setup_s", median(&setup_s), "s");
    Ok(out)
}

/// How a stepwise replay executes a session's rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rounds {
    /// `Runner::run_batch_sampled` → `absorb_sampled`, as `run_sampled`
    /// does offline.
    Sampled,
    /// Exact `Runner::run_batch` → `absorb_exact`, as the service does: it
    /// executes (or serves from its cache) exact outputs and samples them
    /// per request.
    FromExact,
}

/// What one stepwise replay produced beyond its spans.
struct Step {
    report: QuTracerReport,
    plan: MitigationPlan,
    /// How session rounds ran.
    rounds: Rounds,
    /// `run_batch` (or `run_batch_sampled`) time of each round.
    round_ms: Vec<f64>,
    shots: u64,
    engine_mix: Vec<(String, usize)>,
}

/// Replays one unit through the public stepwise API, charging each call
/// to its layer: `plan` → `batch_jobs` → `run_batch` →
/// `artifacts_from_outputs` → `recombine`, or for sessions `next_round` →
/// `run_batch_sampled` → `absorb_sampled` (or `run_batch` →
/// `absorb_exact`, see [`Rounds`]) → `finish`.
fn stepwise(u: &Unit, exec: &Executor, rounds: Rounds, sp: &mut Layers) -> Result<Step, String> {
    let err = |e: qt_core::ExecError| format!("{}: {e}", u.name);
    let plan = sp.time("core.plan_ms", || u.plan())?;
    match u.mode {
        Mode::Exact => {
            let jobs = sp.time("core.batch_jobs_ms", || plan.batch_jobs());
            let mix = sp.time("sim.engine_mix_ms", || exec.engine_mix(&jobs));
            let t = Instant::now();
            let outs = exec.run_batch(&jobs);
            let ms = ms_since(t);
            sp.add("sim.run_batch_ms", ms);
            let report = {
                let arts = sp
                    .time("core.scatter_ms", || {
                        plan.artifacts_from_outputs(outs, mix.clone())
                    })
                    .map_err(err)?;
                sp.time("core.recombine_ms", || arts.recombine())
                    .map_err(err)?
            };
            Ok(Step {
                report,
                plan,
                rounds,
                round_ms: vec![ms],
                shots: 0,
                engine_mix: mix.unwrap_or_default(),
            })
        }
        Mode::Sampled {
            total_shots,
            policy,
            seed,
        } => {
            let mut session = sp
                .time("core.batch_jobs_ms", || {
                    MitigationSession::new(&plan, policy, total_shots, seed)
                })
                .map_err(err)?;
            let mix = sp.time("sim.engine_mix_ms", || exec.engine_mix(session.jobs()));
            session.set_engine_mix(mix.clone());
            let (mut round_ms, mut shots) = (Vec::new(), 0);
            while let Some(spec) = sp.time("core.next_round_ms", || session.next_round()) {
                let t = Instant::now();
                match rounds {
                    Rounds::Sampled => {
                        let outs = exec.run_batch_sampled(session.jobs(), &spec.shots, spec.seed);
                        round_ms.push(ms_since(t));
                        sp.time("core.absorb_ms", || session.absorb_sampled(&spec, outs))
                    }
                    Rounds::FromExact => {
                        let outs = exec.run_batch(session.jobs());
                        round_ms.push(ms_since(t));
                        sp.time("core.absorb_ms", || session.absorb_exact(&spec, &outs))
                    }
                }
                .map_err(err)?;
                sp.add("sim.run_batch_ms", *round_ms.last().expect("round timed"));
                shots += spec.shots.total_shots();
            }
            let report = sp
                .time("core.recombine_ms", || session.finish())
                .map_err(err)?;
            Ok(Step {
                report,
                plan,
                rounds,
                round_ms,
                shots,
                engine_mix: mix.unwrap_or_default(),
            })
        }
    }
}

/// Layer costs measured beside the pipeline (outside its traced wall):
/// the global job and the subset jobs run alone, the exact batch a
/// sampled round draws from, trie construction, readout and the Bayesian
/// update. Derives `sim.sample_ms` and `sim.co_schedule_ms` from them and
/// the pipeline's spans `pipe`.
fn decompose(
    u: &Unit,
    exec: &Executor,
    step: &Step,
    pipe: &Layers,
    raw_global: &mut Option<Distribution>,
    extra: &mut Layers,
    counts: &mut Layers,
) -> Result<(), String> {
    let jobs = step.plan.batch_jobs();
    let global: BatchJob = step
        .plan
        .programs()
        .find(|(_, tags)| tags.iter().any(|t| t.kind == JobKind::Global))
        .map(|(job, _)| job.clone())
        .ok_or_else(|| format!("{}: plan has no global job", u.name))?;
    let key = global.dedup_key();
    let subsets: Vec<BatchJob> = jobs
        .iter()
        .filter(|j| j.dedup_key() != key)
        .cloned()
        .collect();

    let global_ms = {
        let t = Instant::now();
        black_box(exec.run_batch(std::slice::from_ref(&global)));
        ms_since(t)
    };
    let subset_ms = {
        let t = Instant::now();
        black_box(exec.run_batch(&subsets));
        ms_since(t)
    };
    extra.add("sim.global_ms", global_ms);
    extra.add("sim.subset_ms", subset_ms);
    // A round's exact batch: the pipeline's own round time on the exact
    // paths, timed here beside a `run_batch_sampled` round, whose time
    // over it is the sampler's.
    let exact_ms = match (u.mode, step.rounds) {
        (Mode::Sampled { .. }, Rounds::Sampled) => {
            let t = Instant::now();
            black_box(exec.run_batch(&jobs));
            let exact = ms_since(t);
            extra.add(
                "sim.sample_ms",
                step.round_ms.iter().map(|r| r - exact).sum(),
            );
            exact
        }
        // The service path samples inside `absorb_exact`.
        (Mode::Sampled { .. }, Rounds::FromExact) => {
            extra.add("sim.sample_ms", pipe.get("core.absorb_ms"));
            median(&step.round_ms)
        }
        (Mode::Exact, _) => {
            extra.add("sim.sample_ms", 0.0);
            step.round_ms[0]
        }
    };
    extra.add(
        "sim.co_schedule_ms",
        step.round_ms.len() as f64 * (exact_ms - global_ms - subset_ms),
    );
    let trie = extra.time("sim.trie_build_ms", || batch_trie_stats(&jobs));
    let raw =
        raw_global.get_or_insert_with(|| exec.raw_distribution(&global.program, &global.measured));
    black_box(extra.time("sim.readout_ms", || {
        apply_readout(raw, &global.measured, &exec.noise().readout)
    }));
    let report = &step.report;
    let refined = extra
        .time("dist.bayesian_update_ms", || {
            try_bayesian_update_all(
                &report.global,
                report.locals.iter().map(|(d, p)| (d, p.as_slice())),
            )
        })
        .map_err(|e| format!("{}: bayesian update: {e}", u.name))?;
    let bits = |d: &Distribution| d.iter().map(|(i, p)| (i, p.to_bits())).collect::<Vec<_>>();
    if bits(&refined) != bits(&report.distribution) {
        return Err(format!(
            "{}: standalone Bayesian update differs from the report",
            u.name
        ));
    }
    extra.add(
        "core.later_rounds_ms",
        step.round_ms.iter().skip(1).sum::<f64>(),
    );

    counts.add("core.plan_programs", step.plan.n_programs() as f64);
    counts.add("core.plan_requests", step.plan.n_requests() as f64);
    counts.add("sim.trie_request_gates", trie.request_gates as f64);
    counts.add("sim.trie_unique_gates", trie.unique_gates as f64);
    for engine in crate::layers::ENGINES {
        let n = step
            .engine_mix
            .iter()
            .find(|(name, _)| name == engine)
            .map_or(0, |(_, n)| *n);
        counts.add(&format!("sim.jobs.{engine}"), n as f64);
    }
    counts.add("sim.shots", step.shots as f64);
    counts.add("core.session_rounds", step.round_ms.len() as f64);
    counts.add("dist.support_len", refined.support_len() as f64);
    Ok(())
}

/// One unit's traced figures over the passes, for the decomposition table.
#[derive(Default)]
struct UnitTrace {
    pipe: Vec<Layers>,
    extra: Vec<Layers>,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
}

/// The traced run: per-layer metrics.
pub fn run_traced(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let s = setup(workload, seed)?;
    let mut out = Outcome::new();
    let window = Duration::from_secs_f64(seconds);
    let mut layers = trace_units(
        &s.units,
        &s.refs,
        &s.exec,
        Rounds::Sampled,
        window,
        &mut out,
    )?;
    crate::service::probe(&s.units, &s.refs, &mut layers, &mut out)?;
    layers.emit(&mut out);
    Ok(out)
}

/// Runs passes over `units` until `window` has passed. Per unit and pass:
/// the one-call mitigation (untraced), the stepwise replay with session
/// rounds executed as `rounds` says (traced; both checked against `refs`)
/// and the layer decomposition beside it. Prints the per-unit
/// decomposition table and returns the per-layer values.
pub fn trace_units(
    units: &[Unit],
    refs: &[String],
    exec: &Executor,
    rounds: Rounds,
    window: Duration,
    out: &mut Outcome,
) -> Result<Layers, String> {
    let n = units.len();
    let mut per_unit: Vec<UnitTrace> = (0..n).map(|_| UnitTrace::default()).collect();
    let mut raw_globals: Vec<Option<Distribution>> = vec![None; n];
    let mut pass_counts: Vec<Layers> = Vec::new();

    let start = Instant::now();
    loop {
        let mut counts = Layers::default();
        for (i, u) in units.iter().enumerate() {
            let t = Instant::now();
            let plain = u.mitigate(exec);
            let untraced = ms_since(t);
            out.attempted += 1;
            check(out, &u.name, plain.as_ref(), &refs[i]);

            let mut pipe = Layers::default();
            let t = Instant::now();
            let step = stepwise(u, exec, rounds, &mut pipe);
            let traced = ms_since(t);
            out.attempted += 1;
            let what = format!("{} stepwise", u.name);
            check(out, &what, step.as_ref().map(|st| &st.report), &refs[i]);
            let Ok(step) = step else { continue };

            let mut extra = Layers::default();
            let raw = &mut raw_globals[i];
            if let Err(e) = decompose(u, exec, &step, &pipe, raw, &mut extra, &mut counts) {
                out.fail(e);
            }
            let ut = &mut per_unit[i];
            ut.pipe.push(pipe);
            ut.extra.push(extra);
            ut.traced_ms.push(traced);
            ut.untraced_ms.push(untraced);
        }
        pass_counts.push(counts);
        if start.elapsed() >= window {
            break;
        }
    }
    // Counts are deterministic: every pass must see the same ones.
    if pass_counts.windows(2).any(|w| w[0] != w[1]) {
        out.fail("per-layer counts differ between passes".to_string());
    }

    let passes = per_unit.iter().map(|u| u.pipe.len()).min().unwrap_or(0);
    if passes == 0 {
        return Err("no complete traced pass".to_string());
    }
    // Per pass: layer time summed over the units, then per mitigation.
    let per_pass = |f: &dyn Fn(&UnitTrace, usize) -> f64| -> Vec<f64> {
        (0..passes)
            .map(|p| per_unit.iter().map(|u| f(u, p)).sum::<f64>() / n as f64)
            .collect()
    };
    let mut layers = pass_counts.swap_remove(0);
    for name in crate::layers::PIPE_SPANS {
        layers.set(name, median(&per_pass(&|u, p| u.pipe[p].get(name))));
    }
    for name in crate::layers::EXTRA_SPANS {
        layers.set(name, median(&per_pass(&|u, p| u.extra[p].get(name))));
    }
    let rounds = layers.get("core.session_rounds").max(1.0);
    layers.set(
        "core.round_run_batch_ms",
        layers.get("sim.run_batch_ms") * n as f64 / rounds,
    );
    let traced = per_pass(&|u, p| u.traced_ms[p]);
    let untraced = per_pass(&|u, p| u.untraced_ms[p]);
    let covered = per_pass(&|u, p| u.pipe[p].total());
    let later = per_pass(&|u, p| u.extra[p].get("core.later_rounds_ms"));
    let share = |num: &[f64]| -> f64 {
        median(
            &num.iter()
                .zip(&traced)
                .map(|(a, b)| a / b)
                .collect::<Vec<_>>(),
        )
    };
    layers.set("core.round2_rerun_share", share(&later));
    layers.set("trace.coverage", share(&covered));
    layers.set(
        "trace.overhead_ms",
        median(
            &traced
                .iter()
                .zip(&untraced)
                .map(|(a, b)| a - b)
                .collect::<Vec<_>>(),
        ),
    );
    layers.derive_ratios();

    println!("North-star decomposition, median ms per mitigation over {passes} passes:");
    println!(
        "{:<20} {:>8} {:>9} {:>8} {:>9} {:>9} {:>9} {:>9}",
        "unit", "plan", "global", "subsets", "co-sched", "recomb", "traced", "untraced"
    );
    for (u, t) in units.iter().zip(&per_unit) {
        let pipe = |name: &str| median(&t.pipe.iter().map(|s| s.get(name)).collect::<Vec<_>>());
        let extra = |name: &str| median(&t.extra.iter().map(|s| s.get(name)).collect::<Vec<_>>());
        println!(
            "{:<20} {:>8.3} {:>9.3} {:>8.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            u.name,
            pipe("core.plan_ms"),
            extra("sim.global_ms"),
            extra("sim.subset_ms"),
            extra("sim.co_schedule_ms"),
            pipe("core.scatter_ms") + pipe("core.recombine_ms"),
            median(&t.traced_ms),
            median(&t.untraced_ms),
        );
    }
    Ok(layers)
}
