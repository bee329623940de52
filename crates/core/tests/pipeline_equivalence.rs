//! The staged pipeline must be indistinguishable from the serial reference:
//! `plan → execute → recombine` reproduces the serial per-subset oracle
//! ([`legacy_oracle`], inlined below) **bit for bit** (distribution,
//! locals, stats) across random workloads, subset sizes, and noise models
//! — plus unit tests for plan-level deduplication, order-independent stats
//! accounting, and the typed error surface.

use proptest::prelude::*;
use qt_algos::{bernstein_vazirani, qaoa::QaoaParams, qaoa_maxcut, ring_graph, vqe_ansatz};
use qt_baselines::OverheadStats;
use qt_circuit::Circuit;
use qt_core::{
    run_qutracer, trace_pair, trace_single, PlanError, QuTracer, QuTracerConfig, QuTracerReport,
    SkippedSubset, TraceOutcome,
};
use qt_dist::{recombine, Distribution};
use qt_sim::{Backend, Executor, NoiseModel, Program, ReadoutModel, Runner};

/// The pre-pipeline reference implementation, preserved verbatim as the
/// equivalence oracle: traces every subset serially against the runner,
/// one small batch at a time. This used to ship as
/// `qt_core::run_qutracer_legacy`; it now lives only here, where its sole
/// remaining job — pinning down the pipeline's exact semantics — is done.
fn legacy_oracle<R: Runner>(
    runner: &R,
    circuit: &Circuit,
    measured: &[usize],
    config: &QuTracerConfig,
) -> QuTracerReport {
    assert!(
        config.subset_size == 1 || config.subset_size == 2,
        "subset size must be 1 or 2"
    );
    let program = Program::from_circuit(circuit);
    let global_out = runner.run(&program, measured);
    let global = global_out.dist.clone();

    // Enumerate subsets as positions into `measured` (the shapes
    // `QuTracer::plan` produces: singles, cyclic pairs, or disjoint pairs).
    let subsets: Vec<Vec<usize>> = if config.subset_size == 1 {
        (0..measured.len()).map(|p| vec![p]).collect()
    } else if config.symmetric_subsets {
        (0..measured.len())
            .map(|p| vec![p, (p + 1) % measured.len()])
            .collect()
    } else {
        let mut v = Vec::new();
        let mut start = 0;
        while start < measured.len() {
            let end = (start + 2).min(measured.len());
            let lo = end.saturating_sub(2);
            v.push((lo..end).collect());
            start = end;
        }
        v
    };

    let mut locals: Vec<(Distribution, Vec<usize>)> = Vec::new();
    let mut skipped: Vec<SkippedSubset> = Vec::new();
    let mut subset_stats = Vec::new();
    let mut shared: Option<TraceOutcome> = None;
    let skip = |skipped: &mut Vec<SkippedSubset>,
                qubits: Vec<usize>,
                positions: &[usize],
                e: qt_circuit::passes::UnsupportedCoupling| {
        skipped.push(SkippedSubset {
            qubits: qubits.clone(),
            positions: positions.to_vec(),
            reason: PlanError::coupling(qubits, e),
        });
    };

    for positions in &subsets {
        let qubits: Vec<usize> = positions.iter().map(|&p| measured[p]).collect();
        let outcome = if config.symmetric_subsets && config.subset_size == 2 {
            if shared.is_none() {
                shared = match trace_pair(runner, circuit, [qubits[0], qubits[1]], &config.trace) {
                    Ok(o) => Some(o),
                    Err(e) => {
                        skip(&mut skipped, qubits, positions, e);
                        continue;
                    }
                };
            }
            Some(shared.clone().expect("set above"))
        } else {
            let traced = if config.subset_size == 1 {
                trace_single(runner, circuit, qubits[0], &config.trace)
            } else {
                trace_pair(runner, circuit, [qubits[0], qubits[1]], &config.trace)
            };
            match traced {
                Ok(o) => Some(o),
                Err(e) => {
                    skip(&mut skipped, qubits.clone(), positions, e);
                    None
                }
            }
        };
        if let Some(o) = outcome {
            if !(config.symmetric_subsets && !locals.is_empty() && config.subset_size == 2) {
                subset_stats.push(o.stats);
            }
            locals.push((o.local, positions.clone()));
        }
    }

    let refined =
        recombine::try_bayesian_update_all(&global, locals.iter().map(|(d, p)| (d, p.as_slice())))
            .expect("oracle locals match their planned positions");
    let n_mitigation_circuits: usize = subset_stats.iter().map(|s| s.n_circuits).sum();
    let total_2q: usize = subset_stats.iter().map(|s| s.total_two_qubit_gates).sum();
    QuTracerReport {
        distribution: refined,
        global,
        locals,
        skipped,
        stats: OverheadStats {
            n_circuits: 1 + n_mitigation_circuits,
            normalized_shots: n_mitigation_circuits as f64,
            avg_two_qubit_gates: if n_mitigation_circuits > 0 {
                total_2q as f64 / n_mitigation_circuits as f64
            } else {
                0.0
            },
            global_two_qubit_gates: global_out.two_qubit_gates,
            batch: None,
            total_shots: None,
            round_shots: None,
            engine_mix: None,
            failures: None,
        },
        subset_stats,
    }
}

/// Bitwise equality of two distributions' nonzero `(outcome, mass)`
/// streams — representation-independent and exact.
fn assert_dist_bits(a: &Distribution, b: &Distribution, what: &str) {
    assert_eq!(a.n_bits(), b.n_bits(), "{what}: width");
    let xs: Vec<(u64, f64)> = a.iter().collect();
    let ys: Vec<(u64, f64)> = b.iter().collect();
    assert_eq!(xs.len(), ys.len(), "{what}: support size");
    for ((i, x), (j, y)) in xs.iter().zip(&ys) {
        assert_eq!(i, j, "{what}: support index");
        assert_bits(*x, *y, &format!("{what}[{i}]"));
    }
}

fn assert_bits(a: f64, b: f64, what: &str) {
    assert!(
        a.to_bits() == b.to_bits(),
        "{what}: {a:?} != {b:?} (bitwise)"
    );
}

/// Bit-for-bit equality of two framework reports.
fn assert_reports_identical(pipeline: &QuTracerReport, legacy: &QuTracerReport) {
    assert_dist_bits(&pipeline.distribution, &legacy.distribution, "distribution");
    assert_dist_bits(&pipeline.global, &legacy.global, "global");
    assert_eq!(pipeline.locals.len(), legacy.locals.len(), "locals count");
    for (i, ((dp, pp), (dl, pl))) in pipeline.locals.iter().zip(&legacy.locals).enumerate() {
        assert_eq!(pp, pl, "locals[{i}] positions");
        assert_dist_bits(dp, dl, &format!("locals[{i}]"));
    }
    assert_eq!(pipeline.subset_stats, legacy.subset_stats, "subset stats");
    assert_eq!(pipeline.stats.n_circuits, legacy.stats.n_circuits);
    assert_bits(
        pipeline.stats.normalized_shots,
        legacy.stats.normalized_shots,
        "normalized_shots",
    );
    assert_bits(
        pipeline.stats.avg_two_qubit_gates,
        legacy.stats.avg_two_qubit_gates,
        "avg_two_qubit_gates",
    );
    assert_eq!(
        pipeline.stats.global_two_qubit_gates,
        legacy.stats.global_two_qubit_gates
    );
    assert_eq!(pipeline.skipped.len(), legacy.skipped.len(), "skipped");
    for (a, b) in pipeline.skipped.iter().zip(&legacy.skipped) {
        assert_eq!(a.qubits, b.qubits);
    }
}

/// A random paper workload with its measured register.
fn arb_workload() -> impl Strategy<Value = (Circuit, Vec<usize>)> {
    prop_oneof![
        // VQE ansatz: n, layers, seed.
        (4usize..6, 1usize..3, 0u64..100)
            .prop_map(|(n, layers, seed)| { (vqe_ansatz(n, layers, seed), (0..n).collect()) }),
        // QAOA on a ring: n, p, seed.
        (4usize..6, 1usize..3, 0u64..100).prop_map(|(n, p, seed)| {
            (
                qaoa_maxcut(n, &ring_graph(n), &QaoaParams::seeded(p, seed)),
                (0..n).collect(),
            )
        }),
        // Bernstein–Vazirani: n, secret.
        (4usize..6, 0u64..32).prop_map(|(n, secret)| {
            (
                bernstein_vazirani(n, secret & ((1 << n) - 1)),
                (0..n).collect(),
            )
        }),
    ]
}

fn arb_config() -> impl Strategy<Value = QuTracerConfig> {
    (
        1usize..3,
        prop_oneof![Just(false), Just(true)],
        prop_oneof![Just(false), Just(true)],
        prop_oneof![Just(None), (0usize..3).prop_map(Some)],
    )
        .prop_map(|(size, symmetric, traceback, checked)| {
            let mut cfg = if size == 1 {
                QuTracerConfig::single()
            } else {
                QuTracerConfig::pairs()
            };
            if symmetric {
                cfg = cfg.with_symmetric_subsets();
            }
            cfg.trace.state_traceback = traceback;
            cfg.trace.checked_layers = checked;
            cfg
        })
}

fn arb_noise() -> impl Strategy<Value = NoiseModel> {
    prop_oneof![
        Just(NoiseModel::ideal()),
        (0.0005f64..0.004, 0.005f64..0.04, 0.01f64..0.06)
            .prop_map(|(p1, p2, ro)| { NoiseModel::depolarizing(p1, p2).with_readout(ro) }),
        (
            0.001f64..0.003,
            0.01f64..0.03,
            0.01f64..0.04,
            0.005f64..0.03
        )
            .prop_map(|(p1, p2, ro, xt)| {
                NoiseModel::depolarizing(p1, p2)
                    .with_readout_model(ReadoutModel::with_crosstalk(ro, xt))
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline acceptance property: batched-dedup pipeline ==
    /// serial legacy path, bit for bit.
    #[test]
    fn pipeline_reproduces_legacy_bit_for_bit(
        (circ, measured) in arb_workload(),
        cfg in arb_config(),
        noise in arb_noise(),
    ) {
        let exec = Executor::with_backend(noise, Backend::DensityMatrix);
        let legacy = legacy_oracle(&exec, &circ, &measured, &cfg);
        let report = run_qutracer(&exec, &circ, &measured, &cfg);
        assert_reports_identical(&report, &legacy);
    }
}

#[test]
fn symmetric_subsets_dedup_to_one_executed_ensemble() {
    // 6 cyclic pairs on a symmetric QAOA ring must share a single walk:
    // the batch contains the representative's programs exactly once.
    let n = 6;
    let circ = qaoa_maxcut(n, &ring_graph(n), &QaoaParams::seeded(1, 5));
    let measured: Vec<usize> = (0..n).collect();
    let cfg = QuTracerConfig::pairs().with_symmetric_subsets();
    let plan = QuTracer::plan(&circ, &measured, &cfg).unwrap();

    let summaries = plan.subset_summaries();
    assert_eq!(summaries.len(), n, "all cyclic pairs planned");
    let distinct: Vec<_> = summaries.iter().filter(|s| !s.shared).collect();
    assert_eq!(distinct.len(), 1, "one distinct (representative) walk");
    let k = distinct[0].n_requests;
    assert!(k > 0);
    // Every pair logically requests the representative's k programs…
    assert_eq!(plan.n_requests(), 1 + n * k);
    // …but the executed batch holds them once.
    assert_eq!(plan.n_programs(), 1 + k);

    // And the fan-out reproduces the legacy symmetric path exactly.
    let exec = Executor::with_backend(
        NoiseModel::depolarizing(0.002, 0.02).with_readout(0.03),
        Backend::DensityMatrix,
    );
    let report = plan.execute(&exec).unwrap().recombine().unwrap();
    let legacy = legacy_oracle(&exec, &circ, &measured, &cfg);
    assert_reports_identical(&report, &legacy);
}

#[test]
fn stats_derive_from_plan_and_count_shared_ensembles_once() {
    // Regression for the symmetric-subsets stats accounting: the old
    // `!(symmetric && !locals.is_empty() && subset_size == 2)` guard made
    // `OverheadStats` an artifact of iteration order. Plan-derived stats
    // count every distinct walk exactly once.
    let n = 6;
    let circ = qaoa_maxcut(n, &ring_graph(n), &QaoaParams::seeded(1, 9));
    let measured: Vec<usize> = (0..n).collect();
    let cfg = QuTracerConfig::pairs().with_symmetric_subsets();
    let exec = Executor::with_backend(
        NoiseModel::depolarizing(0.002, 0.02),
        Backend::DensityMatrix,
    );

    let plan = QuTracer::plan(&circ, &measured, &cfg).unwrap();
    let report = plan.execute(&exec).unwrap().recombine().unwrap();

    // One shared walk → one subset_stats entry, not six.
    assert_eq!(report.subset_stats.len(), 1);
    assert_eq!(
        report.stats.n_circuits,
        1 + report.subset_stats[0].n_circuits,
        "n_circuits counts the shared ensemble once"
    );
    // The plan preview agrees with the executed accounting on a plain
    // (non-transpiling) executor.
    let preview = plan.stats();
    assert_eq!(preview.n_circuits, report.stats.n_circuits);
    assert_eq!(
        preview.global_two_qubit_gates,
        report.stats.global_two_qubit_gates
    );
    assert!((preview.avg_two_qubit_gates - report.stats.avg_two_qubit_gates).abs() < 1e-12);

    // Non-symmetric pairs: one stats entry per disjoint pair.
    let plain = QuTracer::plan(&circ, &measured, &QuTracerConfig::pairs()).unwrap();
    let plain_report = plain.execute(&exec).unwrap().recombine().unwrap();
    assert_eq!(plain_report.subset_stats.len(), n / 2);
}

#[test]
fn plan_records_execution_trie_stats() {
    // The plan's overhead summary carries the prefix-sharing preview: a
    // QSPC ensemble batch shares most of its gate stream, and the
    // executed report surfaces the same numbers.
    let n = 6;
    let circ = qaoa_maxcut(n, &ring_graph(n), &QaoaParams::seeded(3, 9));
    let measured: Vec<usize> = (0..n).collect();
    let cfg = QuTracerConfig::pairs().with_symmetric_subsets();
    let plan = QuTracer::plan(&circ, &measured, &cfg).unwrap();

    let batch = plan.batch_stats();
    assert_eq!(batch.n_jobs, plan.n_programs());
    assert!(batch.unique_gates < batch.request_gates);
    assert!(
        batch.shared_gate_fraction() > 0.3,
        "ensemble batches share substantial prefix work: {batch:?}"
    );
    assert_eq!(plan.stats().batch, Some(batch), "preview carries the stats");

    let exec = Executor::with_backend(
        NoiseModel::depolarizing(0.002, 0.02),
        Backend::DensityMatrix,
    );
    let report = plan.execute(&exec).unwrap().recombine().unwrap();
    assert_eq!(report.stats.batch, Some(batch), "report carries the stats");
    // The serial legacy path makes no batching claim.
    let legacy = legacy_oracle(&exec, &circ, &measured, &cfg);
    assert_eq!(legacy.stats.batch, None);
}

#[test]
fn plan_rejects_bad_subset_size_with_typed_error() {
    let circ = vqe_ansatz(4, 1, 1);
    let mut cfg = QuTracerConfig::single();
    cfg.subset_size = 3;
    let err = QuTracer::plan(&circ, &[0, 1, 2, 3], &cfg).unwrap_err();
    assert_eq!(err, PlanError::UnsupportedSubsetSize { size: 3 });

    let err = QuTracer::plan(&circ, &[0], &QuTracerConfig::pairs()).unwrap_err();
    assert_eq!(err, PlanError::MeasuredTooSmall { needed: 2, got: 1 });

    // A measured qubit outside the 4-qubit register, or listed twice, is
    // rejected before any planning under either subset size.
    for cfg in [QuTracerConfig::single(), QuTracerConfig::pairs()] {
        let err = QuTracer::plan(&circ, &[0, 9], &cfg).unwrap_err();
        assert_eq!(
            err,
            PlanError::InvalidMeasured {
                qubit: 9,
                n_qubits: 4
            }
        );
        assert!(err.to_string().contains("outside"), "{err}");
        let err = QuTracer::plan(&circ, &[1, 1], &cfg).unwrap_err();
        assert_eq!(
            err,
            PlanError::InvalidMeasured {
                qubit: 1,
                n_qubits: 4
            }
        );
        assert!(err.to_string().contains("more than once"), "{err}");
    }
}

#[test]
fn skipped_subsets_keep_their_typed_reason() {
    // A CX *target* inside the subset has no Z check: qubit 1 must be
    // skipped with an UnsupportedCoupling reason naming it, while qubit 0
    // (the control) stays traceable.
    let mut circ = Circuit::new(2);
    circ.h(0).cx(0, 1);
    let plan = QuTracer::plan(&circ, &[0, 1], &QuTracerConfig::single()).unwrap();
    assert_eq!(plan.n_subsets(), 1);
    assert_eq!(plan.skipped().len(), 1);
    let skip = &plan.skipped()[0];
    assert_eq!(skip.qubits, vec![1]);
    assert!(skip.is_coupling(), "reason: {:?}", skip.reason);
    match &skip.reason {
        PlanError::UnsupportedCoupling { subset, .. } => assert_eq!(subset, &vec![1]),
        other => panic!("wrong reason: {other:?}"),
    }

    // The reason survives into the executed report.
    let exec = Executor::with_backend(NoiseModel::ideal(), Backend::DensityMatrix);
    let report = plan.execute(&exec).unwrap().recombine().unwrap();
    assert_eq!(report.skipped.len(), 1);
    assert!(report.skipped[0].is_coupling());
}

#[test]
fn artifacts_from_wrong_plan_are_rejected() {
    use qt_core::ExecError;
    let circ = vqe_ansatz(4, 1, 3);
    let measured = [0usize, 1, 2, 3];
    let plan = QuTracer::plan(&circ, &measured, &QuTracerConfig::single()).unwrap();

    // A runner that silently drops results violates the contract and is
    // caught instead of panicking or mis-zipping.
    struct Truncating(Executor);
    impl qt_sim::Runner for Truncating {
        fn run(&self, p: &qt_sim::Program, m: &[usize]) -> qt_sim::RunOutput {
            self.0.run(p, m)
        }
        fn run_batch(&self, jobs: &[qt_sim::BatchJob]) -> Vec<qt_sim::RunOutput> {
            let mut outs = self.0.run_batch(jobs);
            outs.pop();
            outs
        }
    }
    let bad = Truncating(Executor::with_backend(
        NoiseModel::ideal(),
        Backend::DensityMatrix,
    ));
    match plan.execute(&bad) {
        Err(ExecError::ResultCountMismatch { expected, got }) => {
            assert_eq!(expected, got + 1);
        }
        other => panic!("expected ResultCountMismatch, got {other:?}"),
    }
}

#[test]
fn device_executor_pipeline_matches_legacy() {
    // The transpiling runner exercises post-transpilation gate counts and
    // its own batch fan-out; the pipeline must still agree bit for bit.
    let circ = bernstein_vazirani(4, 0b1011);
    let measured: Vec<usize> = (0..4).collect();
    let exec = qt_device::DeviceExecutor::new(qt_device::Device::fake_hanoi());
    let cfg = QuTracerConfig::single();
    let legacy = legacy_oracle(&exec, &circ, &measured, &cfg);
    let report = run_qutracer(&exec, &circ, &measured, &cfg);
    assert_reports_identical(&report, &legacy);
}

#[test]
fn report_records_the_engine_mix() {
    // The recombined report and the plan-side preview both record which
    // simulation engines the batch resolved to, and they agree.
    let n = 6;
    let circ = qaoa_maxcut(n, &ring_graph(n), &QaoaParams::seeded(5, 9));
    let measured: Vec<usize> = (0..n).collect();
    let cfg = QuTracerConfig::pairs();
    let exec = Executor::with_backend(
        NoiseModel::depolarizing(0.002, 0.02),
        Backend::DensityMatrix,
    );

    let plan = QuTracer::plan(&circ, &measured, &cfg).unwrap();
    let report = plan.execute(&exec).unwrap().recombine().unwrap();
    let mix = report
        .stats
        .engine_mix
        .as_ref()
        .expect("Executor reports its engine mix");
    let total: usize = mix.iter().map(|(_, c)| c).sum();
    assert_eq!(total, plan.n_programs(), "every planned job is accounted");
    assert_eq!(mix.len(), 1, "forced backend resolves uniformly: {mix:?}");
    assert_eq!(mix[0].0, "density-matrix");

    // Plan-time preview (no execution) agrees with the executed record.
    let preview = plan.stats_for(&exec);
    assert_eq!(preview.engine_mix, report.stats.engine_mix);
    assert_eq!(preview.n_circuits, report.stats.n_circuits);
}
