//! Finite-shot regression for the Fig. 2 motivating workload: at a
//! hardware-realistic shot budget (≥10k shots per circuit) the sampled
//! pipeline must reproduce the exact pipeline's method ordering
//! (original < jigsaw < QuTracer) and land within shot noise of the exact
//! fidelities.

use qt_algos::iqft_example;
use qt_baselines::run_jigsaw;
use qt_bench::{fidelity_vs_ideal, BestReadoutRunner, SampledRunner};
use qt_core::{QuTracer, QuTracerConfig, ShotPolicy};
use qt_dist::hellinger_fidelity_sampled;
use qt_sim::{sample_counts_deterministic, Backend, Executor, NoiseModel, ReadoutModel, Runner};

fn fig2_noise() -> NoiseModel {
    let mut readout = ReadoutModel::default();
    readout.per_qubit.insert(0, (0.1, 0.1));
    readout.per_qubit.insert(1, (0.3, 0.3));
    readout.per_qubit.insert(2, (0.3, 0.3));
    readout.per_qubit.insert(3, (0.3, 0.3));
    NoiseModel::depolarizing(0.01, 0.1).with_readout_model(readout)
}

fn methods<R: Runner>(exec: &R) -> (f64, f64, f64) {
    let circ = iqft_example();
    let measured = [0usize, 1, 2];
    let report = QuTracer::plan(&circ, &measured, &QuTracerConfig::single())
        .unwrap()
        .execute(exec)
        .unwrap()
        .recombine()
        .unwrap();
    let jig = run_jigsaw(exec, &circ, &measured, 1);
    (
        fidelity_vs_ideal(&report.global, &circ, &measured),
        fidelity_vs_ideal(&jig.distribution, &circ, &measured),
        fidelity_vs_ideal(&report.distribution, &circ, &measured),
    )
}

#[test]
fn sampled_fig2_reproduces_exact_method_ordering() {
    let noise = fig2_noise();
    let plain = Executor::with_backend(noise.clone(), Backend::DensityMatrix);
    let exec = BestReadoutRunner::new(plain.clone(), &noise, 3);
    let (orig, jig, qt) = methods(&exec);
    assert!(orig < jig && jig < qt, "exact ordering: {orig} {jig} {qt}");

    let shots = 16_384; // >= the 10k budget where ordering must be stable
    let sampled_exec = SampledRunner::new(BestReadoutRunner::new(plain, &noise, 3), shots, 0xF16);
    let (s_orig, s_jig, s_qt) = methods(&sampled_exec);
    assert!(
        s_orig < s_jig && s_jig < s_qt,
        "sampled ordering must match exact: {s_orig} {s_jig} {s_qt}"
    );
    // And each sampled fidelity sits within loose shot noise of exact.
    for (s, e) in [(s_orig, orig), (s_jig, jig), (s_qt, qt)] {
        assert!((s - e).abs() < 0.05, "sampled {s} vs exact {e}");
    }
}

#[test]
fn execute_sampled_matches_sampled_runner_regime() {
    // The plan-level finite-shot path (a `run_sampled` session) must land
    // in the same fidelity regime as the runner-level SampledRunner
    // harness on the same workload and budget.
    let noise = fig2_noise();
    let exec = Executor::with_backend(noise, Backend::DensityMatrix);
    let circ = iqft_example();
    let measured = [0usize, 1, 2];
    let plan = QuTracer::plan(&circ, &measured, &QuTracerConfig::single()).unwrap();
    let exact = plan.execute(&exec).unwrap().recombine().unwrap();
    let total = 16_384 * plan.n_programs();
    let sampled = plan
        .run_sampled(&exec, total, ShotPolicy::Uniform, 0xCAFE)
        .unwrap();
    let f = qt_dist::hellinger_fidelity(&sampled.distribution, &exact.distribution);
    assert!(f > 0.995, "sampled vs exact refined distribution: {f}");
    assert_eq!(sampled.stats.total_shots, Some(total as u64));

    // The shot-noise error bar machinery agrees with reality: two
    // independently seeded global samples are consistent within 5 sigma.
    let global = plan.programs().next().unwrap().0.clone();
    let dist = exec.noisy_distribution(&global.program, &global.measured);
    let a = sample_counts_deterministic(&dist, 20_000, 1, 1);
    let b = sample_counts_deterministic(&dist, 20_000, 2, 1);
    let est = hellinger_fidelity_sampled(&a, &b);
    assert!(
        est.value > 0.99,
        "same distribution resampled: {}",
        est.value
    );
    assert!(est.std_error < 0.01, "20k-shot bar: {}", est.std_error);
}
