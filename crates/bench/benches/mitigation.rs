//! Performance of the mitigation stack: QSPC checks, Bayesian
//! recombination, Hellinger fidelity and wire-cut construction.

use criterion::{criterion_group, criterion_main, Criterion};
use qt_circuit::Circuit;
use qt_core::{run_qutracer, trace_single, QuTracerConfig, TraceConfig};
use qt_dist::{hellinger_fidelity, recombine, Distribution};
use qt_math::Pauli;
use qt_pcs::{combine_mitigated, tabulate, QspcConfig, QspcSpec, SubsetPauli};
use qt_sim::{Backend, Executor, NoiseModel, Runner};
use std::collections::BTreeMap;
use std::hint::black_box;

fn vqe_pieces(n: usize) -> (Circuit, Circuit) {
    let mut prefix = Circuit::new(n);
    for q in 0..n {
        prefix.ry(q, 0.3 + q as f64 * 0.1);
    }
    let mut segment = Circuit::new(n);
    for q in 0..n - 1 {
        segment.cz(q, q + 1);
    }
    for q in 1..n {
        segment.ry(q, 0.2);
    }
    (prefix, segment)
}

/// One single-qubit check of `⟨Z⟩` in plan form: build the ensemble,
/// execute it as one batch, tabulate and combine.
fn single_check(
    exec: &Executor,
    spec: &QspcSpec,
    rho_in: &qt_math::Matrix,
) -> (BTreeMap<SubsetPauli, f64>, f64) {
    let outputs = [[Pauli::Z, Pauli::I]];
    let ens = spec.ensemble(&spec.settings(&outputs));
    let (e, _) = tabulate(&ens.keys, &exec.run_batch(&ens.jobs));
    combine_mitigated(&spec.config, rho_in, &outputs, &e)
}

fn bench_qspc(c: &mut Criterion) {
    let mut group = c.benchmark_group("qspc");
    group.sample_size(10);
    let exec = Executor::with_backend(
        NoiseModel::depolarizing(0.001, 0.01).with_readout(0.02),
        Backend::DensityMatrix,
    );
    let (prefix, segment) = vqe_pieces(6);
    let rho_in = qt_math::states::PrepState::Plus.projector();
    group.bench_function("single_check_6q", |b| {
        let spec = QspcSpec {
            qubits: &[0],
            prefix: &prefix,
            segment: &segment,
            config: QspcConfig::default(),
        };
        b.iter(|| black_box(single_check(&exec, &spec, &rho_in)))
    });
    group.bench_function("trace_single_6q", |b| {
        let circ = qt_algos::vqe_ansatz(6, 1, 3);
        b.iter(|| black_box(trace_single(&exec, &circ, 2, &TraceConfig::default())))
    });
    group.bench_function("full_framework_5q_vqe", |b| {
        let circ = qt_algos::vqe_ansatz(5, 1, 3);
        let measured: Vec<usize> = (0..5).collect();
        b.iter(|| {
            black_box(run_qutracer(
                &exec,
                &circ,
                &measured,
                &QuTracerConfig::single(),
            ))
        })
    });
    group.finish();
}

fn bench_distributions(c: &mut Criterion) {
    let mut group = c.benchmark_group("distributions");
    let n_bits = 15;
    let dim = 1usize << n_bits;
    let probs: Vec<f64> = (0..dim).map(|i| (i % 97) as f64).collect();
    let g = Distribution::try_from_probs(n_bits, probs)
        .expect("dense table fits its bits")
        .normalized();
    let local = Distribution::try_from_probs(2, vec![0.4, 0.1, 0.3, 0.2]).expect("2-bit table");
    group.bench_function("bayesian_update_15bit", |b| {
        b.iter(|| black_box(recombine::try_bayesian_update(&g, &local, &[3, 9])))
    });
    group.bench_function("hellinger_fidelity_15bit", |b| {
        b.iter(|| black_box(hellinger_fidelity(&g, &g)))
    });
    group.bench_function("marginal_15bit", |b| {
        b.iter(|| black_box(g.marginal(&[0, 5, 11])))
    });
    group.finish();
}

fn bench_wire_cut(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_cut");
    let mut circ = Circuit::new(4);
    circ.h(0).cx(0, 1).ry(0, 0.9).cz(0, 2).cx(2, 3);
    let cut = qt_cut::CutPoint {
        qubit: 0,
        position: 2,
    };
    group.bench_function("build_cut_programs", |b| {
        let terms = qt_cut::reduced_cut_terms();
        b.iter(|| black_box(qt_cut::build_cut_programs(&circ, cut, &terms)))
    });
    group.finish();
}

criterion_group!(benches, bench_qspc, bench_distributions, bench_wire_cut);
criterion_main!(benches);
