//! Performance of the simulation substrate: state-vector and
//! density-matrix gate kernels, noise channels, and trajectory throughput.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use qt_circuit::{Gate, Instruction};
use qt_sim::{
    kernel, DensityMatrix, Executor, KrausChannel, NoiseModel, Program, StateVector,
    TrajectoryConfig,
};
use std::hint::black_box;

/// Generic `apply_op` vs the classified specialized kernels, per gate class
/// and register size — the headline rows of `BENCH_kernels.json`. Each
/// iteration applies a full layer of the gate (every qubit, or every
/// adjacent pair) so the ratio reflects steady-state kernel throughput.
fn bench_kernel_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    for &n in &[12usize, 16] {
        let one_q: Vec<(&str, Gate)> = vec![
            ("h", Gate::H),         // SingleQubitDense: stride butterfly
            ("rz", Gate::Rz(0.37)), // Diagonal: in-place factors
            ("x", Gate::X),         // Permutation: amplitude swap
            ("s", Gate::S),         // ControlledPhase (k=1)
        ];
        for (label, gate) in one_q {
            let m = gate.matrix();
            group.bench_function(format!("{label}_generic_{n}q"), |b| {
                let mut sv = StateVector::zero(n);
                b.iter(|| {
                    for q in 0..n {
                        kernel::apply_op_generic(sv.amplitudes_mut(), n, &m, &[q]);
                    }
                    sv.amplitudes()[0]
                })
            });
            group.bench_function(format!("{label}_specialized_{n}q"), |b| {
                let mut sv = StateVector::zero(n);
                b.iter(|| {
                    for q in 0..n {
                        kernel::apply_op(sv.amplitudes_mut(), n, &m, &[q]);
                    }
                    sv.amplitudes()[0]
                })
            });
        }
        let two_q: Vec<(&str, Gate)> = vec![
            ("cp", Gate::Cp(0.9)),   // ControlledPhase (k=2)
            ("cx", Gate::Cx),        // Permutation (two-qubit)
            ("crx", Gate::Crx(0.5)), // TwoQubitDense, control=1 subspace
        ];
        for (label, gate) in two_q {
            let m = gate.matrix();
            group.bench_function(format!("{label}_generic_{n}q"), |b| {
                let mut sv = StateVector::zero(n);
                b.iter(|| {
                    for q in 0..n - 1 {
                        kernel::apply_op_generic(sv.amplitudes_mut(), n, &m, &[q, q + 1]);
                    }
                    sv.amplitudes()[0]
                })
            });
            group.bench_function(format!("{label}_specialized_{n}q"), |b| {
                let mut sv = StateVector::zero(n);
                b.iter(|| {
                    for q in 0..n - 1 {
                        kernel::apply_op(sv.amplitudes_mut(), n, &m, &[q, q + 1]);
                    }
                    sv.amplitudes()[0]
                })
            });
        }
        // Low-bit-target CX (operands [q+1, q]): the contiguous-run
        // `swap_with_slice` case of the dedicated CX kernel.
        let m = Gate::Cx.matrix();
        group.bench_function(format!("cx_lowbit_generic_{n}q"), |b| {
            let mut sv = StateVector::zero(n);
            b.iter(|| {
                for q in 0..n - 1 {
                    kernel::apply_op_generic(sv.amplitudes_mut(), n, &m, &[q + 1, q]);
                }
                sv.amplitudes()[0]
            })
        });
        group.bench_function(format!("cx_lowbit_specialized_{n}q"), |b| {
            let mut sv = StateVector::zero(n);
            b.iter(|| {
                for q in 0..n - 1 {
                    kernel::apply_op(sv.amplitudes_mut(), n, &m, &[q + 1, q]);
                }
                sv.amplitudes()[0]
            })
        });
    }
    group.finish();
}

fn bench_statevector_gates(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector");
    for &n in &[10usize, 14, 18] {
        group.bench_function(format!("h_chain_{n}q"), |b| {
            b.iter_batched(
                || StateVector::zero(n),
                |mut sv| {
                    for q in 0..n {
                        sv.apply_op(&Gate::H.matrix(), &[q]);
                    }
                    black_box(sv)
                },
                BatchSize::SmallInput,
            )
        });
        group.bench_function(format!("cx_chain_{n}q"), |b| {
            b.iter_batched(
                || StateVector::zero(n),
                |mut sv| {
                    for q in 0..n - 1 {
                        sv.apply_op(&Gate::Cx.matrix(), &[q, q + 1]);
                    }
                    black_box(sv)
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_density_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("density_matrix");
    group.sample_size(20);
    for &n in &[6usize, 8] {
        group.bench_function(format!("cz_layer_{n}q"), |b| {
            b.iter_batched(
                || DensityMatrix::zero(n),
                |mut rho| {
                    for q in 0..n - 1 {
                        rho.apply_instruction(&Instruction::new(Gate::Cz, vec![q, q + 1]));
                    }
                    black_box(rho)
                },
                BatchSize::SmallInput,
            )
        });
        group.bench_function(format!("depolarizing_fast_path_{n}q"), |b| {
            b.iter_batched(
                || DensityMatrix::zero(n),
                |mut rho| {
                    rho.apply_depolarizing(&[0, 1], 0.01);
                    black_box(rho)
                },
                BatchSize::SmallInput,
            )
        });
        group.bench_function(format!("depolarizing_kraus_{n}q"), |b| {
            let ch = KrausChannel::depolarizing(2, 0.01);
            b.iter_batched(
                || DensityMatrix::zero(n),
                |mut rho| {
                    rho.apply_kraus(ch.ops(), &[0, 1]);
                    black_box(rho)
                },
                BatchSize::SmallInput,
            )
        });
    }
    // The global of a fresh `service_zipf` request and of `qaoa_sampled`'s
    // 8-qubit unit: a two-layer 8-qubit QAOA ring on those workloads'
    // executor, whose `Backend::Auto` runs it on the density matrix.
    let ring = qt_algos::qaoa_maxcut(
        8,
        &qt_algos::ring_graph(8),
        &qt_algos::QaoaParams::seeded(2, 1),
    );
    let ring = Program::from_circuit(&ring);
    let measured: Vec<usize> = (0..8).collect();
    group.bench_function("qaoa8_ring_global", |b| {
        let exec = Executor::new(qt_bench::mumbai_uniform_noise());
        b.iter(|| black_box(exec.noisy_distribution(&ring, &measured)))
    });
    group.finish();
}

fn bench_trajectories(c: &mut Criterion) {
    let mut group = c.benchmark_group("trajectories");
    group.sample_size(10);
    let circ = qt_algos::vqe_ansatz(12, 1, 5);
    let program = Program::from_circuit(&circ);
    let measured: Vec<usize> = (0..12).collect();
    for &traj in &[256usize, 1024] {
        group.bench_function(format!("vqe12_{traj}traj"), |b| {
            let exec = Executor::with_backend(
                NoiseModel::depolarizing(0.001, 0.01),
                qt_sim::Backend::Trajectory(TrajectoryConfig {
                    n_trajectories: traj,
                    seed: 1,
                    n_threads: Some(2),
                }),
            );
            b.iter(|| black_box(exec.noisy_distribution(&program, &measured)))
        });
    }
    // The trajectory global of the end-to-end `qaoa_sampled` workload: a
    // two-layer 12-qubit QAOA ring on that workload's executor, whose
    // `Backend::Auto` runs 12 qubits as 2048 stratified trajectories.
    let ring = qt_algos::qaoa_maxcut(
        12,
        &qt_algos::ring_graph(12),
        &qt_algos::QaoaParams::seeded(2, 1),
    );
    let ring = Program::from_circuit(&ring);
    group.bench_function("qaoa12_ring_2048traj", |b| {
        let exec = Executor::new(qt_bench::mumbai_uniform_noise());
        b.iter(|| black_box(exec.noisy_distribution(&ring, &measured)))
    });
    group.finish();
}

/// Serial vs multi-threaded batched shot execution on a 16-qubit
/// trajectory workload — the scaling headline of the parallel `Backend`
/// engine. Row names embed the *effective* worker count
/// (`..._<threads>t`), and the all-threads row is skipped entirely on
/// single-core machines, where it would be an identical re-measurement of
/// the serial row.
fn bench_parallel_trajectories(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_trajectories");
    group.sample_size(10);
    let circ = qt_algos::vqe_ansatz(16, 1, 5);
    let program = Program::from_circuit(&circ);
    let measured: Vec<usize> = (0..16).collect();
    let cores = qt_sim::backend::available_threads();
    let mut rows: Vec<(String, usize)> = vec![("vqe16_256traj_serial_1t".into(), 1)];
    if cores > 1 {
        rows.push((format!("vqe16_256traj_allthreads_{cores}t"), cores));
    }
    for (label, threads) in rows {
        group.bench_function(label, |b| {
            let exec = Executor::with_backend(
                // Strong enough that stratification cannot skip the work.
                NoiseModel::depolarizing(0.02, 0.08),
                qt_sim::Backend::Trajectory(TrajectoryConfig {
                    n_trajectories: 256,
                    seed: 1,
                    n_threads: Some(threads),
                }),
            );
            b.iter(|| black_box(exec.noisy_distribution(&program, &measured)))
        });
    }
    group.finish();
}

/// Legacy per-subset execution vs the staged pipeline's batched, dedup'd
/// execution on a 6-qubit symmetric QAOA ring — the headline rows of
/// `BENCH_pipeline.json`. Row names embed the executed circuit counts
/// (`..._<K>circ`) so the report is self-describing: batched dedup runs the
/// 6 symmetric pairs' shared ensemble once instead of six times.
fn bench_pipeline(c: &mut Criterion) {
    use qt_core::{QuTracer, QuTracerConfig};
    use qt_sim::Runner;

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    let n = 6;
    let circ = qt_algos::qaoa_maxcut(
        n,
        &qt_algos::ring_graph(n),
        &qt_algos::qaoa::QaoaParams::seeded(1, 5),
    );
    let measured: Vec<usize> = (0..n).collect();
    let cfg = QuTracerConfig::pairs().with_symmetric_subsets();
    let exec = Executor::with_backend(
        NoiseModel::depolarizing(0.002, 0.02).with_readout(0.03),
        qt_sim::Backend::DensityMatrix,
    );

    // Circuit counts for the row labels, straight from the plan.
    let plan = QuTracer::plan(&circ, &measured, &cfg).expect("symmetric ring is traceable");
    let batched_circuits = plan.n_programs();
    let per_subset_circuits = plan.n_requests();

    // Naive per-subset execution: every cyclic pair traced independently,
    // one small serial batch at a time (what a runner loop without
    // plan-level dedup performs).
    group.bench_function(
        format!("legacy_per_subset_qaoa{n}_{per_subset_circuits}circ"),
        |b| {
            b.iter(|| {
                let global = exec.run(&Program::from_circuit(&circ), &measured);
                let mut locals = Vec::new();
                for p in 0..n {
                    let pair = [measured[p], measured[(p + 1) % n]];
                    let o = qt_core::trace_pair(&exec, &circ, pair, &cfg.trace)
                        .expect("traceable pair");
                    locals.push((o.local, vec![p, (p + 1) % n]));
                }
                black_box(
                    qt_dist::recombine::try_bayesian_update_all(
                        &global.dist,
                        locals.iter().map(|(d, p)| (d, p.as_slice())),
                    )
                    .expect("cyclic-pair locals match the measured register"),
                )
            })
        },
    );

    // Staged pipeline: one deduplicated batch for every subset.
    group.bench_function(
        format!("batched_dedup_qaoa{n}_{batched_circuits}circ"),
        |b| {
            b.iter(|| {
                let plan =
                    QuTracer::plan(&circ, &measured, &cfg).expect("symmetric ring is traceable");
                let report = plan
                    .execute(&exec)
                    .expect("batched execution")
                    .recombine()
                    .expect("recombination");
                black_box(report)
            })
        },
    );
    group.finish();
}

/// The no-sharing baseline of the `batch` and `shots` groups: one
/// `Runner::run` per job, whole jobs fanned out over scoped threads on the
/// whole machine (each job runs on its worker alone).
struct PerJob(Executor);

impl qt_sim::Runner for PerJob {
    fn run(&self, program: &Program, measured: &[usize]) -> qt_sim::RunOutput {
        self.0.run(program, measured)
    }

    fn run_batch(&self, jobs: &[qt_sim::BatchJob]) -> Vec<qt_sim::RunOutput> {
        let threads = qt_sim::backend::available_threads();
        qt_sim::backend::parallel_indexed(jobs.len(), threads, |i| {
            self.0.run(&jobs[i].program, &jobs[i].measured)
        })
    }
}

/// Trie-scheduled vs per-job batch execution on the 5-layer QAOA-6
/// pipeline workload (the deduplicated programs of the symmetric-pairs
/// plan; multi-layer QAOA is the paper's Table I sweep, and its
/// late-segment ensembles carry the long shared prefixes the trie
/// exploits) — the headline rows of `BENCH_batch.json`, with the batch
/// size embedded in the row names. The `trie` row is `Executor::run_batch`;
/// the `perjob` row is the [`PerJob`] baseline on the identical batch. The
/// bench asserts the two paths produce bit-identical outputs before timing
/// anything, so CI fails if the trie path stops being output-equivalent.
fn bench_batch_execution(c: &mut Criterion) {
    use qt_core::{QuTracer, QuTracerConfig};
    use qt_sim::{BatchJob, Runner};

    let mut group = c.benchmark_group("batch");
    group.sample_size(10);
    let (n, layers) = (6, 5);
    let circ = qt_algos::qaoa_maxcut(
        n,
        &qt_algos::ring_graph(n),
        &qt_algos::qaoa::QaoaParams::seeded(layers, 5),
    );
    let measured: Vec<usize> = (0..n).collect();
    let cfg = QuTracerConfig::pairs().with_symmetric_subsets();
    let plan = QuTracer::plan(&circ, &measured, &cfg).expect("symmetric ring is traceable");
    let jobs: Vec<BatchJob> = plan.programs().map(|(j, _)| j.clone()).collect();
    let k = jobs.len();
    let noise = NoiseModel::depolarizing(0.002, 0.02).with_readout(0.03);
    let trie = Executor::with_backend(noise, qt_sim::Backend::DensityMatrix);
    let perjob = PerJob(trie.clone());
    assert_eq!(
        trie.run_batch(&jobs),
        perjob.run_batch(&jobs),
        "trie-scheduled batch diverged from per-job execution"
    );
    group.bench_function(format!("trie_qaoa{n}x{layers}_{k}circ"), |b| {
        b.iter(|| black_box(trie.run_batch(&jobs)))
    });
    group.bench_function(format!("perjob_qaoa{n}x{layers}_{k}circ"), |b| {
        b.iter(|| black_box(perjob.run_batch(&jobs)))
    });
    group.finish();
}

/// Finite-shot batch execution: trie-integrated sampling (terminal
/// distributions from the prefix-sharing trie walk, then per-job
/// multinomial draws) vs naive per-job sampling (every job simulated
/// independently by the [`PerJob`] baseline before sampling) on the
/// 5-layer QAOA-6 pipeline workload — the headline rows of
/// `BENCH_shots.json`, with the batch size and per-job shot count embedded
/// in the row names. The bench asserts the two paths produce bit-identical
/// counts before timing anything, so CI failing here can mean a
/// determinism regression, not just a slow run.
fn bench_sampled_execution(c: &mut Criterion) {
    use qt_core::{QuTracer, QuTracerConfig};
    use qt_sim::{BatchJob, Runner, ShotPlan};

    let mut group = c.benchmark_group("shots");
    group.sample_size(10);
    let (n, layers) = (6, 5);
    let circ = qt_algos::qaoa_maxcut(
        n,
        &qt_algos::ring_graph(n),
        &qt_algos::qaoa::QaoaParams::seeded(layers, 5),
    );
    let measured: Vec<usize> = (0..n).collect();
    let cfg = QuTracerConfig::pairs().with_symmetric_subsets();
    let plan = QuTracer::plan(&circ, &measured, &cfg).expect("symmetric ring is traceable");
    let jobs: Vec<BatchJob> = plan.programs().map(|(j, _)| j.clone()).collect();
    let k = jobs.len();
    let shots_each = 4096;
    let shot_plan = ShotPlan::uniform(k, shots_each);
    let noise = NoiseModel::depolarizing(0.002, 0.02).with_readout(0.03);
    let trie = Executor::with_backend(noise, qt_sim::Backend::DensityMatrix);
    let perjob = PerJob(trie.clone());
    assert_eq!(
        trie.run_batch_sampled(&jobs, &shot_plan, 11),
        perjob.run_batch_sampled(&jobs, &shot_plan, 11),
        "trie-integrated sampling diverged from per-job sampling"
    );
    group.bench_function(
        format!("trie_sampled_qaoa{n}x{layers}_{k}circ_{shots_each}shots"),
        |b| b.iter(|| black_box(trie.run_batch_sampled(&jobs, &shot_plan, 11))),
    );
    group.bench_function(
        format!("perjob_sampled_qaoa{n}x{layers}_{k}circ_{shots_each}shots"),
        |b| b.iter(|| black_box(perjob.run_batch_sampled(&jobs, &shot_plan, 11))),
    );
    group.finish();
}

fn bench_circuit_passes(c: &mut Criterion) {
    let mut group = c.benchmark_group("passes");
    let circ = qt_algos::vqe_ansatz(15, 3, 9);
    group.bench_function("reduce_for_z_measurement_15q", |b| {
        b.iter(|| {
            black_box(qt_circuit::passes::reduce_for_z_measurement(
                black_box(&circ),
                &[7],
            ))
        })
    });
    group.bench_function("split_into_segments_15q", |b| {
        b.iter(|| {
            black_box(qt_circuit::passes::split_into_segments(
                black_box(&circ),
                &[7],
            ))
        })
    });
    group.bench_function("unitary_embedding_8q", |b| {
        let small = qt_algos::iqft(8);
        b.iter(|| black_box(small.unitary()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_kernel_dispatch,
    bench_statevector_gates,
    bench_density_matrix,
    bench_trajectories,
    bench_parallel_trajectories,
    bench_pipeline,
    bench_batch_execution,
    bench_sampled_execution,
    bench_circuit_passes
);
criterion_main!(benches);
