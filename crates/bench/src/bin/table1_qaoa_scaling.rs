//! Table I — simulation results for 10-qubit QAOA MaxCut with 1…5 layers
//! under the ibmq_mumbai-median noise model: normalized number of shots,
//! average 2-qubit basis gate count and Hellinger fidelity for Original /
//! Jigsaw / QuTracer.
//!
//! Paper reference rows (shots | 2q count | fidelity | improvement):
//!   1 layer:  1/1/16   26/26/6    0.90/0.90/0.92   +2.89%
//!   2 layers: 1/1/106  52/52/21   0.80/0.80/0.83   +3.58%
//!   3 layers: 1/1/196  78/78/29   0.78/0.79/0.84   +8.41%
//!   4 layers: 1/1/286  104/104/37 0.74/0.74/0.81   +9.42%
//!   5 layers: 1/1/376  130/130/47 0.59/0.60/0.70  +18.09%

use qt_algos::{qaoa::optimize_angles, qaoa_maxcut, ring_graph};
use qt_baselines::run_jigsaw;
use qt_bench::{fidelity_vs_ideal, header, mumbai_uniform_noise, quick_mode, CachedRunner};
use qt_core::{QuTracer, QuTracerConfig, ShotPolicy};
use qt_device::{Device, DeviceExecutor};
use qt_sim::{Backend, Executor, Program, TrajectoryConfig};

fn main() {
    let n = 10;
    let trajectories = if quick_mode() { 512 } else { 2048 };
    let max_layers = if quick_mode() { 3 } else { 5 };
    // The paper samples 100 000 shots per circuit; the quick smoke run
    // keeps the sampling real but cheaper.
    let base_shots = if quick_mode() { 4_096 } else { 100_000 };
    header(
        "Table I — 10q QAOA MaxCut scaling (ibmq_mumbai-median noise model)",
        "columns: normalized shots (from sampled counts) | avg 2q basis gates | Hellinger fidelity",
    );
    let edges = ring_graph(n);
    // Gate counts come from transpiling onto the mumbai coupling map, as in
    // the paper; fidelities from the uniform-median noise simulation.
    let device = DeviceExecutor::new(Device::fake_mumbai());

    println!(
        "{:<22} {:>5} {:>5} {:>7} | {:>5} {:>5} {:>5} | {:>6} {:>6} {:>6} {:>8} | {:>8}",
        "workload",
        "sh:or",
        "sh:ji",
        "sh:qt",
        "2q:or",
        "2q:ji",
        "2q:qt",
        "f:or",
        "f:ji",
        "f:qt",
        "f:qt@sh",
        "improve"
    );
    for layers in 1..=max_layers {
        let params = optimize_angles(6, &ring_graph(6), layers, 5);
        let circ = qaoa_maxcut(n, &edges, &params);
        let measured: Vec<usize> = (0..n).collect();
        let exec = CachedRunner::new(Executor::with_backend(
            mumbai_uniform_noise(),
            Backend::Auto {
                dm_max_qubits: 9,
                trajectories: TrajectoryConfig::with_trajectories(trajectories),
            },
        ));

        let cfg = QuTracerConfig::pairs().with_symmetric_subsets();
        let plan = QuTracer::plan(&circ, &measured, &cfg).expect("plannable workload");
        let qt = plan
            .execute(&exec)
            .expect("batched execution")
            .recombine()
            .expect("recombination");
        let f_orig = fidelity_vs_ideal(&qt.global, &circ, &measured);
        let f_qt = fidelity_vs_ideal(&qt.distribution, &circ, &measured);
        let jig = run_jigsaw(&exec, &circ, &measured, 2);
        let f_jig = fidelity_vs_ideal(&jig.distribution, &circ, &measured);

        // Finite-shot pass: every *executed* (deduplicated) circuit gets
        // `base_shots` — Table I's accounting, where symmetric subsets'
        // shared ensemble bills once and fans its counts out. The shot
        // column is then the real sampled total (minus the global run),
        // normalized by the per-circuit budget — measured counts, not a
        // circuit tally. The cached runner serves the exact pass's
        // distributions back, so this pass only pays for the draws.
        let budget = base_shots * plan.n_programs();
        let sampled = plan
            .run_sampled(&exec, budget, ShotPolicy::Uniform, 0xF1D0 + layers as u64)
            .expect("sampled session");
        let total_shots = sampled
            .stats
            .total_shots
            .expect("sampled runs record real shots");
        let sh_qt = ((total_shots as f64 - base_shots as f64) / base_shots as f64).round() as usize;
        let f_qt_sh = fidelity_vs_ideal(&sampled.distribution, &circ, &measured);

        // Transpiled 2q counts: the original circuit, and the average over
        // QuTracer's (already reduced) mitigation circuit sizes scaled to
        // CX-basis counts.
        let (compact, _, _) = device.transpile(&Program::from_circuit(&circ), &measured);
        let or_2q = compact.two_qubit_gate_count();
        let qt_2q = qt.stats.avg_two_qubit_gates * 2.0; // CP→2 CX lowering
        let improvement = 100.0 * (f_qt - f_orig) / f_orig.max(1e-9);

        println!(
            "{:<22} {:>5} {:>5} {:>7} | {:>5} {:>5} {:>5.0} | {:>6.2} {:>6.2} {:>6.2} {:>8.2} | {:>+7.2}%",
            format!("10-q QAOA {layers} layer(s)"),
            1,
            1,
            sh_qt,
            or_2q,
            or_2q,
            qt_2q,
            f_orig,
            f_jig,
            f_qt,
            f_qt_sh,
            improvement
        );
    }
    println!("\npaper:  1: 16 | 26/26/6  | 0.90/0.90/0.92 (+2.89%)");
    println!("        2: 106| 52/52/21 | 0.80/0.80/0.83 (+3.58%)");
    println!("        3: 196| 78/78/29 | 0.78/0.79/0.84 (+8.41%)");
    println!("        4: 286|104/104/37| 0.74/0.74/0.81 (+9.42%)");
    println!("        5: 376|130/130/47| 0.59/0.60/0.70 (+18.09%)");
}
