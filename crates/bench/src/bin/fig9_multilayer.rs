//! Fig. 9 — multi-layer qubit subsetting: 10-qubit, 4-layer QAOA MaxCut on
//! a ring under the ibmq_mumbai-median noise model, varying the number of
//! trailing layers that receive checks (0…4). Compared against the ideal
//! ancilla PCS applied around the same trailing segments.
//!
//! Paper reference: fidelity grows monotonically with the number of checked
//! layers (+3.96 % at 1 layer up to +9.42 % at 4), and QuTracer beats ideal
//! PCS because it can optimize each layer's circuits separately.

use qt_algos::{qaoa::optimize_angles, qaoa_maxcut, ring_graph};
use qt_bench::{fidelity_vs_ideal, header, mumbai_uniform_noise, quick_mode, CachedRunner};
use qt_circuit::passes::split_into_segments;
use qt_circuit::Circuit;
use qt_core::{QuTracer, QuTracerConfig};
use qt_dist::Distribution;
use qt_pcs::{postselected_distribution, z_check_sandwich};
use qt_sim::{Backend, Executor, TrajectoryConfig};

fn main() {
    let n = 10;
    let layers = 4;
    let trajectories = if quick_mode() { 512 } else { 2048 };
    header(
        "Fig. 9 — Hellinger fidelity vs number of checked layers (10q QAOA, 4 layers)",
        "ibmq_mumbai-median noise; subset size 2 with ring symmetry",
    );
    let edges = ring_graph(n);
    let params = optimize_angles(6, &ring_graph(6), layers, 5); // angles from a small proxy ring
    let circ = qaoa_maxcut(n, &edges, &params);
    let measured: Vec<usize> = (0..n).collect();

    let exec = CachedRunner::new(Executor::with_backend(
        mumbai_uniform_noise(),
        Backend::Auto {
            dm_max_qubits: 9,
            trajectories: TrajectoryConfig::with_trajectories(trajectories),
        },
    ));

    println!(
        "{:>8}  {:>9} {:>10} {:>9}  {:>12}",
        "checked", "qutracer", "ideal PCS", "original", "improvement"
    );
    let mut base = None;
    for k in 0..=layers {
        let cfg = QuTracerConfig::pairs()
            .with_symmetric_subsets()
            .with_checked_layers(k);
        let report = QuTracer::plan(&circ, &measured, &cfg)
            .expect("plannable workload")
            .execute(&exec)
            .expect("batched execution")
            .recombine()
            .expect("recombination");
        let f_orig = fidelity_vs_ideal(&report.global, &circ, &measured);
        let f_qt = fidelity_vs_ideal(&report.distribution, &circ, &measured);
        if base.is_none() {
            base = Some(f_qt);
        }
        let f_pcs = ideal_pcs_trailing(exec.inner(), &circ, &measured, &report.global, k);
        let improvement = 100.0 * (f_qt - f_orig) / f_orig.max(1e-9);
        println!("{k:>8}  {f_qt:>9.3} {f_pcs:>10.3} {f_orig:>9.3}  {improvement:>+11.2}%");
    }
    println!("\npaper: checking 1..4 trailing layers improves fidelity by");
    println!("       +3.96% / +5.74% / +7.68% / +9.42% over the unmitigated run,");
    println!("       with QuTracer above ideal PCS at every point.");
}

/// Ideal ancilla PCS protecting the trailing `k` check segments of each
/// ring pair (one representative pair by symmetry), recombined like
/// QuTracer's locals.
fn ideal_pcs_trailing(
    exec: &Executor,
    circ: &Circuit,
    measured: &[usize],
    global: &Distribution,
    k: usize,
) -> f64 {
    if k == 0 {
        return fidelity_vs_ideal(global, circ, measured);
    }
    let pair = [measured[0], measured[1]];
    let Ok(segments) = split_into_segments(circ, &pair) else {
        return fidelity_vs_ideal(global, circ, measured);
    };
    let touching: Vec<usize> = segments
        .iter()
        .enumerate()
        .filter(|(_, s)| s.check_touches(&pair))
        .map(|(i, _)| i)
        .collect();
    let first = touching.len().saturating_sub(k);
    let start_seg = touching[first];
    // pre = everything before the protected window; payload = the window.
    let mut pre = Circuit::new(circ.n_qubits());
    let mut payload = Circuit::new(circ.n_qubits());
    for (i, seg) in segments.iter().enumerate() {
        for instr in seg.local.iter().chain(&seg.check) {
            if i < start_seg {
                pre.push(instr.gate.clone(), instr.qubits.clone());
            } else {
                payload.push(instr.gate.clone(), instr.qubits.clone());
            }
        }
    }
    // PCS requires the payload to commute with the checks; the mixer Rx
    // gates on the pair do not, so the window is protected only if the
    // payload is checkable — mirroring the paper, ideal PCS must protect
    // the whole multi-layer block at once, so the non-commuting mixers of
    // *earlier* layers inside the window are moved to the preparation side
    // when possible. Here we simply protect the commuting tail: drop
    // leading non-commuting pair gates from the payload into `pre`.
    let mut trimmed = Circuit::new(circ.n_qubits());
    let mut still_pre = true;
    for instr in payload.instructions() {
        let on_pair = instr.qubits.iter().any(|q| pair.contains(q));
        let blocks = qt_circuit::commute::block_diagonal_on_subset(instr, &pair);
        if still_pre && on_pair && !blocks {
            pre.push(instr.gate.clone(), instr.qubits.clone());
        } else {
            if on_pair {
                // The first pair gate kept in the window ends the hoisted
                // prefix: a later mixer cannot move ahead of it, so from
                // here on it goes to the tail after the sandwich.
                still_pre = false;
            }
            trimmed.push(instr.gate.clone(), instr.qubits.clone());
        }
    }
    // Split trimmed into checkable head and tail.
    let mut head = Circuit::new(circ.n_qubits());
    let mut tail = Circuit::new(circ.n_qubits());
    let mut in_tail = false;
    for instr in trimmed.instructions() {
        let on_pair = instr.qubits.iter().any(|q| pair.contains(q));
        let blocks = qt_circuit::commute::block_diagonal_on_subset(instr, &pair);
        if on_pair && !blocks {
            in_tail = true;
        }
        if in_tail {
            tail.push(instr.gate.clone(), instr.qubits.clone());
        } else {
            head.push(instr.gate.clone(), instr.qubits.clone());
        }
    }
    let mut pcs = z_check_sandwich(&pre, &head, &pair, true);
    for i in tail.instructions() {
        pcs.program.push_gate(i.clone());
    }
    let (local, _) = postselected_distribution(exec, &pcs, &pair);
    // Reuse by ring symmetry for all adjacent pairs.
    let locals: Vec<(Distribution, Vec<usize>)> = (0..measured.len())
        .map(|p| (local.clone(), vec![p, (p + 1) % measured.len()]))
        .collect();
    let refined = qt_dist::recombine::try_bayesian_update_all(
        global,
        locals.iter().map(|(d, p)| (d, p.as_slice())),
    )
    .expect("ring-pair locals match the measured register");
    fidelity_vs_ideal(&refined, circ, measured)
}
