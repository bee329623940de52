//! Structural test: folding a QSPC `preps × bases` preparation ensemble
//! into an execution trie shares exactly the work the protocol repeats —
//! the noisy prefix once for the whole ensemble, and the protected
//! segment once per preparation instead of once per `(prep, basis)` pair.

use qt_math::Pauli;
use qt_pcs::{QspcConfig, QspcSpec};
use qt_sim::{ExecutionTrie, Program};

#[test]
fn qspc_ensemble_trie_shares_prefix_and_per_prep_segment() {
    // Unoptimized circuits keep the generated structure literal:
    // [prefix] ; Reset(j → s) ; [segment] ; [basis rotation].
    let mut prefix = qt_circuit::Circuit::new(3);
    prefix.ry(0, 0.3).ry(1, 0.7).ry(2, -0.4).cz(0, 1).cz(1, 2);
    let mut segment = qt_circuit::Circuit::new(3);
    segment.cz(0, 1).cz(1, 2).ry(1, 0.5).ry(2, 0.9);
    let spec = QspcSpec {
        qubits: &[0],
        prefix: &prefix,
        segment: &segment,
        config: QspcConfig {
            optimize_circuits: false,
            ..QspcConfig::default()
        },
    };
    let bases = vec![Pauli::X, Pauli::Y, Pauli::Z];
    let ens = spec.ensemble(&[bases.clone(), vec![Pauli::I]]);
    let preps = 4; // PrepState::REDUCED
    assert_eq!(ens.jobs.len(), preps * bases.len());

    let programs: Vec<&Program> = ens.jobs.iter().map(|j| &j.program).collect();
    let trie = ExecutionTrie::build(&programs);
    let stats = trie.stats();

    let prefix_gates = prefix.instructions().len();
    let segment_gates = segment.instructions().len();
    // Rotations: X costs 1 gate, Y costs 2, Z costs 0 — per prep.
    let rotation_gates = preps * (1 + 2);

    // Interior (shared) gate work: the prefix once, the segment once per
    // *prep* — not once per (prep, basis) job.
    assert_eq!(
        stats.interior_gates,
        prefix_gates + preps * segment_gates,
        "interior gate count must be one prefix + one segment per prep"
    );
    // The trie executes each shared stretch once; only rotations are
    // per-leaf.
    assert_eq!(
        stats.unique_gates,
        prefix_gates + preps * segment_gates + rotation_gates
    );
    // A per-job executor replays prefix and segment for every job.
    assert_eq!(
        stats.request_gates,
        ens.jobs.len() * (prefix_gates + segment_gates) + rotation_gates
    );
    assert!(
        stats.shared_gate_fraction() > 0.5,
        "most ensemble gate work is shared: {stats:?}"
    );
}
