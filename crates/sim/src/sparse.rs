//! Sparse statevector simulation for low-entanglement pure evolutions.
//!
//! Many QuTracer subset circuits touch a wide register but build little
//! superposition: the number of nonzero amplitudes reachable from `|0…0⟩` is
//! at most `2^s` where `s` counts the superposition-growing ops (see
//! [`ProgramProfile::superposing_ops`]). `SparseState` stores only the
//! nonzero amplitudes in a `BTreeMap<u64, Complex>` — the canonical key
//! order makes every float summation deterministic, so trie-forked and
//! per-job executions stay bit-identical.
//!
//! When a non-diagonal gate pushes the map past half the dense size on a
//! register the dense engine can hold, the state densifies in place and
//! stays dense: at that density the map is strictly more work per gate than
//! a flat vector.

use crate::backend::EngineState;
use crate::classify::ProgramProfile;
use crate::noise::NoiseModel;
use crate::program::Op;
use crate::statevector::{self, StateVector};
use qt_circuit::{GateStructure, Instruction};
use qt_dist::Distribution;
use qt_math::Complex;
use std::collections::BTreeMap;

/// Whether a `(noise, program)` pair admits the sparse pure-state
/// representation — the same precondition as the dense statevector engine
/// (no resets, ideal gate noise); sparsity only changes the cost, never the
/// answer.
pub fn sparse_admissible(noise: &NoiseModel, profile: &ProgramProfile) -> bool {
    !profile.has_resets && noise.gates_are_ideal()
}

/// Map-or-dense internal representation. Once dense, stays dense.
#[derive(Debug, Clone)]
enum Repr {
    Map(BTreeMap<u64, Complex>),
    Dense(StateVector),
}

/// The [`crate::backend::StateClass::Sparse`] state.
#[derive(Debug, Clone)]
pub(crate) struct SparseState {
    n: usize,
    repr: Repr,
}

impl SparseState {
    /// A fresh `|0…0⟩` state (one nonzero amplitude).
    pub(crate) fn zero(n_qubits: usize) -> Self {
        assert!(n_qubits > 0, "empty register");
        assert!(
            n_qubits <= 64,
            "sparse statevector keys are u64 basis indices"
        );
        let mut map = BTreeMap::new();
        map.insert(0u64, Complex::ONE);
        SparseState {
            n: n_qubits,
            repr: Repr::Map(map),
        }
    }

    fn apply_gate(&mut self, instr: &Instruction) {
        match &mut self.repr {
            Repr::Dense(sv) => sv.apply_op(&instr.gate.matrix(), &instr.qubits),
            Repr::Map(map) => {
                let m = instr.gate.matrix();
                let qs = &instr.qubits;
                let diagonal = matches!(
                    instr.gate.structure(),
                    GateStructure::ControlledPhase | GateStructure::Diagonal
                );
                if diagonal {
                    // Phase-only: multiply amplitudes in place, support fixed.
                    for (&key, amp) in map.iter_mut() {
                        let l = gather(key, qs);
                        *amp *= m[(l, l)];
                    }
                    map.retain(|_, a| a.re != 0.0 || a.im != 0.0);
                    return;
                }
                // General: scatter each amplitude through the gate columns.
                let dim = 1usize << qs.len();
                let mut out: BTreeMap<u64, Complex> = BTreeMap::new();
                for (&key, &amp) in map.iter() {
                    let l = gather(key, qs);
                    let rest = clear(key, qs);
                    for lp in 0..dim {
                        let c = m[(lp, l)];
                        if c.re == 0.0 && c.im == 0.0 {
                            continue;
                        }
                        let e = out.entry(rest | scatter(lp, qs)).or_insert(Complex::ZERO);
                        *e += c * amp;
                    }
                }
                out.retain(|_, a| a.re != 0.0 || a.im != 0.0);
                *map = out;
                self.maybe_densify();
            }
        }
    }

    /// Densifies once the map holds more than half the dense amplitude
    /// count (and the register fits the dense engine).
    fn maybe_densify(&mut self) {
        let Repr::Map(map) = &self.repr else { return };
        if self.n > statevector::MAX_QUBITS || map.len() * 2 <= (1usize << self.n) {
            return;
        }
        let mut amps = vec![Complex::ZERO; 1usize << self.n];
        for (&key, &amp) in map.iter() {
            amps[key as usize] = amp;
        }
        self.repr = Repr::Dense(StateVector::from_amplitudes(amps));
    }

    /// Number of stored nonzero amplitudes (dense size once densified).
    #[cfg(test)]
    pub(crate) fn support(&self) -> usize {
        match &self.repr {
            Repr::Map(m) => m.len(),
            Repr::Dense(sv) => sv.amplitudes().len(),
        }
    }
}

impl EngineState for SparseState {
    /// Applies one op.
    ///
    /// # Panics
    ///
    /// Panics on resets — the sparse state class excludes them.
    fn apply_op(&mut self, op: &Op) {
        match op {
            Op::Gate(i) | Op::IdealGate(i) => self.apply_gate(i),
            Op::Reset { .. } => {
                unreachable!("sparse state class excludes programs with resets")
            }
        }
    }

    fn fork(&self) -> Box<dyn EngineState> {
        Box::new(self.clone())
    }

    /// Sums in canonical key order. The map representation emits sparse
    /// entries natively — no `2^|measured|` buffer exists on this path, so
    /// wide measurement lists are fine.
    fn raw_distribution(&self, measured: &[usize]) -> Distribution {
        match &self.repr {
            Repr::Dense(sv) => {
                Distribution::try_from_probs(measured.len(), sv.marginal_probabilities(measured))
                    .expect("dense register fits the outcome space")
            }
            Repr::Map(map) => {
                let mut out: BTreeMap<u64, f64> = BTreeMap::new();
                for (&key, amp) in map.iter() {
                    *out.entry(gather_wide(key, measured)).or_insert(0.0) += amp.norm_sqr();
                }
                Distribution::try_from_entries(measured.len(), out.into_iter().collect())
                    .expect("gathered patterns fit the measured bit count")
            }
        }
    }
}

/// Extracts the operand bits of `key` into a compact index (operand 0 →
/// bit 0).
#[inline]
fn gather(key: u64, qs: &[usize]) -> usize {
    let mut l = 0usize;
    for (o, &q) in qs.iter().enumerate() {
        l |= (((key >> q) & 1) as usize) << o;
    }
    l
}

/// [`gather`] over a measurement list that may span the full 64-bit
/// register: the compact pattern stays a `u64` outcome index.
#[inline]
fn gather_wide(key: u64, qs: &[usize]) -> u64 {
    let mut l = 0u64;
    for (o, &q) in qs.iter().enumerate() {
        l |= ((key >> q) & 1) << o;
    }
    l
}

/// Clears the operand bits of `key`.
#[inline]
fn clear(key: u64, qs: &[usize]) -> u64 {
    let mut mask = 0u64;
    for &q in qs {
        mask |= 1u64 << q;
    }
    key & !mask
}

/// Spreads a compact operand index back onto the register bit positions.
#[inline]
fn scatter(l: usize, qs: &[usize]) -> u64 {
    let mut key = 0u64;
    for (o, &q) in qs.iter().enumerate() {
        key |= (((l >> o) & 1) as u64) << q;
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::StateClass;
    use crate::program::Program;
    use crate::statevector::StateVector;
    use qt_circuit::{Circuit, Gate};
    use std::sync::Arc;

    fn sparse_dist(prog: &Program, measured: &[usize]) -> Distribution {
        StateClass::Sparse.run(prog, &Arc::new(NoiseModel::ideal()), measured)
    }

    fn dense_dist(prog: &Program, measured: &[usize]) -> Vec<f64> {
        let mut sv = StateVector::zero(prog.n_qubits());
        for op in prog.ops() {
            match op {
                Op::Gate(i) | Op::IdealGate(i) => sv.apply_op(&i.gate.matrix(), &i.qubits),
                Op::Reset { .. } => unreachable!(),
            }
        }
        sv.marginal_probabilities(measured)
    }

    fn assert_close(a: &Distribution, b: &[f64], tol: f64, ctx: &str) {
        let a = a.densify().expect("test distributions are narrow");
        assert_eq!(a.len(), b.len(), "{ctx}");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "{ctx}: idx {i}: {x} vs {y}");
        }
    }

    #[test]
    fn matches_dense_on_mixed_circuit() {
        let mut c = Circuit::new(4);
        c.h(0)
            .cx(0, 1)
            .t(1)
            .cp(1, 2, 0.7)
            .ry(2, 0.4)
            .ccp(0, 2, 3, 1.1)
            .rz(3, 0.2);
        let prog = Program::from_circuit(&c);
        assert_close(
            &sparse_dist(&prog, &[0, 1, 2, 3]),
            &dense_dist(&prog, &[0, 1, 2, 3]),
            1e-12,
            "mixed circuit",
        );
        assert_close(
            &sparse_dist(&prog, &[3, 1]),
            &dense_dist(&prog, &[3, 1]),
            1e-12,
            "subset measurement",
        );
    }

    #[test]
    fn support_stays_bounded_on_wide_low_entanglement_register() {
        // 60 qubits, far past any dense engine, but only one H: support 2.
        let mut prog = Program::new(60);
        prog.push_gate(Instruction::new(Gate::H, vec![0]));
        for q in 0..59 {
            prog.push_gate(Instruction::new(Gate::Cx, vec![q, q + 1]));
        }
        let mut st = SparseState::zero(60);
        for op in prog.ops() {
            st.apply_op(op);
        }
        assert_eq!(st.support(), 2, "GHZ-60 has two nonzero amplitudes");
        let d = st.raw_distribution(&[0, 30, 59]);
        assert!((d.prob(0) - 0.5).abs() < 1e-12);
        assert!((d.prob(7) - 0.5).abs() < 1e-12);
        assert_eq!(d.support_len(), 2);
        // The full 60-bit readout also works — natively sparse output.
        let wide = st.raw_distribution(&(0..60).collect::<Vec<_>>());
        assert_eq!(wide.n_bits(), 60);
        assert_eq!(wide.support_len(), 2);
        assert!((wide.prob(u64::MAX >> 4) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn densifies_past_half_density_and_stays_exact() {
        let mut c = Circuit::new(3);
        for q in 0..3 {
            c.h(q);
        }
        c.t(0).cx(0, 1).ry(2, 0.9);
        let prog = Program::from_circuit(&c);
        let mut st = SparseState::zero(3);
        for op in prog.ops() {
            st.apply_op(op);
        }
        assert!(
            matches!(st.repr, Repr::Dense(_)),
            "full superposition on 3 qubits must densify"
        );
        assert_close(
            &st.raw_distribution(&[0, 1, 2]),
            &dense_dist(&prog, &[0, 1, 2]),
            1e-12,
            "densified state",
        );
    }

    #[test]
    fn diagonal_gates_keep_support_fixed() {
        let mut st = SparseState::zero(8);
        st.apply_op(&Op::Gate(Instruction::new(Gate::H, vec![3])));
        for (g, qs) in [
            (Gate::S, vec![3]),
            (Gate::T, vec![3]),
            (Gate::Rz(0.3), vec![3]),
            (Gate::Cz, vec![3, 4]),
            (Gate::Cp(0.5), vec![3, 0]),
        ] {
            st.apply_op(&Op::Gate(Instruction::new(g, qs)));
        }
        assert_eq!(st.support(), 2);
    }

    #[test]
    fn fork_is_exact() {
        let mut st = SparseState::zero(4);
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1);
        for i in c.instructions() {
            st.apply_op(&Op::Gate(i.clone()));
        }
        let mut fork = st.fork();
        let mut c2 = Circuit::new(4);
        c2.t(1).cx(1, 2).ry(3, 0.4);
        for i in c2.instructions() {
            st.apply_op(&Op::Gate(i.clone()));
            fork.apply_op(&Op::Gate(i.clone()));
        }
        assert_eq!(
            st.raw_distribution(&[0, 1, 2, 3]),
            fork.raw_distribution(&[0, 1, 2, 3]),
            "forked evolution must be bit-identical"
        );
    }

    #[test]
    #[should_panic(expected = "resets")]
    fn reset_is_a_hard_failure() {
        // Sparse admissibility excludes resets; a slipped-through reset
        // must panic, never decohere silently.
        let mut st = SparseState::zero(2);
        let mut p = Program::new(2);
        p.push_gate(qt_circuit::Instruction::new(Gate::H, vec![0]));
        p.push_reset_state(&[0], qt_math::states::PrepState::Zero);
        for op in p.ops() {
            st.apply_op(op);
        }
    }
}
