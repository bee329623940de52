//! CHP-style stabilizer tableau simulation (Aaronson–Gottesman) with exact,
//! trajectory-free Pauli-channel noise mixing.
//!
//! The tableau holds `2n` Pauli rows (n destabilizers, n stabilizers) as
//! packed x/z bit matrices plus a sign vector; Clifford gates conjugate each
//! row in `O(n)` (`O(n²)` per gate over all rows) instead of touching `2^n`
//! amplitudes, which is what lets ≥24-qubit Clifford workloads run through
//! the full plan → execute → recombine pipeline.
//!
//! # Exact Pauli-noise mixing
//!
//! A Pauli error `E` conjugates every row `P` to `±P`: it never changes the
//! x/z bits, only the sign — and the sign flips exactly for the rows that
//! anticommute with `E`. Gates never mix rows (only measurement row-sums
//! do), and a gate's sign update depends on x/z bits alone, so a sign
//! *difference* injected by a noise option persists per row until
//! measurement. Each channel application is therefore recorded as a
//! `NoiseEvent`: per mixture option, its probability and the bitmask of
//! stabilizer rows it anticommutes with *at application time*. The ideal
//! branch (identity option) evolves the tableau; nothing is sampled.
//!
//! At readout the extraction walks the measured qubits once per random
//! branch: random outcomes stay 50/50 regardless of noise (sign flips never
//! make a random outcome deterministic), while each deterministic outcome's
//! dependence on the events is a parity `⟨flips, combo⟩` tracked through
//! row-sum provenance masks. The leaf distribution over the deterministic
//! bits is then the GF(2) convolution of the per-event flip distributions,
//! evaluated with a Walsh–Hadamard transform — exact in one pass, with no
//! trajectory variance.

use crate::backend::EngineState;
use crate::classify::ProgramProfile;
use crate::noise::NoiseModel;
use crate::program::Op;
use qt_circuit::{CliffordGate, Instruction};
use qt_dist::Distribution;
use qt_math::Pauli;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Largest register for which the *noisy* stabilizer path is admissible:
/// noise-event row masks are single `u64` words over the stabilizer rows.
/// Noise-free Clifford programs have no events and are unrestricted.
pub const STAB_NOISE_MAX_QUBITS: usize = 64;

/// Whether a `(noise, program)` pair admits the stabilizer representation:
/// every gate Clifford, no resets, and gate noise either absent or a Pauli
/// mixture (on a register small enough for the event masks).
pub fn stabilizer_admissible(noise: &NoiseModel, profile: &ProgramProfile) -> bool {
    profile.all_clifford
        && !profile.has_resets
        && (noise.gates_are_ideal()
            || (profile.n_qubits <= STAB_NOISE_MAX_QUBITS && noise.gate_noise_is_pauli()))
}

/// One recorded Pauli-channel application: per mixture option, its
/// probability and the mask (bit `i` = stabilizer row `i`) of rows that
/// anticommute with that option's Pauli at application time.
#[derive(Debug, Clone)]
struct NoiseEvent {
    options: Vec<(f64, u64)>,
}

/// The packed CHP tableau: rows `0..n` are destabilizers, rows `n..2n`
/// stabilizers.
#[derive(Debug, Clone)]
struct Tableau {
    n: usize,
    /// 64-bit words per row.
    words: usize,
    /// X bits, row-major (`2n * words`).
    x: Vec<u64>,
    /// Z bits, row-major.
    z: Vec<u64>,
    /// Row signs (`true` = −1), length `2n`.
    sign: Vec<bool>,
}

impl Tableau {
    /// The `|0…0⟩` tableau: destabilizer `i` = `X_i`, stabilizer `i` = `Z_i`.
    fn zero_state(n: usize) -> Self {
        assert!(n > 0, "empty register");
        let words = n.div_ceil(64);
        let mut t = Tableau {
            n,
            words,
            x: vec![0; 2 * n * words],
            z: vec![0; 2 * n * words],
            sign: vec![false; 2 * n],
        };
        for i in 0..n {
            let (w, m) = (i >> 6, 1u64 << (i & 63));
            t.x[i * words + w] |= m;
            t.z[(n + i) * words + w] |= m;
        }
        t
    }

    #[inline]
    fn x_bit(&self, row: usize, q: usize) -> bool {
        self.x[row * self.words + (q >> 6)] & (1u64 << (q & 63)) != 0
    }

    #[inline]
    fn z_bit(&self, row: usize, q: usize) -> bool {
        self.z[row * self.words + (q >> 6)] & (1u64 << (q & 63)) != 0
    }

    /// Applies one Clifford to all `2n` rows (conjugation `P → U P U†`).
    fn apply(&mut self, gate: CliffordGate, qs: &[usize]) {
        use CliffordGate as C;
        match gate {
            C::I => {}
            C::H => self.one_qubit(qs[0], |x, z, s| (z, x, s ^ (x & z))),
            C::X => self.one_qubit(qs[0], |x, z, s| (x, z, s ^ z)),
            C::Y => self.one_qubit(qs[0], |x, z, s| (x, z, s ^ x ^ z)),
            C::Z => self.one_qubit(qs[0], |x, z, s| (x, z, s ^ x)),
            C::S => self.one_qubit(qs[0], |x, z, s| (x, z ^ x, s ^ (x & z))),
            C::Sdg => self.one_qubit(qs[0], |x, z, s| (x, z ^ x, s ^ (x & !z))),
            C::Sx => self.one_qubit(qs[0], |x, z, s| (x ^ z, z, s ^ (z & !x))),
            C::Sxdg => self.one_qubit(qs[0], |x, z, s| (x ^ z, z, s ^ (z & x))),
            C::Sy => self.one_qubit(qs[0], |x, z, s| (z, x, s ^ (x & !z))),
            C::Sydg => self.one_qubit(qs[0], |x, z, s| (z, x, s ^ (!x & z))),
            C::Cx => self.cx(qs[0], qs[1]),
            C::Cz => {
                // CZ = (I⊗H)·CX·(I⊗H).
                self.apply(C::H, &[qs[1]]);
                self.cx(qs[0], qs[1]);
                self.apply(C::H, &[qs[1]]);
            }
            C::Cy => {
                // CY = (I⊗S)·CX·(I⊗S†); conjugation applies inner-first.
                self.apply(C::Sdg, &[qs[1]]);
                self.cx(qs[0], qs[1]);
                self.apply(C::S, &[qs[1]]);
            }
            C::Swap => {
                let (a, b) = (qs[0], qs[1]);
                for row in 0..2 * self.n {
                    let (xa, za) = (self.x_bit(row, a), self.z_bit(row, a));
                    let (xb, zb) = (self.x_bit(row, b), self.z_bit(row, b));
                    self.set_xz(row, a, xb, zb);
                    self.set_xz(row, b, xa, za);
                }
            }
        }
    }

    /// Applies a single-qubit tableau rule `(x, z, sign) → (x', z', sign')`
    /// to every row.
    #[inline]
    fn one_qubit(&mut self, q: usize, rule: impl Fn(bool, bool, bool) -> (bool, bool, bool)) {
        for row in 0..2 * self.n {
            let (x, z) = (self.x_bit(row, q), self.z_bit(row, q));
            let (nx, nz, ns) = rule(x, z, self.sign[row]);
            self.set_xz(row, q, nx, nz);
            self.sign[row] = ns;
        }
    }

    #[inline]
    fn set_xz(&mut self, row: usize, q: usize, x: bool, z: bool) {
        let (w, m) = (row * self.words + (q >> 6), 1u64 << (q & 63));
        if x {
            self.x[w] |= m;
        } else {
            self.x[w] &= !m;
        }
        if z {
            self.z[w] |= m;
        } else {
            self.z[w] &= !m;
        }
    }

    fn cx(&mut self, a: usize, b: usize) {
        for row in 0..2 * self.n {
            let (xa, za) = (self.x_bit(row, a), self.z_bit(row, a));
            let (xb, zb) = (self.x_bit(row, b), self.z_bit(row, b));
            if xa && zb && (xb == za) {
                self.sign[row] = !self.sign[row];
            }
            self.set_xz(row, a, xa, za ^ zb);
            self.set_xz(row, b, xb ^ xa, zb);
        }
    }

    /// The CHP phase function `g`: the power of `i` picked up when
    /// multiplying single-qubit Paulis `(x1,z1)·(x2,z2)` (target · source
    /// ordering as in Aaronson–Gottesman's `rowsum`).
    #[inline]
    fn g(x1: bool, z1: bool, x2: bool, z2: bool) -> i32 {
        match (x1, z1) {
            (false, false) => 0,
            (true, true) => z2 as i32 - x2 as i32,
            (true, false) => (z2 as i32) * (2 * x2 as i32 - 1),
            (false, true) => (x2 as i32) * (1 - 2 * z2 as i32),
        }
    }

    /// `row h ← row h · row i` with exact sign tracking.
    fn rowsum(&mut self, h: usize, i: usize) {
        let mut phase: i32 = 2 * (self.sign[h] as i32) + 2 * (self.sign[i] as i32);
        for q in 0..self.n {
            phase += Self::g(
                self.x_bit(i, q),
                self.z_bit(i, q),
                self.x_bit(h, q),
                self.z_bit(h, q),
            );
        }
        for w in 0..self.words {
            let src_x = self.x[i * self.words + w];
            let src_z = self.z[i * self.words + w];
            self.x[h * self.words + w] ^= src_x;
            self.z[h * self.words + w] ^= src_z;
        }
        let p = phase.rem_euclid(4);
        // A destabilizer target may anticommute with the source row (its
        // partner stabilizer), giving an odd phase — destabilizer signs are
        // never read, so only stabilizer targets must stay real.
        debug_assert!(
            h < self.n || p == 0 || p == 2,
            "rowsum produced imaginary phase on a stabilizer row"
        );
        self.sign[h] = p == 2;
    }

    /// Accumulates stabilizer row `n+i` into an external scratch row (the
    /// deterministic-outcome computation of CHP's measurement).
    fn rowsum_scratch(&self, sx: &mut [u64], sz: &mut [u64], phase: &mut i32, i: usize) {
        let row = self.n + i;
        *phase += 2 * (self.sign[row] as i32);
        for q in 0..self.n {
            let (w, m) = (q >> 6, 1u64 << (q & 63));
            let x2 = sx[w] & m != 0;
            let z2 = sz[w] & m != 0;
            *phase += Self::g(self.x_bit(row, q), self.z_bit(row, q), x2, z2);
        }
        for w in 0..self.words {
            sx[w] ^= self.x[row * self.words + w];
            sz[w] ^= self.z[row * self.words + w];
        }
    }
}

/// The [`crate::backend::StateClass::Stabilizer`] state: tableau plus the
/// recorded noise events (mixed analytically at readout).
#[derive(Debug, Clone)]
pub(crate) struct StabilizerState {
    tab: Tableau,
    noise: Arc<NoiseModel>,
    events: Vec<NoiseEvent>,
}

impl StabilizerState {
    /// A fresh `|0…0⟩` state.
    pub(crate) fn zero(n_qubits: usize, noise: Arc<NoiseModel>) -> Self {
        StabilizerState {
            tab: Tableau::zero_state(n_qubits),
            noise,
            events: Vec::new(),
        }
    }

    fn apply_clifford(&mut self, instr: &Instruction) {
        let class = instr
            .gate
            .clifford_class()
            .expect("stabilizer engine scheduled with a non-Clifford gate (misclassified program)");
        self.tab.apply(class, &instr.qubits);
    }

    /// Records a Pauli-mixture channel application on `qs` as sign-flip
    /// masks against the current stabilizer rows.
    fn record_event(&mut self, qs: &[usize], mixture: Vec<(f64, Vec<Pauli>)>) {
        let n = self.tab.n;
        assert!(
            n <= STAB_NOISE_MAX_QUBITS,
            "noisy stabilizer path caps at {STAB_NOISE_MAX_QUBITS} qubits"
        );
        let mut options = Vec::with_capacity(mixture.len());
        for (p, paulis) in mixture {
            debug_assert_eq!(paulis.len(), qs.len());
            let mut mask = 0u64;
            for i in 0..n {
                let row = n + i;
                let mut anti = false;
                for (o, &pl) in paulis.iter().enumerate() {
                    let q = qs[o];
                    let (px, pz) = match pl {
                        Pauli::I => (false, false),
                        Pauli::X => (true, false),
                        Pauli::Y => (true, true),
                        Pauli::Z => (false, true),
                    };
                    anti ^= (px && self.tab.z_bit(row, q)) ^ (pz && self.tab.x_bit(row, q));
                }
                if anti {
                    mask |= 1u64 << i;
                }
            }
            options.push((p, mask));
        }
        // An event whose every option commutes with every stabilizer row
        // can never change an outcome — drop it.
        if options.iter().any(|&(_, m)| m != 0) {
            self.events.push(NoiseEvent { options });
        }
    }
}

impl EngineState for StabilizerState {
    /// Applies one op: the Clifford conjugation, then (for noisy gates) one
    /// [`NoiseEvent`] per attached channel.
    ///
    /// # Panics
    ///
    /// Panics on non-Clifford gates, resets, or non-Pauli channels — a
    /// misclassified program must fail loudly, never silently approximate.
    fn apply_op(&mut self, op: &Op) {
        match op {
            Op::IdealGate(i) => self.apply_clifford(i),
            Op::Gate(i) => {
                self.apply_clifford(i);
                let noise = Arc::clone(&self.noise);
                for (qs, ch) in noise.channels_for(i) {
                    self.record_event(&qs, ch.pauli_mixture().expect(
                        "stabilizer engine scheduled with non-Pauli noise (misclassified program)",
                    ));
                }
            }
            Op::Reset { .. } => {
                unreachable!("stabilizer state class excludes programs with resets")
            }
        }
    }

    fn fork(&self) -> Box<dyn EngineState> {
        Box::new(self.clone())
    }

    /// Leaves accumulate into a sorted outcome→mass map in a fixed descent
    /// order, so the result is deterministic and no `2^|measured|` buffer
    /// ever exists — wide measurement lists are as cheap as their outcome
    /// count.
    fn raw_distribution(&self, measured: &[usize]) -> Distribution {
        let mut out: BTreeMap<u64, f64> = BTreeMap::new();
        let walk = Walk {
            tab: self.tab.clone(),
            prov: (0..self.tab.n as u64).map(|i| 1u64 << (i & 63)).collect(),
            det: Vec::new(),
            rand_bits: 0,
            n_random: 0,
        };
        // Provenance masks are single words; without events they are never
        // read, so wide noise-free registers stay admissible.
        walk.descend(measured, 0, &self.events, &mut out);
        Distribution::try_from_entries(measured.len(), out.into_iter().collect())
            .expect("walk outcomes fit the measured bit count")
    }
}

/// One branch of the measurement extraction: a projected tableau copy plus
/// per-stabilizer-row provenance masks over the extraction-start rows.
struct Walk {
    tab: Tableau,
    /// `prov[i]` = which extraction-start stabilizer rows row `n+i` is a
    /// product of (signs XOR accordingly under noise flips).
    prov: Vec<u64>,
    /// Deterministic outcomes so far: `(measured position, base bit, combo)`
    /// where `combo` is the provenance of the accumulated scratch row.
    det: Vec<(usize, bool, u64)>,
    /// Random outcome bits, already placed at their measured positions.
    rand_bits: u64,
    n_random: u32,
}

impl Walk {
    fn descend(
        mut self,
        measured: &[usize],
        pos: usize,
        events: &[NoiseEvent],
        out: &mut BTreeMap<u64, f64>,
    ) {
        if pos == measured.len() {
            return self.emit(events, out);
        }
        let q = measured[pos];
        let n = self.tab.n;
        let random_p = (0..n).find(|&p| self.tab.x_bit(n + p, q));
        match random_p {
            None => {
                // Deterministic: accumulate the stabilizer rows selected by
                // the destabilizers' x bits into a scratch row.
                let words = self.tab.words;
                let mut sx = vec![0u64; words];
                let mut sz = vec![0u64; words];
                let mut phase = 0i32;
                let mut combo = 0u64;
                for i in 0..n {
                    if self.tab.x_bit(i, q) {
                        self.tab.rowsum_scratch(&mut sx, &mut sz, &mut phase, i);
                        combo ^= self.prov[i];
                    }
                }
                let p = phase.rem_euclid(4);
                debug_assert!(
                    p == 0 || p == 2,
                    "deterministic outcome has imaginary phase"
                );
                self.det.push((pos, p == 2, combo));
                self.descend(measured, pos + 1, events, out);
            }
            Some(p) => {
                // Random: project once (shared by both outcomes), then fork
                // on the replacement row's sign.
                let row = n + p;
                for h in 0..2 * n {
                    if h != row && self.tab.x_bit(h, q) {
                        self.tab.rowsum(h, row);
                        if h >= n {
                            self.prov[h - n] ^= self.prov[p];
                        }
                    }
                }
                let words = self.tab.words;
                for w in 0..words {
                    self.tab.x[p * words + w] = self.tab.x[row * words + w];
                    self.tab.z[p * words + w] = self.tab.z[row * words + w];
                    self.tab.x[row * words + w] = 0;
                    self.tab.z[row * words + w] = 0;
                }
                self.tab.sign[p] = self.tab.sign[row];
                self.tab.set_xz(row, q, false, true);
                self.prov[p] = 0;
                self.n_random += 1;

                let mut one = Walk {
                    tab: self.tab.clone(),
                    prov: self.prov.clone(),
                    det: self.det.clone(),
                    rand_bits: self.rand_bits | (1u64 << pos),
                    n_random: self.n_random,
                };
                one.tab.sign[row] = true;
                self.tab.sign[row] = false;
                self.descend(measured, pos + 1, events, out);
                one.descend(measured, pos + 1, events, out);
            }
        }
    }

    /// Adds this leaf's probability mass: `2^{-n_random}` spread over the
    /// deterministic bits by the GF(2) convolution of the event flips.
    fn emit(self, events: &[NoiseEvent], out: &mut BTreeMap<u64, f64>) {
        let weight = (0.5f64).powi(self.n_random as i32);
        let base: u64 = self
            .det
            .iter()
            .filter(|&&(_, bit, _)| bit)
            .fold(0, |acc, &(pos, _, _)| acc | (1u64 << pos));

        // Project each event onto the deterministic bits of this leaf:
        // option flip-vector bit t = ⟨option mask, combo_t⟩.
        let k = self.det.len();
        let mut relevant: Vec<Vec<(f64, u64)>> = Vec::new();
        for ev in events {
            let ws: Vec<(f64, u64)> = ev
                .options
                .iter()
                .map(|&(p, mask)| {
                    let mut w = 0u64;
                    for (t, &(_, _, combo)) in self.det.iter().enumerate() {
                        if ((mask & combo).count_ones() & 1) == 1 {
                            w |= 1u64 << t;
                        }
                    }
                    (p, w)
                })
                .collect();
            if ws.iter().any(|&(_, w)| w != 0) {
                relevant.push(ws);
            }
        }
        if relevant.is_empty() {
            *out.entry(self.rand_bits | base).or_insert(0.0) += weight;
            return;
        }

        // Characteristic function over GF(2)^k, then an inverse WHT.
        let dim = 1usize << k;
        let mut f = vec![1.0f64; dim];
        for ws in &relevant {
            for (chi, val) in f.iter_mut().enumerate() {
                let mut s = 0.0;
                for &(p, w) in ws {
                    let parity = ((chi as u64) & w).count_ones() & 1;
                    s += if parity == 1 { -p } else { p };
                }
                *val *= s;
            }
        }
        // In-place Walsh–Hadamard butterfly (self-inverse up to 1/dim).
        let mut h = 1;
        while h < dim {
            let mut i = 0;
            while i < dim {
                for j in i..i + h {
                    let (a, b) = (f[j], f[j + h]);
                    f[j] = a + b;
                    f[j + h] = a - b;
                }
                i += 2 * h;
            }
            h *= 2;
        }
        let scale = weight / dim as f64;
        for (d, &fd) in f.iter().enumerate() {
            if fd == 0.0 {
                continue;
            }
            // Flip vector d moves the deterministic bits off their base.
            let mut idx = self.rand_bits;
            for (t, &(pos, _, _)) in self.det.iter().enumerate() {
                let bit = ((base >> pos) & 1) ^ (((d >> t) & 1) as u64);
                idx |= bit << pos;
            }
            *out.entry(idx).or_insert(0.0) += scale * fd;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{density_evolution, StateClass};
    use crate::program::Program;
    use qt_circuit::{Circuit, Gate};

    fn stab_dist(prog: &Program, noise: &NoiseModel, measured: &[usize]) -> Vec<f64> {
        StateClass::Stabilizer
            .run(prog, &Arc::new(noise.clone()), measured)
            .densify()
            .expect("test measurement lists are narrow")
    }

    fn dm_dist(prog: &Program, noise: &NoiseModel, measured: &[usize]) -> Vec<f64> {
        density_evolution(prog, noise).marginal_probabilities(measured)
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64, ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "{ctx}: idx {i}: {x} vs {y}");
        }
    }

    #[test]
    fn ghz_distribution_is_correct() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let prog = Program::from_circuit(&c);
        let d = stab_dist(&prog, &NoiseModel::ideal(), &[0, 1, 2]);
        assert!((d[0] - 0.5).abs() < 1e-12);
        assert!((d[7] - 0.5).abs() < 1e-12);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn every_clifford_gate_matches_dense_oracle() {
        use std::f64::consts::{FRAC_PI_2, PI};
        let gates: Vec<(Gate, Vec<usize>)> = vec![
            (Gate::H, vec![0]),
            (Gate::X, vec![1]),
            (Gate::Y, vec![0]),
            (Gate::Z, vec![1]),
            (Gate::S, vec![0]),
            (Gate::Sdg, vec![1]),
            (Gate::Sx, vec![0]),
            (Gate::Rx(FRAC_PI_2), vec![1]),
            (Gate::Rx(-FRAC_PI_2), vec![0]),
            (Gate::Ry(FRAC_PI_2), vec![1]),
            (Gate::Ry(-FRAC_PI_2), vec![0]),
            (Gate::Ry(PI), vec![1]),
            (Gate::Rz(FRAC_PI_2), vec![0]),
            (Gate::Phase(-FRAC_PI_2), vec![1]),
            (Gate::Cx, vec![0, 1]),
            (Gate::Cx, vec![1, 0]),
            (Gate::Cy, vec![0, 1]),
            (Gate::Cz, vec![0, 1]),
            (Gate::Swap, vec![0, 1]),
            (Gate::Cp(PI), vec![1, 0]),
        ];
        // Prefix with superposition/phase so sign rules are exercised.
        for (g, qs) in gates {
            let mut prog = Program::new(2);
            prog.push_gate(Instruction::new(Gate::H, vec![0]));
            prog.push_gate(Instruction::new(Gate::S, vec![0]));
            prog.push_gate(Instruction::new(Gate::H, vec![1]));
            prog.push_gate(Instruction::new(Gate::Sdg, vec![1]));
            prog.push_gate(Instruction::new(Gate::Cx, vec![0, 1]));
            prog.push_gate(Instruction::new(g.clone(), qs.clone()));
            let noise = NoiseModel::ideal();
            assert_close(
                &stab_dist(&prog, &noise, &[0, 1]),
                &dm_dist(&prog, &noise, &[0, 1]),
                1e-10,
                &format!("{g:?} on {qs:?}"),
            );
        }
    }

    #[test]
    fn pauli_noise_mixes_exactly() {
        // Bit-flip after X: deterministic outcome flipped with probability p.
        let mut prog = Program::new(1);
        prog.push_gate(Instruction::new(Gate::X, vec![0]));
        let mut noise = NoiseModel::ideal();
        noise
            .one_qubit
            .full
            .push(crate::KrausChannel::bit_flip(0.1));
        let d = stab_dist(&prog, &noise, &[0]);
        assert!((d[0] - 0.1).abs() < 1e-12, "{d:?}");
        assert!((d[1] - 0.9).abs() < 1e-12, "{d:?}");
    }

    #[test]
    fn depolarizing_clifford_matches_density_matrix() {
        let mut c = Circuit::new(4);
        c.h(0)
            .cx(0, 1)
            .s(1)
            .cz(1, 2)
            .cx(2, 3)
            .h(3)
            .sx(2)
            .cy(0, 3)
            .swap(1, 2);
        let prog = Program::from_circuit(&c);
        let noise = NoiseModel::depolarizing(0.02, 0.07);
        assert_close(
            &stab_dist(&prog, &noise, &[0, 1, 2, 3]),
            &dm_dist(&prog, &noise, &[0, 1, 2, 3]),
            1e-10,
            "depolarizing clifford",
        );
        // Subset measurement too.
        assert_close(
            &stab_dist(&prog, &noise, &[2, 0]),
            &dm_dist(&prog, &noise, &[2, 0]),
            1e-10,
            "subset measurement",
        );
    }

    #[test]
    fn correlated_noise_on_entangled_pairs_matches() {
        // Errors between the CX pair are where naive independent mixing
        // would go wrong: the flip masks must track entangled rows.
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let prog = Program::from_circuit(&c);
        let mut noise = NoiseModel::ideal();
        noise
            .one_qubit
            .full
            .push(crate::KrausChannel::phase_flip(0.2));
        noise
            .two_qubit
            .per_operand
            .push(crate::KrausChannel::bit_flip(0.05));
        assert_close(
            &stab_dist(&prog, &noise, &[0, 1, 2]),
            &dm_dist(&prog, &noise, &[0, 1, 2]),
            1e-10,
            "correlated noise",
        );
    }

    #[test]
    fn wide_noise_free_register_runs() {
        // 40 qubits — far beyond any dense representation.
        let mut c = Circuit::new(40);
        c.h(0);
        for q in 0..39 {
            c.cx(q, q + 1);
        }
        let prog = Program::from_circuit(&c);
        let d = stab_dist(&prog, &NoiseModel::ideal(), &[0, 20, 39]);
        assert!((d[0] - 0.5).abs() < 1e-12);
        assert!((d[7] - 0.5).abs() < 1e-12);
        // Reading out all 40 qubits emits a two-entry sparse distribution —
        // no 2^40 buffer anywhere.
        let wide = StateClass::Stabilizer.run(
            &prog,
            &Arc::new(NoiseModel::ideal()),
            &(0..40).collect::<Vec<_>>(),
        );
        assert_eq!(wide.support_len(), 2);
        assert!((wide.prob((1u64 << 40) - 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fork_is_exact() {
        let noise = Arc::new(NoiseModel::depolarizing(0.01, 0.03));
        let mut st = StabilizerState::zero(3, Arc::clone(&noise));
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1);
        for instr in c.instructions() {
            st.apply_op(&Op::Gate(instr.clone()));
        }
        let fork = st.fork();
        let mut c2 = Circuit::new(3);
        c2.cx(1, 2).s(2);
        let tail: Vec<Op> = c2.instructions().iter().cloned().map(Op::Gate).collect();
        let mut a = st;
        let mut b = fork;
        for op in &tail {
            a.apply_op(op);
            b.apply_op(op);
        }
        assert_eq!(
            a.raw_distribution(&[0, 1, 2]),
            b.raw_distribution(&[0, 1, 2]),
            "forked evolution must be bit-identical"
        );
    }

    #[test]
    #[should_panic(expected = "misclassified program")]
    fn non_clifford_gate_is_a_hard_failure() {
        // If the classifier ever lets a non-Clifford program through, the
        // tableau must refuse loudly instead of silently approximating.
        let mut st = StabilizerState::zero(2, Arc::new(NoiseModel::ideal()));
        let mut c = Circuit::new(2);
        c.h(0).t(0);
        for instr in c.instructions() {
            st.apply_op(&Op::Gate(instr.clone()));
        }
    }
}
