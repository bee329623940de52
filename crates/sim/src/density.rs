//! Exact mixed-state simulation.
//!
//! The density matrix of an `n`-qubit register is stored as a flat array of
//! `4^n` amplitudes indexed by `row | (col << n)`, so column `c` is the
//! contiguous run of entries `c·2^n .. (c+1)·2^n`. A unitary `U` on qubits
//! `qs` is `U` on the row bits and `conj(U)` on the column bits; a Kraus
//! channel is a sum of such terms.
//!
//! Every op — a gate, a channel, or a gate with the channels a noise model
//! attaches to it — is one *tile pass* over the register. A tile is the
//! `2^k × 2^k` entries that differ only in the row and column bits of the
//! op's `k` operands; every attached channel acts on the gate's operands,
//! so the gate, its conjugate and the channels all stay inside the tile.
//! The pass walks the register one block at a time — the `2^k` columns
//! that differ only in the operands' column bits, holding whole tiles —
//! and runs each op on the block while it is in cache:
//!
//! - the row side through the register kernels of [`crate::kernel`], one
//!   column at a time;
//! - the column side across the block's columns, with the same per-group
//!   arithmetic (`apply_across_lanes`);
//! - depolarizing noise by the twirl identity, streamed over the block's
//!   tiles;
//! - a Kraus channel with one term in place, with several as a sum from
//!   zero in Kraus order.
//!
//! Every entry sees the same operations in the same order as it did when
//! the gate's sides and each channel swept the whole register in turn, so
//! results are bit for bit those of that sequence
//! (`crates/sim/tests/density_tile_pass.rs` keeps it as the oracle).

use crate::kernel::{self, KernelClass};
use crate::noise::{ChannelKind, KrausChannel, NoiseModel};
use crate::statevector::StateVector;
use qt_circuit::{Circuit, Instruction};
use qt_math::{Complex, Matrix};

/// Maximum register size accepted by the density-matrix engine
/// (`4^12 = 16.8M` amplitudes ≈ 268 MB).
pub const MAX_QUBITS: usize = 12;

/// An `n`-qubit density matrix.
///
/// # Example
///
/// ```
/// use qt_sim::DensityMatrix;
/// use qt_circuit::Circuit;
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// let rho = DensityMatrix::from_circuit(&bell);
/// assert!((rho.purity() - 1.0).abs() < 1e-10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix {
    n: usize,
    amps: Vec<Complex>,
}

impl DensityMatrix {
    /// The pure state `|0…0⟩⟨0…0|`.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_QUBITS`.
    pub fn zero(n: usize) -> Self {
        assert!(
            n <= MAX_QUBITS,
            "register too large for exact DM: {n} qubits"
        );
        let mut amps = vec![Complex::ZERO; 1 << (2 * n)];
        amps[0] = Complex::ONE;
        DensityMatrix { n, amps }
    }

    /// Runs `circ` noiselessly from `|0…0⟩`.
    pub fn from_circuit(circ: &Circuit) -> Self {
        let mut rho = DensityMatrix::zero(circ.n_qubits());
        for instr in circ.instructions() {
            rho.apply_instruction(instr);
        }
        rho
    }

    /// Converts a pure state to a density matrix.
    pub fn from_statevector(sv: &StateVector) -> Self {
        let n = sv.n_qubits();
        assert!(n <= MAX_QUBITS);
        let a = sv.amplitudes();
        let dim = 1usize << n;
        let mut amps = vec![Complex::ZERO; dim * dim];
        for r in 0..dim {
            if a[r] == Complex::ZERO {
                continue;
            }
            for c in 0..dim {
                amps[r | (c << n)] = a[r] * a[c].conj();
            }
        }
        DensityMatrix { n, amps }
    }

    /// Builds a density matrix from an explicit (small) matrix.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not square with power-of-two dimension.
    pub fn from_matrix(m: &Matrix) -> Self {
        assert!(m.is_square());
        let dim = m.rows();
        assert!(dim.is_power_of_two());
        let n = dim.trailing_zeros() as usize;
        assert!(n <= MAX_QUBITS);
        let mut amps = vec![Complex::ZERO; dim * dim];
        for r in 0..dim {
            for c in 0..dim {
                amps[r | (c << n)] = m[(r, c)];
            }
        }
        DensityMatrix { n, amps }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// Extracts the dense matrix (small registers only).
    ///
    /// # Panics
    ///
    /// Panics if `n > 8` (the matrix would be enormous).
    pub fn to_matrix(&self) -> Matrix {
        assert!(self.n <= 8, "to_matrix() only for small registers");
        let dim = 1usize << self.n;
        let mut m = Matrix::zeros(dim, dim);
        for r in 0..dim {
            for c in 0..dim {
                m[(r, c)] = self.amps[r | (c << self.n)];
            }
        }
        m
    }

    /// Applies one circuit instruction (unitarily), in one tile pass.
    pub fn apply_instruction(&mut self, instr: &Instruction) {
        let ops = TileKind::unitary(KernelClass::for_gate(&instr.gate))
            .map(|kind| TileOp::new(&instr.qubits, &instr.qubits, kind));
        self.tile_pass(&instr.qubits, ops.as_slice());
    }

    /// Applies one instruction and then every channel `noise` attaches to
    /// it, in [`NoiseModel::channels_for`] order, in one tile pass over the
    /// instruction's operands (every attached channel acts on a subset of
    /// them).
    pub fn apply_noisy_instruction(&mut self, instr: &Instruction, noise: &NoiseModel) {
        let qs = &instr.qubits;
        let gate = TileKind::unitary(KernelClass::for_gate(&instr.gate));
        let channels = noise.channels_for(instr);
        let ops: Vec<TileOp> = gate
            .map(|kind| TileOp::new(qs, qs, kind))
            .into_iter()
            .chain(channels.iter().filter_map(|(ch_qs, ch)| {
                TileKind::channel(ch, ch_qs.len()).map(|kind| TileOp::new(qs, ch_qs, kind))
            }))
            .collect();
        self.tile_pass(qs, &ops);
    }

    /// Applies a noise channel, dispatching to the depolarizing fast path
    /// when available.
    pub fn apply_channel(&mut self, channel: &KrausChannel, qubits: &[usize]) {
        let op =
            TileKind::channel(channel, qubits.len()).map(|kind| TileOp::new(qubits, qubits, kind));
        self.tile_pass(qubits, op.as_slice());
    }

    /// Depolarizing fast path via the twirl identity:
    /// `ρ → (1−λ)ρ + λ·(I/2^k ⊗ tr_q ρ)` with `λ = 4^k·p / (4^k − 1)`.
    ///
    /// Runs in one pass: within each tile the subset trace is a scalar, so
    /// no full-size scratch buffer is needed.
    pub fn apply_depolarizing(&mut self, qubits: &[usize], p: f64) {
        let op =
            TileKind::depolarizing(qubits.len(), p).map(|kind| TileOp::new(qubits, qubits, kind));
        self.tile_pass(qubits, op.as_slice());
    }

    /// Applies a Kraus channel `ρ → Σᵢ Kᵢ ρ Kᵢ†` on `qubits`.
    ///
    /// Each operator is classified once and applied through the specialized
    /// per-group arithmetic, tile by tile, so no full-size buffer is
    /// allocated; a single term acts in place like a (possibly non-unitary)
    /// gate.
    pub fn apply_kraus(&mut self, kraus: &[Matrix], qubits: &[usize]) {
        let op = TileKind::kraus(kraus).map(|kind| TileOp::new(qubits, qubits, kind));
        self.tile_pass(qubits, op.as_slice());
    }

    /// Runs `ops` in order on every tile of `qubits` — the `2^k × 2^k`
    /// entries that differ only in the operands' row and column bits — in
    /// one pass over the register. The pass walks it one block at a time:
    /// the `2^k` columns that differ only in the operands' column bits, so
    /// every tile lies inside one block and the ops evolve the block while
    /// it is in cache. A register of at least [`kernel::PARALLEL_MIN_AMPS`]
    /// entries fans its blocks out by the slab rule of the column side
    /// (period `2^(top + n + 1)`).
    fn tile_pass(&mut self, qubits: &[usize], ops: &[TileOp]) {
        if ops.is_empty() {
            return;
        }
        let n = self.n;
        // Column index of each of a block's columns, by local column index.
        let lane_columns = kernel::local_offsets_shifted(qubits, 0);
        let mut sorted = qubits.to_vec();
        sorted.sort_unstable();
        let top = sorted.last().copied().unwrap_or(0);
        kernel::for_each_slab(&mut self.amps, 1 << (top + n + 1), |slab| {
            let mut columns: Vec<Option<&mut [Complex]>> =
                slab.chunks_exact_mut(1 << n).map(Some).collect();
            let mut block = Vec::with_capacity(lane_columns.len());
            for b in 0..columns.len() >> qubits.len() {
                let first = kernel::expand_index(b, &sorted);
                block.clear();
                block.extend(lane_columns.iter().map(|&c| {
                    columns[first | c]
                        .take()
                        .expect("each column lies in one block")
                }));
                for op in ops {
                    op.apply(&mut block);
                }
            }
        });
    }

    /// The diagonal (outcome probabilities in the computational basis).
    pub fn diagonal(&self) -> Vec<f64> {
        let dim = 1usize << self.n;
        (0..dim).map(|i| self.amps[i | (i << self.n)].re).collect()
    }

    /// Marginal outcome probabilities over `subset`
    /// (output bit `i` = `subset[i]`).
    pub fn marginal_probabilities(&self, subset: &[usize]) -> Vec<f64> {
        let diag = self.diagonal();
        let mut out = vec![0.0; 1 << subset.len()];
        for (idx, p) in diag.iter().enumerate() {
            let mut key = 0usize;
            for (pos, &q) in subset.iter().enumerate() {
                if (idx >> q) & 1 == 1 {
                    key |= 1 << pos;
                }
            }
            out[key] += p;
        }
        out
    }

    /// Trace of the density matrix (1 for a normalized state; the QSPC
    /// denominator uses unnormalized branches).
    pub fn trace(&self) -> Complex {
        let dim = 1usize << self.n;
        (0..dim).map(|i| self.amps[i | (i << self.n)]).sum()
    }

    /// Purity `tr(ρ²)`.
    pub fn purity(&self) -> f64 {
        // tr(ρ²) = Σ_{r,c} ρ[r,c]·ρ[c,r] = Σ |ρ[r,c]|² for Hermitian ρ.
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Expectation `tr(ρ · Op)` of a local operator on `qubits`.
    pub fn expectation_local(&self, op: &Matrix, qubits: &[usize]) -> Complex {
        let k = qubits.len();
        assert_eq!(op.rows(), 1 << k);
        let dim_local = 1usize << k;
        let mut sorted = qubits.to_vec();
        sorted.sort_unstable();
        let mut offsets = vec![0usize; dim_local];
        for (l, off) in offsets.iter_mut().enumerate() {
            for (pos, &q) in qubits.iter().enumerate() {
                if (l >> pos) & 1 == 1 {
                    *off |= 1 << q;
                }
            }
        }
        let mut acc = Complex::ZERO;
        let outer = 1usize << (self.n - k);
        for i in 0..outer {
            let mut base = i;
            for &q in &sorted {
                let low = base & ((1usize << q) - 1);
                base = ((base >> q) << (q + 1)) | low;
            }
            // tr(ρA) = Σ_{r,c} ρ[r,c] A[c,r]
            for r in 0..dim_local {
                for c in 0..dim_local {
                    let a = op[(c, r)];
                    if a == Complex::ZERO {
                        continue;
                    }
                    let rho = self.amps[(base | offsets[r]) | ((base | offsets[c]) << self.n)];
                    acc += rho * a;
                }
            }
        }
        acc
    }

    /// Partial trace keeping only `keep` (in the given order: output qubit
    /// `i` = `keep[i]`).
    pub fn partial_trace(&self, keep: &[usize]) -> DensityMatrix {
        let k = keep.len();
        let traced: Vec<usize> = (0..self.n).filter(|q| !keep.contains(q)).collect();
        let dim_keep = 1usize << k;
        let mut out = vec![Complex::ZERO; dim_keep * dim_keep];
        let expand = |bits_keep: usize, bits_traced: usize| -> usize {
            let mut idx = 0usize;
            for (pos, &q) in keep.iter().enumerate() {
                if (bits_keep >> pos) & 1 == 1 {
                    idx |= 1 << q;
                }
            }
            for (pos, &q) in traced.iter().enumerate() {
                if (bits_traced >> pos) & 1 == 1 {
                    idx |= 1 << q;
                }
            }
            idx
        };
        for r in 0..dim_keep {
            for c in 0..dim_keep {
                let mut acc = Complex::ZERO;
                for x in 0..(1usize << traced.len()) {
                    let rf = expand(r, x);
                    let cf = expand(c, x);
                    acc += self.amps[rf | (cf << self.n)];
                }
                out[r | (c << k)] = acc;
            }
        }
        DensityMatrix { n: k, amps: out }
    }

    /// Replaces the state of `qubits` by `rho_small` (any density matrix of
    /// dimension `2^k`), tracing out their previous contents:
    /// `ρ → tr_qs(ρ) ⊗ ρ_small`.
    pub fn reset_qubits(&mut self, qubits: &[usize], rho_small: &Matrix) {
        let k = qubits.len();
        assert_eq!(rho_small.rows(), 1 << k, "reset state dimension mismatch");
        let rest: Vec<usize> = (0..self.n).filter(|q| !qubits.contains(q)).collect();
        let reduced = self.partial_trace(&rest);
        // reduced is on `rest` in order; rebuild the full matrix.
        let dim = 1usize << self.n;
        let mut out = vec![Complex::ZERO; dim * dim];
        let nr = rest.len();
        for rr in 0..(1usize << nr) {
            for cr in 0..(1usize << nr) {
                let base_val = reduced.amps[rr | (cr << nr)];
                if base_val == Complex::ZERO {
                    continue;
                }
                let mut rfull0 = 0usize;
                let mut cfull0 = 0usize;
                for (pos, &q) in rest.iter().enumerate() {
                    if (rr >> pos) & 1 == 1 {
                        rfull0 |= 1 << q;
                    }
                    if (cr >> pos) & 1 == 1 {
                        cfull0 |= 1 << q;
                    }
                }
                for rq in 0..(1usize << k) {
                    for cq in 0..(1usize << k) {
                        let sv = rho_small[(rq, cq)];
                        if sv == Complex::ZERO {
                            continue;
                        }
                        let mut rfull = rfull0;
                        let mut cfull = cfull0;
                        for (pos, &q) in qubits.iter().enumerate() {
                            if (rq >> pos) & 1 == 1 {
                                rfull |= 1 << q;
                            }
                            if (cq >> pos) & 1 == 1 {
                                cfull |= 1 << q;
                            }
                        }
                        out[rfull | (cfull << self.n)] = base_val * sv;
                    }
                }
            }
        }
        self.amps = out;
    }

    /// Scales the density matrix (used for unnormalized QSPC branches).
    pub fn scale(&mut self, c: Complex) {
        for a in &mut self.amps {
            *a *= c;
        }
    }

    /// Adds `other` (element-wise) into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the sizes differ.
    pub fn add_assign(&mut self, other: &DensityMatrix) {
        assert_eq!(self.n, other.n);
        for (a, b) in self.amps.iter_mut().zip(&other.amps) {
            *a += *b;
        }
    }
}

/// What one op of a tile pass does to the tiles of a block.
#[derive(Debug)]
enum TileKind {
    /// A gate or a one-term Kraus channel: the class on the row bits, then
    /// its conjugate on the column bits.
    TwoSided(KernelClass, KernelClass),
    /// The twirl identity of [`DensityMatrix::apply_depolarizing`].
    Depolarizing {
        /// `1 − λ`.
        keep: f64,
        /// `λ / 2^j`.
        mix: f64,
    },
    /// `Σᵢ Kᵢ ρ Kᵢ†`, each term two-sided, summed from zero in Kraus order.
    Kraus(Vec<(KernelClass, KernelClass)>),
}

impl TileKind {
    /// A unitary (or one-term Kraus) op; `None` for a unit phase, which
    /// every kernel skips.
    fn unitary(class: KernelClass) -> Option<TileKind> {
        if matches!(class, KernelClass::ControlledPhase { phase } if phase == Complex::ONE) {
            return None;
        }
        let conj = class.conj();
        Some(TileKind::TwoSided(class, conj))
    }

    /// The depolarizing channel on `k` qubits; `None` when `p ≤ 0`.
    fn depolarizing(k: usize, p: f64) -> Option<TileKind> {
        if p <= 0.0 {
            return None;
        }
        let dim_local = 1usize << k;
        let lambda = (dim_local * dim_local) as f64 * p / ((dim_local * dim_local - 1) as f64);
        Some(TileKind::Depolarizing {
            keep: 1.0 - lambda,
            mix: lambda / dim_local as f64,
        })
    }

    /// A Kraus channel from its operators, each classified once.
    fn kraus(kraus: &[Matrix]) -> Option<TileKind> {
        let mut terms: Vec<(KernelClass, KernelClass)> = kraus
            .iter()
            .map(|k| {
                let class = KernelClass::classify(k);
                let conj = class.conj();
                (class, conj)
            })
            .collect();
        if terms.len() == 1 {
            return TileKind::unitary(terms.remove(0).0);
        }
        Some(TileKind::Kraus(terms))
    }

    /// A noise channel on `k` qubits, depolarizing by its fast path.
    fn channel(channel: &KrausChannel, k: usize) -> Option<TileKind> {
        match channel.kind() {
            ChannelKind::Depolarizing { p } => TileKind::depolarizing(k, p),
            ChannelKind::General => TileKind::kraus(channel.ops()),
        }
    }

    /// Evolves the tiles of `lanes` — columns differing only in the op's
    /// column bits, lane `l` at local column `l` — on the row qubits
    /// `qubits` (in op order).
    fn apply(&self, lanes: &mut [&mut [Complex]], qubits: &[usize]) {
        match self {
            TileKind::TwoSided(row, col) => two_sided(row, col, lanes, qubits),
            TileKind::Depolarizing { keep, mix } => depolarize(lanes, qubits, *keep, *mix),
            TileKind::Kraus(terms) => {
                let len = lanes[0].len();
                let mut acc = vec![Complex::ZERO; len * lanes.len()];
                let mut term = vec![Complex::ZERO; len * lanes.len()];
                for (row, col) in terms {
                    let mut term_lanes: Vec<&mut [Complex]> = term.chunks_exact_mut(len).collect();
                    for (dst, src) in term_lanes.iter_mut().zip(lanes.iter()) {
                        dst.copy_from_slice(src);
                    }
                    two_sided(row, col, &mut term_lanes, qubits);
                    for (a, &t) in acc.iter_mut().zip(&term) {
                        *a += t;
                    }
                }
                for (lane, src) in lanes.iter_mut().zip(acc.chunks_exact(len)) {
                    lane.copy_from_slice(src);
                }
            }
        }
    }
}

/// `row` on the row bits `qubits` of every lane (a column of the density
/// matrix) through the register kernels, then `col` across the lanes.
fn two_sided(row: &KernelClass, col: &KernelClass, lanes: &mut [&mut [Complex]], qubits: &[usize]) {
    for lane in lanes.iter_mut() {
        kernel::apply_to_slab(lane, row, qubits);
    }
    kernel::apply_across_lanes(col, lanes);
}

/// The twirl identity on every tile of `lanes`: the trace over the
/// diagonal, summed from zero in operand order, then every entry scaled by
/// `keep` and the diagonal raised by `mix` times the trace.
fn depolarize(lanes: &mut [&mut [Complex]], qubits: &[usize], keep: f64, mix: f64) {
    if let ([q], [l0, l1]) = (qubits, &mut *lanes) {
        // One qubit: stream the four entries of each tile in runs.
        let b = 1usize << q;
        for (c0, c1) in l0.chunks_exact_mut(2 * b).zip(l1.chunks_exact_mut(2 * b)) {
            let (a00, a10) = c0.split_at_mut(b);
            let (a01, a11) = c1.split_at_mut(b);
            let diagonals = a00.iter_mut().zip(a11.iter_mut());
            for ((x00, x11), (x10, x01)) in diagonals.zip(a10.iter_mut().zip(a01.iter_mut())) {
                let mut t = Complex::ZERO;
                t += *x00;
                t += *x11;
                let tmix = t.scale(mix);
                *x00 = x00.scale(keep) + tmix;
                *x10 = x10.scale(keep);
                *x01 = x01.scale(keep);
                *x11 = x11.scale(keep) + tmix;
            }
        }
        return;
    }
    // Any width: each tile's trace from its diagonal, then every entry
    // scaled, then the diagonal raised. `next` steps a row index to the
    // next one with every operand bit clear.
    let rows = kernel::local_offsets_shifted(qubits, 0);
    let mask: usize = rows.last().copied().unwrap_or(0);
    let next = |r: usize| ((r | mask) + 1) & !mask;
    let mut trace = vec![Complex::ZERO; lanes[0].len() >> qubits.len()];
    for (lane, &off) in lanes.iter().zip(&rows) {
        let mut r = 0;
        for t in trace.iter_mut() {
            *t += lane[r | off];
            r = next(r);
        }
    }
    for t in &mut trace {
        *t = t.scale(mix);
    }
    for (lane, &off) in lanes.iter_mut().zip(&rows) {
        for v in lane.iter_mut() {
            *v = v.scale(keep);
        }
        let mut r = 0;
        for &t in &trace {
            lane[r | off] += t;
            r = next(r);
        }
    }
}

/// One op of a tile pass: its kind and where it acts within a block.
#[derive(Debug)]
struct TileOp {
    kind: TileKind,
    /// The op's operands, in the op's order.
    qubits: Vec<usize>,
    /// For a one-qubit op on one operand of a wider tile, the bit of that
    /// operand in a block's local column index; `None` when the op acts on
    /// all of the tile's operands in the tile's order.
    operand_bit: Option<usize>,
}

impl TileOp {
    /// `kind` on `op_qubits` (in the op's operand order) within the tiles of
    /// `tile_qubits`.
    ///
    /// # Panics
    ///
    /// Panics if the op is neither on the tile's operands in their order nor
    /// on a single one of them (the shapes [`NoiseModel::channels_for`]
    /// attaches), or if a class's operand count differs from the op's.
    fn new(tile_qubits: &[usize], op_qubits: &[usize], kind: TileKind) -> TileOp {
        let classes: Vec<&KernelClass> = match &kind {
            TileKind::TwoSided(class, _) => vec![class],
            TileKind::Depolarizing { .. } => vec![],
            TileKind::Kraus(terms) => terms.iter().map(|(class, _)| class).collect(),
        };
        for class in classes {
            if let Some(k) = class.n_qubits() {
                assert_eq!(
                    k,
                    op_qubits.len(),
                    "kernel class does not match operand count"
                );
            }
        }
        let operand_bit = (op_qubits != tile_qubits).then(|| {
            match op_qubits {
                [q] => tile_qubits.iter().position(|t| t == q),
                _ => None,
            }
            .unwrap_or_else(|| panic!("op on {op_qubits:?} within a tile of {tile_qubits:?}"))
        });
        TileOp {
            kind,
            qubits: op_qubits.to_vec(),
            operand_bit,
        }
    }

    /// Evolves the tiles of one block (lane `l` = local column `l`).
    fn apply(&self, block: &mut [&mut [Complex]]) {
        let Some(p) = self.operand_bit else {
            self.kind.apply(block, &self.qubits);
            return;
        };
        for l in (0..block.len()).filter(|l| l >> p & 1 == 0) {
            let [lo, hi] = block
                .get_disjoint_mut([l, l | 1 << p])
                .expect("distinct lanes");
            self.kind.apply(&mut [&mut **lo, &mut **hi], &self.qubits);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_math::states::PrepState;

    #[test]
    fn matches_statevector_on_random_circuit() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).ry(2, 0.8).cz(1, 2).rz(0, 0.3).cx(2, 0);
        let sv = StateVector::from_circuit(&c);
        let rho = DensityMatrix::from_circuit(&c);
        let probs_sv = sv.probabilities();
        let probs_dm = rho.diagonal();
        for (a, b) in probs_sv.iter().zip(probs_dm) {
            assert!((a - b).abs() < 1e-10);
        }
        assert!((rho.purity() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn depolarizing_kraus_mixes_state() {
        let mut rho = DensityMatrix::zero(1);
        // Full depolarizing: p = 1 sends any state to I/2 on one qubit.
        let p: f64 = 1.0;
        let k = vec![
            Matrix::identity(2).scale(Complex::real((1.0 - 3.0 * p / 4.0).sqrt())),
            qt_math::pauli::x2().scale(Complex::real((p / 4.0).sqrt())),
            qt_math::pauli::y2().scale(Complex::real((p / 4.0).sqrt())),
            qt_math::pauli::z2().scale(Complex::real((p / 4.0).sqrt())),
        ];
        rho.apply_kraus(&k, &[0]);
        let d = rho.diagonal();
        assert!((d[0] - 0.5).abs() < 1e-12);
        assert!((d[1] - 0.5).abs() < 1e-12);
        assert!((rho.purity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn depolarizing_in_place_matches_explicit_pauli_kraus() {
        // Regression: the fast path used to clone the whole register; the
        // in-place rewrite must still equal the explicit Pauli-Kraus sum on
        // a correlated state, for both 1- and 2-qubit subsets.
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).ry(2, 0.8).cz(1, 2).t(0);
        let p: f64 = 0.07;
        // Single-qubit subset.
        let k1 = vec![
            Matrix::identity(2).scale(Complex::real((1.0 - p).sqrt())),
            qt_math::pauli::x2().scale(Complex::real((p / 3.0).sqrt())),
            qt_math::pauli::y2().scale(Complex::real((p / 3.0).sqrt())),
            qt_math::pauli::z2().scale(Complex::real((p / 3.0).sqrt())),
        ];
        let mut fast = DensityMatrix::from_circuit(&c);
        let mut slow = fast.clone();
        fast.apply_depolarizing(&[1], p);
        slow.apply_kraus(&k1, &[1]);
        assert!(fast.to_matrix().approx_eq(&slow.to_matrix(), 1e-12));
        // Two-qubit subset: all 16 two-qubit Paulis.
        let paulis = [
            Matrix::identity(2),
            qt_math::pauli::x2(),
            qt_math::pauli::y2(),
            qt_math::pauli::z2(),
        ];
        let mut k2 = Vec::new();
        for (i, a) in paulis.iter().enumerate() {
            for (j, b) in paulis.iter().enumerate() {
                let w = if i == 0 && j == 0 { 1.0 - p } else { p / 15.0 };
                k2.push(b.kron(a).scale(Complex::real(w.sqrt())));
            }
        }
        let mut fast = DensityMatrix::from_circuit(&c);
        let mut slow = fast.clone();
        fast.apply_depolarizing(&[2, 0], p);
        slow.apply_kraus(&k2, &[2, 0]);
        assert!(fast.to_matrix().approx_eq(&slow.to_matrix(), 1e-12));
        assert!((fast.trace().re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_kraus_term_applies_in_place() {
        // A one-element Kraus list (e.g. a projector branch) takes the
        // allocation-free path and must match the generic sum.
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let k = vec![Matrix::mat2(
            Complex::ONE,
            Complex::ZERO,
            Complex::ZERO,
            Complex::real(0.5),
        )];
        let mut fast = DensityMatrix::from_circuit(&c);
        let mut slow = fast.clone();
        fast.apply_kraus(&k, &[0]);
        // Reference: embed and conjugate explicitly.
        let u = qt_circuit::embed(&k[0], &[0], 2);
        let m = u.mul(&slow.to_matrix()).mul(&u.dagger());
        slow = DensityMatrix::from_matrix(&m);
        assert!(fast.to_matrix().approx_eq(&slow.to_matrix(), 1e-12));
    }

    #[test]
    fn partial_trace_of_bell_is_maximally_mixed() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let rho = DensityMatrix::from_circuit(&c);
        let r0 = rho.partial_trace(&[0]);
        let m = r0.to_matrix();
        assert!(m[(0, 0)].approx_eq(Complex::real(0.5), 1e-12));
        assert!(m[(1, 1)].approx_eq(Complex::real(0.5), 1e-12));
        assert!(m[(0, 1)].approx_eq(Complex::ZERO, 1e-12));
    }

    #[test]
    fn reset_severs_correlations() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut rho = DensityMatrix::from_circuit(&c);
        rho.reset_qubits(&[0], &PrepState::Plus.projector());
        // Qubit 0 now |+⟩, qubit 1 maximally mixed, product state.
        let q0 = rho.partial_trace(&[0]).to_matrix();
        assert!(q0.approx_eq(&PrepState::Plus.projector(), 1e-10));
        let q1 = rho.partial_trace(&[1]).to_matrix();
        assert!(q1[(0, 0)].approx_eq(Complex::real(0.5), 1e-10));
        assert!((rho.trace().re - 1.0).abs() < 1e-10);
        // Product structure: ⟨X₀ Z₁⟩ = ⟨X₀⟩⟨Z₁⟩ = 1·0 = 0.
        let xz = qt_math::pauli::z2().kron(&qt_math::pauli::x2());
        assert!(rho
            .expectation_local(&xz, &[0, 1])
            .approx_eq(Complex::ZERO, 1e-10));
    }

    #[test]
    fn expectation_matches_statevector() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).ry(2, 1.1).cz(0, 2);
        let sv = StateVector::from_circuit(&c);
        let rho = DensityMatrix::from_circuit(&c);
        let op = qt_math::pauli::x2().kron(&qt_math::pauli::z2()); // Z on first operand, X on second
        let a = sv.expectation_local(&op, &[0, 2]);
        let b = rho.expectation_local(&op, &[0, 2]);
        assert!(a.approx_eq(b, 1e-10));
    }

    #[test]
    fn marginals_match_statevector() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 2).ry(1, 0.5);
        let sv = StateVector::from_circuit(&c);
        let rho = DensityMatrix::from_circuit(&c);
        let a = sv.marginal_probabilities(&[2, 1]);
        let b = rho.marginal_probabilities(&[2, 1]);
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn fanned_out_pass_matches_the_serial_pass_bit_for_bit() {
        // 10 qubits fill `PARALLEL_MIN_AMPS`, so the test thread fans each
        // pass out over its slabs (on ≥ 2 CPUs) while a `parallel_indexed`
        // worker runs it serially; the top qubit's pass is one slab.
        let n = 10;
        assert_eq!(1usize << (2 * n), kernel::PARALLEL_MIN_AMPS);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let start = DensityMatrix {
            n,
            amps: (0..1usize << (2 * n))
                .map(|_| Complex::new(next(), next()))
                .collect(),
        };
        let mut noise = NoiseModel::depolarizing(0.01, 0.05);
        noise.two_qubit.per_operand = vec![KrausChannel::thermal_relaxation(90.0, 70.0, 40.0)];
        let gates = [
            Instruction::new(qt_circuit::Gate::H, vec![0]),
            Instruction::new(qt_circuit::Gate::Cx, vec![5, 4]),
            Instruction::new(qt_circuit::Gate::Ry(0.3), vec![9]),
        ];
        let evolve = || {
            let mut rho = start.clone();
            for g in &gates {
                rho.apply_noisy_instruction(g, &noise);
            }
            rho
        };
        let fanned = evolve();
        let serial = crate::backend::parallel_indexed(2, 2, |i| (i == 0).then(evolve))
            .into_iter()
            .flatten()
            .next()
            .expect("item 0 evolves");
        for (i, (a, b)) in fanned.amps.iter().zip(&serial.amps).enumerate() {
            assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "entry {i}: {a:?} fanned out, {b:?} serial"
            );
        }
    }

    #[test]
    fn from_matrix_round_trip() {
        let m = PrepState::PlusI.projector();
        let rho = DensityMatrix::from_matrix(&m);
        assert!(rho.to_matrix().approx_eq(&m, 1e-12));
    }
}
