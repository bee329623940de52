//! Low-level gate-application kernels shared by the state-vector and
//! density-matrix engines.
//!
//! Amplitude arrays are indexed with qubit 0 as the least-significant bit.
//! A gate on operand list `qs` uses `qs[0]` as the least-significant bit of
//! its local index (matching [`qt_circuit::Gate::matrix`]).
//!
//! # Kernel specialization
//!
//! Applying every gate as a dense `2^k × 2^k` matrix wastes most of its work
//! on structured operators: a controlled phase touches one amplitude in four,
//! a CX moves amplitudes without any arithmetic, and a diagonal gate never
//! needs a gather/scatter at all. [`KernelClass`] classifies an operator
//! matrix once and [`apply_classified`] dispatches to a dedicated kernel:
//!
//! | class                | kernel                                | gates |
//! |----------------------|---------------------------------------|-------|
//! | `ControlledPhase`    | phase on the all-ones sub-lattice     | Z, S, T, P, Cz, Cp, Ccp |
//! | `Diagonal`           | in-place factor multiplication        | Rz, Crz |
//! | `Permutation`        | gather/permute/scatter, no matmul     | X, Y, Cx, Cy, Swap |
//! | `SingleQubitDense`   | stride-based 2×2 butterfly            | H, Sx, Rx, Ry, U |
//! | `TwoQubitDense`      | 4-amplitude gather + 4×4 product, or a control=1-subspace butterfly | Crx, Cry, any 4×4 |
//! | `General`            | [`apply_op_generic`] (the oracle)     | everything else |
//!
//! [`apply_op`] classifies and dispatches; [`apply_op_generic`] is the
//! original dense path, kept as the correctness oracle the property tests
//! compare every specialized kernel against. Registers with at least
//! [`PARALLEL_MIN_AMPS`] amplitudes route the specialized kernels through
//! [`crate::backend::parallel_chunks_mut`] (built on
//! [`crate::backend::parallel_indexed`]); in-place kernels write each
//! amplitude exactly once from fixed inputs, so the parallel path is
//! bit-identical to the serial one regardless of worker count.
//!
//! The arithmetic of one group is written once — `butterfly` (dense 2×2
//! and controlled blocks), `product4`, `monomial` and `generic_row` — and
//! shared by the register kernels and by `apply_across_lanes`, which
//! applies a class across equal-length slices: the column side of the
//! density matrix's tile pass (see [`crate::density`]), whose row side runs
//! the register kernels column by column.

use crate::backend::{available_threads, parallel_chunks_mut};
use qt_circuit::Gate;
use qt_math::{Complex, Matrix};

/// Register size (in amplitudes) from which the specialized kernels fan out
/// over worker threads (2²⁰ amplitudes = a 20-qubit state vector or a
/// 10-qubit density matrix).
pub const PARALLEL_MIN_AMPS: usize = 1 << 20;

/// A dense 2×2 block applied on the control=1 subspace of a two-qubit gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlledBlock {
    /// Local operand index of the control qubit (0 or 1).
    pub control: u8,
    /// Row-major 2×2 block applied to the target when the control is set.
    pub block: [Complex; 4],
}

/// Structural classification of an operator matrix, computed once per
/// application (or once per program — see
/// [`KernelClass::for_gate`]) and dispatched by [`apply_classified`].
#[derive(Debug, Clone, PartialEq)]
pub enum KernelClass {
    /// Diagonal operator: in-place multiplication by `factors[local]`.
    Diagonal {
        /// Diagonal entries, indexed by the local operand index.
        factors: Vec<Complex>,
    },
    /// Monomial operator: `new[perm[c]] = factors[c] · old[c]`.
    Permutation {
        /// Row index of the single nonzero entry in each column.
        perm: Vec<u8>,
        /// The nonzero entry of each column.
        factors: Vec<Complex>,
    },
    /// Identity except for `phase` on the all-ones local index; touches only
    /// `2^{n-k}` amplitudes.
    ControlledPhase {
        /// The phase picked up by the all-ones basis state.
        phase: Complex,
    },
    /// Dense 2×2 operator: stride-based butterfly.
    SingleQubitDense {
        /// Row-major entries `[m00, m01, m10, m11]`.
        m: [Complex; 4],
    },
    /// Dense 4×4 operator; when `control` is set, the matrix is the identity
    /// on the control=0 subspace and the kernel touches only the control=1
    /// half.
    TwoQubitDense {
        /// Row-major 4×4 entries.
        m: Box<[Complex; 16]>,
        /// Controlled-gate structure, if the matrix has it.
        control: Option<ControlledBlock>,
    },
    /// No exploitable structure: fall back to [`apply_op_generic`].
    General(Matrix),
}

impl KernelClass {
    /// Classifies an operator matrix by inspecting its entries.
    ///
    /// Classification uses exact comparisons against 0 and 1, which the
    /// workspace's gate constructors produce exactly; a nearly-diagonal
    /// matrix with `1e-30` off-diagonal dust is treated as dense, which is
    /// always correct (just slower).
    pub fn classify(u: &Matrix) -> KernelClass {
        if !u.is_square() || !u.rows().is_power_of_two() {
            return KernelClass::General(u.clone());
        }
        let d = u.rows();
        if let Some(factors) = diagonal_of(u) {
            if factors[..d - 1].iter().all(|&f| f == Complex::ONE) {
                return KernelClass::ControlledPhase {
                    phase: factors[d - 1],
                };
            }
            return KernelClass::Diagonal { factors };
        }
        if let Some((perm, factors)) = monomial_of(u) {
            return KernelClass::Permutation { perm, factors };
        }
        match d {
            2 => KernelClass::SingleQubitDense {
                m: [u[(0, 0)], u[(0, 1)], u[(1, 0)], u[(1, 1)]],
            },
            4 => {
                let mut m = Box::new([Complex::ZERO; 16]);
                for r in 0..4 {
                    for c in 0..4 {
                        m[r * 4 + c] = u[(r, c)];
                    }
                }
                let control = controlled_block_of(u);
                KernelClass::TwoQubitDense { m, control }
            }
            _ => KernelClass::General(u.clone()),
        }
    }

    /// Classifies a gate, constructing the class directly from the gate's
    /// parameters where possible (no matrix allocation for diagonal,
    /// permutation and controlled-phase gates — the hot path of trajectory
    /// replay).
    pub fn for_gate(gate: &Gate) -> KernelClass {
        let i = Complex::I;
        match gate {
            Gate::Z | Gate::Cz => KernelClass::ControlledPhase {
                phase: -Complex::ONE,
            },
            Gate::S => KernelClass::ControlledPhase { phase: i },
            Gate::Sdg => KernelClass::ControlledPhase { phase: -i },
            Gate::T => KernelClass::ControlledPhase {
                phase: Complex::from_phase(std::f64::consts::FRAC_PI_4),
            },
            Gate::Tdg => KernelClass::ControlledPhase {
                phase: Complex::from_phase(-std::f64::consts::FRAC_PI_4),
            },
            Gate::Phase(t) | Gate::Cp(t) | Gate::Ccp(t) => KernelClass::ControlledPhase {
                phase: Complex::from_phase(*t),
            },
            Gate::Rz(t) => KernelClass::Diagonal {
                factors: vec![Complex::from_phase(-t / 2.0), Complex::from_phase(t / 2.0)],
            },
            Gate::Crz(t) => KernelClass::Diagonal {
                factors: vec![
                    Complex::ONE,
                    Complex::from_phase(-t / 2.0),
                    Complex::ONE,
                    Complex::from_phase(t / 2.0),
                ],
            },
            Gate::X => KernelClass::Permutation {
                perm: vec![1, 0],
                factors: vec![Complex::ONE; 2],
            },
            Gate::Y => KernelClass::Permutation {
                perm: vec![1, 0],
                factors: vec![i, -i],
            },
            Gate::Cx => KernelClass::Permutation {
                perm: vec![0, 3, 2, 1],
                factors: vec![Complex::ONE; 4],
            },
            Gate::Cy => KernelClass::Permutation {
                perm: vec![0, 3, 2, 1],
                factors: vec![Complex::ONE, i, Complex::ONE, -i],
            },
            Gate::Swap => KernelClass::Permutation {
                perm: vec![0, 2, 1, 3],
                factors: vec![Complex::ONE; 4],
            },
            Gate::Crx(t) => controlled_dense(&Gate::Rx(*t).matrix()),
            Gate::Cry(t) => controlled_dense(&Gate::Ry(*t).matrix()),
            _ => KernelClass::classify(&gate.matrix()),
        }
    }

    /// The class of the element-wise conjugate operator — what the column
    /// side of a vectorized density matrix evolves under. The structure is
    /// preserved; only the stored entries conjugate.
    pub fn conj(&self) -> KernelClass {
        match self {
            KernelClass::Diagonal { factors } => KernelClass::Diagonal {
                factors: factors.iter().map(|f| f.conj()).collect(),
            },
            KernelClass::Permutation { perm, factors } => KernelClass::Permutation {
                perm: perm.clone(),
                factors: factors.iter().map(|f| f.conj()).collect(),
            },
            KernelClass::ControlledPhase { phase } => KernelClass::ControlledPhase {
                phase: phase.conj(),
            },
            KernelClass::SingleQubitDense { m } => KernelClass::SingleQubitDense {
                m: [m[0].conj(), m[1].conj(), m[2].conj(), m[3].conj()],
            },
            KernelClass::TwoQubitDense { m, control } => {
                let mut mc = Box::new([Complex::ZERO; 16]);
                for (dst, src) in mc.iter_mut().zip(m.iter()) {
                    *dst = src.conj();
                }
                let control = control.map(|cb| ControlledBlock {
                    control: cb.control,
                    block: [
                        cb.block[0].conj(),
                        cb.block[1].conj(),
                        cb.block[2].conj(),
                        cb.block[3].conj(),
                    ],
                });
                KernelClass::TwoQubitDense { m: mc, control }
            }
            KernelClass::General(u) => KernelClass::General(u.conj()),
        }
    }

    /// Number of operand qubits the class acts on.
    pub fn n_qubits(&self) -> Option<usize> {
        match self {
            KernelClass::Diagonal { factors } => Some(factors.len().trailing_zeros() as usize),
            KernelClass::Permutation { perm, .. } => Some(perm.len().trailing_zeros() as usize),
            KernelClass::ControlledPhase { .. } => None, // any operand count
            KernelClass::SingleQubitDense { .. } => Some(1),
            KernelClass::TwoQubitDense { .. } => Some(2),
            KernelClass::General(u) => Some(u.rows().trailing_zeros() as usize),
        }
    }
}

/// The diagonal of `u` if it is exactly diagonal.
fn diagonal_of(u: &Matrix) -> Option<Vec<Complex>> {
    let d = u.rows();
    for r in 0..d {
        for c in 0..d {
            if r != c && u[(r, c)] != Complex::ZERO {
                return None;
            }
        }
    }
    Some(u.diagonal())
}

/// The `(perm, factors)` decomposition of `u` if it is exactly monomial
/// (one nonzero per row and column).
fn monomial_of(u: &Matrix) -> Option<(Vec<u8>, Vec<Complex>)> {
    let d = u.rows();
    // The permutation kernel gathers into a fixed 8-slot buffer; larger
    // monomial operators (≥ 4 qubits) fall through to the generic path.
    if d > 8 {
        return None;
    }
    let mut perm = vec![0u8; d];
    let mut factors = vec![Complex::ZERO; d];
    let mut row_used = vec![false; d];
    for c in 0..d {
        let mut hit = None;
        for r in 0..d {
            if u[(r, c)] != Complex::ZERO {
                if hit.is_some() {
                    return None;
                }
                hit = Some(r);
            }
        }
        let r = hit?;
        if row_used[r] {
            return None;
        }
        row_used[r] = true;
        perm[c] = r as u8;
        factors[c] = u[(r, c)];
    }
    Some((perm, factors))
}

/// The controlled-block structure of a 4×4 matrix, if it is the identity on
/// one operand's control=0 subspace.
fn controlled_block_of(u: &Matrix) -> Option<ControlledBlock> {
    for control in 0..2u8 {
        // Local indices with the control bit clear / set.
        let (clear, set) = if control == 0 {
            ([0usize, 2], [1usize, 3])
        } else {
            ([0, 1], [2, 3])
        };
        let identity_on_clear = u[(clear[0], clear[0])] == Complex::ONE
            && u[(clear[1], clear[1])] == Complex::ONE
            && u[(clear[0], clear[1])] == Complex::ZERO
            && u[(clear[1], clear[0])] == Complex::ZERO;
        let decoupled = clear.iter().all(|&a| {
            set.iter()
                .all(|&b| u[(a, b)] == Complex::ZERO && u[(b, a)] == Complex::ZERO)
        });
        if identity_on_clear && decoupled {
            return Some(ControlledBlock {
                control,
                block: [
                    u[(set[0], set[0])],
                    u[(set[0], set[1])],
                    u[(set[1], set[0])],
                    u[(set[1], set[1])],
                ],
            });
        }
    }
    None
}

/// Builds the [`KernelClass`] of a controlled single-qubit gate (control =
/// operand 0) from the target's 2×2 matrix.
fn controlled_dense(target: &Matrix) -> KernelClass {
    let mut m = Box::new([Complex::ZERO; 16]);
    m[0] = Complex::ONE; // |c=0,t=0⟩
    m[2 * 4 + 2] = Complex::ONE; // |c=0,t=1⟩
    let block = [
        target[(0, 0)],
        target[(0, 1)],
        target[(1, 0)],
        target[(1, 1)],
    ];
    m[4 + 1] = block[0];
    m[4 + 3] = block[1];
    m[3 * 4 + 1] = block[2];
    m[3 * 4 + 3] = block[3];
    KernelClass::TwoQubitDense {
        m,
        control: Some(ControlledBlock { control: 0, block }),
    }
}

/// Applies a `2^k × 2^k` operator `u` to the amplitudes `amps` of an
/// `n`-qubit register on the operand qubits `qs`, classifying the matrix and
/// dispatching to the matching specialized kernel.
///
/// `u` need not be unitary (Kraus operators are applied with the same
/// kernel).
///
/// # Panics
///
/// Panics if dimensions are inconsistent.
pub fn apply_op(amps: &mut [Complex], n: usize, u: &Matrix, qs: &[usize]) {
    assert_eq!(u.rows(), 1 << qs.len(), "operator does not match operands");
    apply_classified(amps, n, &KernelClass::classify(u), qs);
}

/// Applies a pre-classified operator (see [`KernelClass`]).
///
/// # Panics
///
/// Panics if the class's operand count or the register size disagree with
/// `qs` and `amps`.
pub fn apply_classified(amps: &mut [Complex], n: usize, class: &KernelClass, qs: &[usize]) {
    assert_eq!(
        amps.len(),
        1 << n,
        "amplitude array does not match register"
    );
    if let Some(k) = class.n_qubits() {
        assert_eq!(k, qs.len(), "kernel class does not match operand count");
    }
    debug_assert!(qs.iter().all(|&q| q < n));
    let period = 1usize << (qs.iter().max().copied().unwrap_or(0) + 1);
    match class {
        KernelClass::General(u) => apply_op_generic(amps, n, u, qs),
        KernelClass::ControlledPhase { phase } if *phase == Complex::ONE => {} // identity
        _ => for_each_slab(amps, period, |slab| apply_to_slab(slab, class, qs)),
    }
}

/// Runs the kernel of `class` serially over `slab`, a register of its own
/// (any whole number of the gate's periods, such as one column of a
/// density matrix).
pub(crate) fn apply_to_slab(slab: &mut [Complex], class: &KernelClass, qs: &[usize]) {
    match class {
        KernelClass::Diagonal { factors } => diagonal_kernel(slab, qs, factors),
        KernelClass::Permutation { perm, factors } => permutation_kernel(slab, qs, perm, factors),
        KernelClass::ControlledPhase { phase } => {
            if *phase != Complex::ONE {
                controlled_phase_kernel(slab, qs, *phase);
            }
        }
        KernelClass::SingleQubitDense { m } => butterfly_kernel(slab, qs[0], m),
        KernelClass::TwoQubitDense {
            control: Some(cb), ..
        } => controlled_dense_kernel(slab, qs, cb),
        KernelClass::TwoQubitDense { m, control: None } => two_qubit_dense_kernel(slab, qs, m),
        KernelClass::General(u) => {
            apply_op_generic(slab, slab.len().trailing_zeros() as usize, u, qs);
        }
    }
}

/// Runs `kernel` over independent slabs of the amplitude array, in parallel
/// for large registers.
///
/// A gate whose highest operand qubit is `m` decomposes the array into
/// independent contiguous blocks of `period = 2^{m+1}` amplitudes; any slab
/// that is a multiple of `period` long can be processed as a register of its
/// own (the kernels only inspect index bits below `m+1`, which slab-relative
/// indices preserve). Each amplitude is written exactly once from fixed
/// inputs, so the result is bit-identical for every worker count.
///
/// Gates whose highest operand is a top qubit stay serial by design (the
/// period reaches the array length, leaving a single slab). Called from
/// inside a `parallel_indexed` worker (a batch's work pool), the fan-out
/// runs serially on that worker.
pub(crate) fn for_each_slab<F>(amps: &mut [Complex], period: usize, kernel: F)
where
    F: Fn(&mut [Complex]) + Sync,
{
    let threads = if amps.len() >= PARALLEL_MIN_AMPS {
        available_threads()
    } else {
        1
    };
    if threads <= 1 || amps.len() <= period {
        kernel(amps);
        return;
    }
    // ~4 chunks per worker for load balance, each a multiple of the period.
    let target = amps.len().div_ceil(threads * 4).max(period);
    let chunk_len = target.div_ceil(period) * period;
    parallel_chunks_mut(amps, chunk_len, threads, |_, slab| kernel(slab));
}

/// Inserts zero bits at the (sorted ascending) positions `sorted`,
/// spreading `i`'s bits across the remaining positions.
#[inline]
pub(crate) fn expand_index(mut i: usize, sorted: &[usize]) -> usize {
    for &q in sorted {
        let low = i & ((1usize << q) - 1);
        i = ((i >> q) << (q + 1)) | low;
    }
    i
}

/// Local-offset table: `offsets[l]` ORs local index `l`'s bits into a base
/// index at the operand positions `qs`.
fn local_offsets(qs: &[usize]) -> Vec<usize> {
    local_offsets_shifted(qs, 0)
}

/// [`local_offsets`] with every operand position shifted up by `shift` —
/// the column side of a vectorized density matrix uses `shift = n`.
pub(crate) fn local_offsets_shifted(qs: &[usize], shift: usize) -> Vec<usize> {
    let dim_local = 1usize << qs.len();
    let mut offsets = vec![0usize; dim_local];
    for (l, off) in offsets.iter_mut().enumerate() {
        for (pos, &q) in qs.iter().enumerate() {
            if (l >> pos) & 1 == 1 {
                *off |= 1 << (q + shift);
            }
        }
    }
    offsets
}

/// One pair of a dense 2×2 operator: `m · (x, y)`, `m` row-major. The
/// butterfly and controlled-block kernels and the density-matrix tile pass
/// all run this arithmetic.
#[inline(always)]
fn butterfly(m: &[Complex; 4], x: Complex, y: Complex) -> (Complex, Complex) {
    (m[0] * x + m[1] * y, m[2] * x + m[3] * y)
}

/// One four-amplitude group of a dense 4×4 operator: `m · g`, `m`
/// row-major, each row summed left to right.
#[inline(always)]
fn product4(m: &[Complex; 16], g: [Complex; 4]) -> [Complex; 4] {
    std::array::from_fn(|r| {
        m[r * 4] * g[0] + m[r * 4 + 1] * g[1] + m[r * 4 + 2] * g[2] + m[r * 4 + 3] * g[3]
    })
}

/// One group of a monomial operator: `out[perm[c]] = factors[c] · g[c]`.
#[inline(always)]
fn monomial(perm: &[u8], factors: &[Complex], g: &[Complex], out: &mut [Complex]) {
    for ((&p, &f), &x) in perm.iter().zip(factors).zip(g) {
        out[p as usize] = f * x;
    }
}

/// Row `r` of one group of a dense operator: the nonzero entries of row `r`
/// of `u` times `g`, summed from zero in column order.
#[inline(always)]
fn generic_row(u: &Matrix, g: &[Complex], r: usize) -> Complex {
    let mut acc = Complex::ZERO;
    for (c, &x) in g.iter().enumerate() {
        let m = u[(r, c)];
        if m != Complex::ZERO {
            acc += m * x;
        }
    }
    acc
}

/// Applies `class` across `lanes` — equal-length slices, lane `l` holding
/// local index `l` — to every group `(lanes[0][i], …, lanes[D−1][i])`.
/// Each class does to a group exactly what its register kernel does to
/// every group: a one-qubit diagonal skips its unit factors, a unit phase
/// is skipped, CX and a unit one-qubit flip swap without multiplying, and
/// every other monomial multiplies each entry. The column side of a
/// density matrix runs here, with the columns that differ only in the
/// operands' column bits as lanes.
pub(crate) fn apply_across_lanes(class: &KernelClass, lanes: &mut [&mut [Complex]]) {
    let len = lanes.first().map_or(0, |lane| lane.len());
    match class {
        KernelClass::Diagonal { factors } => {
            let skip_unit = factors.len() == 2;
            for (lane, &f) in lanes.iter_mut().zip(factors) {
                if !(skip_unit && f == Complex::ONE) {
                    for a in lane.iter_mut() {
                        *a *= f;
                    }
                }
            }
        }
        KernelClass::ControlledPhase { phase } => {
            if let (false, Some(lane)) = (*phase == Complex::ONE, lanes.last_mut()) {
                for a in lane.iter_mut() {
                    *a *= *phase;
                }
            }
        }
        KernelClass::Permutation { perm, factors }
            if factors.iter().all(|&f| f == Complex::ONE)
                && matches!(perm.as_slice(), [0, 3, 2, 1] | [1, 0]) =>
        {
            let pair = if perm.len() == 4 { [1, 3] } else { [0, 1] };
            let [a, b] = lanes.get_disjoint_mut(pair).expect("distinct lanes");
            a.swap_with_slice(b);
        }
        KernelClass::SingleQubitDense { m } => {
            let [a, b] = lanes.get_disjoint_mut([0, 1]).expect("two lanes");
            for (x, y) in a.iter_mut().zip(b.iter_mut()) {
                (*x, *y) = butterfly(m, *x, *y);
            }
        }
        KernelClass::TwoQubitDense {
            control: Some(cb), ..
        } => {
            let lo = if cb.control == 0 { 1 } else { 2 };
            let [a, b] = lanes.get_disjoint_mut([lo, 3]).expect("four lanes");
            for (x, y) in a.iter_mut().zip(b.iter_mut()) {
                (*x, *y) = butterfly(&cb.block, *x, *y);
            }
        }
        KernelClass::TwoQubitDense { m, control: None } => {
            for i in 0..len {
                let out = product4(m, [0, 1, 2, 3].map(|l| lanes[l][i]));
                for (lane, x) in lanes.iter_mut().zip(out) {
                    lane[i] = x;
                }
            }
        }
        KernelClass::Permutation { perm, factors } => {
            let (mut src, mut out) = ([Complex::ZERO; 8], [Complex::ZERO; 8]);
            let d = lanes.len();
            for i in 0..len {
                for (x, lane) in src.iter_mut().zip(lanes.iter()) {
                    *x = lane[i];
                }
                monomial(perm, factors, &src[..d], &mut out);
                for (lane, &x) in lanes.iter_mut().zip(&out) {
                    lane[i] = x;
                }
            }
        }
        KernelClass::General(u) => {
            let mut src = vec![Complex::ZERO; lanes.len()];
            for i in 0..len {
                for (x, lane) in src.iter_mut().zip(lanes.iter()) {
                    *x = lane[i];
                }
                for (r, lane) in lanes.iter_mut().enumerate() {
                    lane[i] = generic_row(u, &src, r);
                }
            }
        }
    }
}

/// In-place multiplication by a diagonal operator.
fn diagonal_kernel(slab: &mut [Complex], qs: &[usize], factors: &[Complex]) {
    if let [q] = qs {
        let stride = 1usize << q;
        let (f0, f1) = (factors[0], factors[1]);
        for pair in slab.chunks_exact_mut(2 * stride) {
            let (lo, hi) = pair.split_at_mut(stride);
            if f0 != Complex::ONE {
                for a in lo {
                    *a *= f0;
                }
            }
            if f1 != Complex::ONE {
                for a in hi {
                    *a *= f1;
                }
            }
        }
        return;
    }
    for (i, a) in slab.iter_mut().enumerate() {
        let mut l = 0usize;
        for (pos, &q) in qs.iter().enumerate() {
            l |= ((i >> q) & 1) << pos;
        }
        *a *= factors[l];
    }
}

/// Phase multiplication restricted to the all-ones sub-lattice.
fn controlled_phase_kernel(slab: &mut [Complex], qs: &[usize], phase: Complex) {
    if let [q] = qs {
        let stride = 1usize << q;
        for pair in slab.chunks_exact_mut(2 * stride) {
            for a in &mut pair[stride..] {
                *a *= phase;
            }
        }
        return;
    }
    let k = qs.len();
    let mask: usize = qs.iter().map(|&q| 1usize << q).sum();
    let mut sorted = qs.to_vec();
    sorted.sort_unstable();
    for o in 0..slab.len() >> k {
        slab[expand_index(o, &sorted) | mask] *= phase;
    }
}

/// Gather/permute/scatter for monomial operators — no matrix arithmetic.
fn permutation_kernel(slab: &mut [Complex], qs: &[usize], perm: &[u8], factors: &[Complex]) {
    // CX (perm [0,3,2,1], unit factors) gets a dedicated kernel: paired
    // in-place `swap_with_slice` over contiguous runs instead of the
    // 4-amplitude gather/scatter with per-group index expansion.
    if let ([c, t], [0, 3, 2, 1]) = (qs, perm) {
        if factors.iter().all(|&f| f == Complex::ONE) {
            cx_kernel(slab, *c, *t);
            return;
        }
    }
    // Diagonal monomials classify as Diagonal, so a single-qubit class from
    // `classify`/`for_gate` always has perm == [1, 0]; hand-built classes
    // with any other permutation fall through to the general path below.
    if let ([q], [1, 0]) = (qs, perm) {
        let stride = 1usize << q;
        let trivial = factors.iter().all(|&f| f == Complex::ONE);
        for pair in slab.chunks_exact_mut(2 * stride) {
            let (lo, hi) = pair.split_at_mut(stride);
            if trivial {
                lo.swap_with_slice(hi);
            } else {
                for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                    let mut out = [Complex::ZERO; 2];
                    monomial(perm, factors, &[*a, *b], &mut out);
                    [*a, *b] = out;
                }
            }
        }
        return;
    }
    let k = qs.len();
    let dim_local = 1usize << k;
    debug_assert!(dim_local <= 8, "permutation kernels cover ≤ 3 qubits");
    let mut sorted = qs.to_vec();
    sorted.sort_unstable();
    let offsets = local_offsets(qs);
    let (mut g, mut buf) = ([Complex::ZERO; 8], [Complex::ZERO; 8]);
    for o in 0..slab.len() >> k {
        let base = expand_index(o, &sorted);
        for (x, &off) in g.iter_mut().zip(&offsets) {
            *x = slab[base | off];
        }
        monomial(perm, factors, &g[..dim_local], &mut buf);
        for (l, &off) in offsets.iter().enumerate() {
            slab[base | off] = buf[l];
        }
    }
}

/// CX on (control `cq`, target `tq`): swaps the target-paired amplitudes
/// of the control=1 subspace, walking the array in contiguous
/// `swap_with_slice` runs in both operand orders — no index expansion, no
/// scratch buffer. When the target is the low bit the control=1 subspace
/// is itself contiguous and the kernel degenerates to back-to-back slice
/// swaps, the memcpy-speed case the `cx_lowbit` bench rows measure.
fn cx_kernel(slab: &mut [Complex], cq: usize, tq: usize) {
    let (cs, ts) = (1usize << cq, 1usize << tq);
    if tq < cq {
        // Control is the high operand: within every control period the
        // upper half (control = 1) is one contiguous run of target pairs.
        for block in slab.chunks_exact_mut(2 * cs) {
            let on = &mut block[cs..];
            for pair in on.chunks_exact_mut(2 * ts) {
                let (lo, hi) = pair.split_at_mut(ts);
                lo.swap_with_slice(hi);
            }
        }
    } else {
        // Target is the high operand: swap the control=1 runs between the
        // target=0 and target=1 halves of every target period.
        for pair in slab.chunks_exact_mut(2 * ts) {
            let (lo, hi) = pair.split_at_mut(ts);
            for (lc, hc) in lo.chunks_exact_mut(2 * cs).zip(hi.chunks_exact_mut(2 * cs)) {
                lc[cs..].swap_with_slice(&mut hc[cs..]);
            }
        }
    }
}

/// Stride-based butterfly for a dense 2×2 operator.
fn butterfly_kernel(slab: &mut [Complex], q: usize, m: &[Complex; 4]) {
    let stride = 1usize << q;
    for pair in slab.chunks_exact_mut(2 * stride) {
        let (lo, hi) = pair.split_at_mut(stride);
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            (*a, *b) = butterfly(m, *a, *b);
        }
    }
}

/// Butterfly on the target qubit, restricted to the control=1 subspace.
fn controlled_dense_kernel(slab: &mut [Complex], qs: &[usize], cb: &ControlledBlock) {
    let (cq, tq) = if cb.control == 0 {
        (qs[0], qs[1])
    } else {
        (qs[1], qs[0])
    };
    let (cbit, tbit) = (1usize << cq, 1usize << tq);
    let mut sorted = [cq, tq];
    sorted.sort_unstable();
    for o in 0..slab.len() >> 2 {
        let i = expand_index(o, &sorted) | cbit;
        (slab[i], slab[i | tbit]) = butterfly(&cb.block, slab[i], slab[i | tbit]);
    }
}

/// Four-amplitude gather + dense 4×4 product.
fn two_qubit_dense_kernel(slab: &mut [Complex], qs: &[usize], m: &[Complex; 16]) {
    let (b0, b1) = (1usize << qs[0], 1usize << qs[1]);
    let mut sorted = [qs[0], qs[1]];
    sorted.sort_unstable();
    for o in 0..slab.len() >> 2 {
        let base = expand_index(o, &sorted);
        let idx = [base, base | b0, base | b1, base | b0 | b1];
        let out = product4(m, idx.map(|i| slab[i]));
        for (&i, v) in idx.iter().zip(out) {
            slab[i] = v;
        }
    }
}

/// Applies a `2^k × 2^k` operator `u` on the operand qubits `qs` with the
/// generic dense gather/scatter path — the correctness oracle every
/// specialized kernel is property-tested against, and the fallback for
/// operators with no exploitable structure.
///
/// # Panics
///
/// Panics if dimensions are inconsistent.
pub fn apply_op_generic(amps: &mut [Complex], n: usize, u: &Matrix, qs: &[usize]) {
    let k = qs.len();
    assert_eq!(u.rows(), 1 << k, "operator does not match operand count");
    assert_eq!(
        amps.len(),
        1 << n,
        "amplitude array does not match register"
    );
    debug_assert!(qs.iter().all(|&q| q < n));

    let dim_local = 1usize << k;
    let mut sorted = qs.to_vec();
    sorted.sort_unstable();

    let mut gathered = vec![Complex::ZERO; dim_local];
    let offsets = local_offsets(qs);

    let outer = 1usize << (n - k);
    for i in 0..outer {
        let base = expand_index(i, &sorted);
        for (l, g) in gathered.iter_mut().enumerate() {
            *g = amps[base | offsets[l]];
        }
        for (r, &off) in offsets.iter().enumerate() {
            amps[base | off] = generic_row(u, &gathered, r);
        }
    }
}

/// Computes `⟨ψ| Op_{qs} |ψ⟩` for a local operator without copying the state.
pub fn expectation_local(amps: &[Complex], n: usize, op: &Matrix, qs: &[usize]) -> Complex {
    let k = qs.len();
    assert_eq!(op.rows(), 1 << k);
    assert_eq!(amps.len(), 1 << n);

    let dim_local = 1usize << k;
    let mut sorted = qs.to_vec();
    sorted.sort_unstable();
    let offsets = local_offsets(qs);
    let mut acc = Complex::ZERO;
    let outer = 1usize << (n - k);
    for i in 0..outer {
        let base = expand_index(i, &sorted);
        for r in 0..dim_local {
            let ar = amps[base | offsets[r]];
            if ar == Complex::ZERO {
                continue;
            }
            for c in 0..dim_local {
                let m = op[(r, c)];
                if m != Complex::ZERO {
                    acc += ar.conj() * m * amps[base | offsets[c]];
                }
            }
        }
    }
    acc
}

/// Sums `|amps|²` over all indices whose bit `q` equals `bit`.
pub fn probability_of_bit(amps: &[Complex], q: usize, bit: usize) -> f64 {
    let mask = 1usize << q;
    let want = bit << q;
    amps.iter()
        .enumerate()
        .filter(|(i, _)| i & mask == want)
        .map(|(_, a)| a.norm_sqr())
        .sum()
}

/// Marginal probability vector over `subset` (output bit `i` is `subset[i]`).
pub fn marginal_probabilities(amps: &[Complex], subset: &[usize]) -> Vec<f64> {
    let mut out = vec![0.0; 1 << subset.len()];
    for (idx, a) in amps.iter().enumerate() {
        let p = a.norm_sqr();
        if p == 0.0 {
            continue;
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use qt_circuit::Gate;

    fn zero_state(n: usize) -> Vec<Complex> {
        let mut v = vec![Complex::ZERO; 1 << n];
        v[0] = Complex::ONE;
        v
    }

    /// A fixed pseudo-random dense state (not normalized; kernels are
    /// linear, so normalization is irrelevant to equivalence checks).
    fn scrambled_state(n: usize) -> Vec<Complex> {
        let mut x = 0x2545f4914f6cdd1du64;
        (0..1usize << n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let re = ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let im = ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                Complex::new(re, im)
            })
            .collect()
    }

    fn all_test_gates() -> Vec<(Gate, Vec<usize>)> {
        use Gate::*;
        vec![
            (H, vec![1]),
            (X, vec![2]),
            (Y, vec![0]),
            (Z, vec![3]),
            (S, vec![1]),
            (Sdg, vec![2]),
            (T, vec![0]),
            (Tdg, vec![3]),
            (Sx, vec![1]),
            (Rx(0.3), vec![2]),
            (Ry(-1.2), vec![0]),
            (Rz(2.5), vec![3]),
            (Phase(0.7), vec![1]),
            (U(0.4, 1.1, -0.6), vec![2]),
            (Cx, vec![1, 3]),
            (Cx, vec![3, 1]),
            (Cy, vec![0, 2]),
            (Cz, vec![2, 0]),
            (Cp(0.9), vec![1, 2]),
            (Crz(1.3), vec![3, 0]),
            (Crx(-0.8), vec![0, 3]),
            (Cry(0.2), vec![2, 1]),
            (Swap, vec![0, 3]),
            (Ccp(0.55), vec![2, 0, 3]),
        ]
    }

    #[test]
    fn every_specialized_kernel_matches_the_generic_oracle() {
        let n = 4;
        for (g, qs) in all_test_gates() {
            let mut fast = scrambled_state(n);
            let mut slow = fast.clone();
            apply_classified(&mut fast, n, &KernelClass::for_gate(&g), &qs);
            apply_op_generic(&mut slow, n, &g.matrix(), &qs);
            for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert!(
                    a.approx_eq(*b, 1e-12),
                    "{} on {qs:?}: amp {i} differs ({a:?} vs {b:?})",
                    g.name()
                );
            }
        }
    }

    #[test]
    fn classify_matches_gate_structure() {
        use qt_circuit::GateStructure as GS;
        for (g, _) in all_test_gates() {
            let class = KernelClass::classify(&g.matrix());
            let ok = match g.structure() {
                GS::ControlledPhase => matches!(class, KernelClass::ControlledPhase { .. }),
                GS::Diagonal => matches!(class, KernelClass::Diagonal { .. }),
                GS::Permutation => matches!(class, KernelClass::Permutation { .. }),
                GS::SingleQubitDense => matches!(class, KernelClass::SingleQubitDense { .. }),
                GS::ControlledDense => matches!(
                    class,
                    KernelClass::TwoQubitDense {
                        control: Some(_),
                        ..
                    }
                ),
                GS::Dense => true,
            };
            assert!(ok, "{} classified as {class:?}", g.name());
        }
    }

    #[test]
    fn for_gate_agrees_with_matrix_classification() {
        for (g, _) in all_test_gates() {
            let direct = KernelClass::for_gate(&g);
            let scanned = KernelClass::classify(&g.matrix());
            match (&direct, &scanned) {
                (
                    KernelClass::TwoQubitDense { m: a, .. },
                    KernelClass::TwoQubitDense { m: b, .. },
                ) => {
                    for (x, y) in a.iter().zip(b.iter()) {
                        assert!(x.approx_eq(*y, 1e-15), "{} entries differ", g.name());
                    }
                }
                _ => assert_eq!(direct, scanned, "{} classes differ", g.name()),
            }
        }
    }

    #[test]
    fn degenerate_parameters_specialize_further() {
        // Rz(0) is the identity: a controlled phase of 1.
        assert_eq!(
            KernelClass::classify(&Gate::Rz(0.0).matrix()),
            KernelClass::ControlledPhase {
                phase: Complex::ONE
            }
        );
        // Non-square and non-power-of-two matrices stay general.
        assert!(matches!(
            KernelClass::classify(&Matrix::zeros(2, 4)),
            KernelClass::General(_)
        ));
    }

    #[test]
    fn non_unitary_kraus_operators_classify_safely() {
        // Amplitude-damping K0 = diag(1, √(1−γ)) is diagonal; K1 has an
        // empty column and must fall through to a dense class.
        let g = 0.3f64;
        let k0 = Matrix::mat2(
            Complex::ONE,
            Complex::ZERO,
            Complex::ZERO,
            Complex::real((1.0 - g).sqrt()),
        );
        let k1 = Matrix::mat2(
            Complex::ZERO,
            Complex::real(g.sqrt()),
            Complex::ZERO,
            Complex::ZERO,
        );
        // diag(1, f) is "identity except a factor on |1⟩" — the controlled
        // phase kernel applies it even though f is not a unit phase.
        assert!(matches!(
            KernelClass::classify(&k0),
            KernelClass::ControlledPhase { .. }
        ));
        assert!(matches!(
            KernelClass::classify(&k1),
            KernelClass::SingleQubitDense { .. }
        ));
        for k in [k0, k1] {
            let mut fast = scrambled_state(3);
            let mut slow = fast.clone();
            apply_op(&mut fast, 3, &k, &[1]);
            apply_op_generic(&mut slow, 3, &k, &[1]);
            for (a, b) in fast.iter().zip(&slow) {
                assert!(a.approx_eq(*b, 1e-12));
            }
        }
    }

    #[test]
    fn kernel_matches_embedded_matrix() {
        // Random-ish 3-qubit circuit applied both ways.
        let n = 3;
        let ops: Vec<(Gate, Vec<usize>)> = vec![
            (Gate::H, vec![0]),
            (Gate::Cx, vec![0, 2]),
            (Gate::Ry(0.7), vec![1]),
            (Gate::Cp(1.1), vec![2, 1]),
            (Gate::Swap, vec![0, 1]),
        ];
        let mut amps = zero_state(n);
        let mut u = Matrix::identity(1 << n);
        for (g, qs) in &ops {
            apply_op(&mut amps, n, &g.matrix(), qs);
            u = qt_circuit::embed(&g.matrix(), qs, n).mul(&u);
        }
        for (i, a) in amps.iter().enumerate() {
            assert!(a.approx_eq(u[(i, 0)], 1e-12), "amp {i} differs");
        }
    }

    #[test]
    fn expectation_matches_direct() {
        let n = 2;
        let mut amps = zero_state(n);
        apply_op(&mut amps, n, &Gate::H.matrix(), &[0]);
        apply_op(&mut amps, n, &Gate::Cx.matrix(), &[0, 1]);
        // Bell state: ⟨Z0 Z1⟩ = 1, ⟨Z0⟩ = 0.
        let zz = qt_math::pauli::z2().kron(&qt_math::pauli::z2());
        let e = expectation_local(&amps, n, &zz, &[0, 1]);
        assert!(e.approx_eq(Complex::ONE, 1e-12));
        let z = qt_math::pauli::z2();
        let e0 = expectation_local(&amps, n, &z, &[0]);
        assert!(e0.approx_eq(Complex::ZERO, 1e-12));
    }

    #[test]
    fn marginals_sum_to_one() {
        let n = 3;
        let mut amps = zero_state(n);
        for q in 0..n {
            apply_op(&mut amps, n, &Gate::H.matrix(), &[q]);
        }
        let m = marginal_probabilities(&amps, &[1, 2]);
        assert_eq!(m.len(), 4);
        assert!((m.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((m[0] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn probability_of_bit_on_plus_state() {
        let mut amps = zero_state(1);
        apply_op(&mut amps, 1, &Gate::H.matrix(), &[0]);
        assert!((probability_of_bit(&amps, 0, 0) - 0.5).abs() < 1e-12);
        assert!((probability_of_bit(&amps, 0, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn operand_order_is_respected() {
        // CX with control=1, target=0: |10⟩ → |11⟩.
        let n = 2;
        let mut amps = zero_state(n);
        apply_op(&mut amps, n, &Gate::X.matrix(), &[1]); // |10⟩ (index 2)
        apply_op(&mut amps, n, &Gate::Cx.matrix(), &[1, 0]);
        assert!(amps[3].approx_eq(Complex::ONE, 1e-12));
    }
}
