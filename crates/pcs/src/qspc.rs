//! Qubit Subsetting Pauli Checks (QSPC) — the paper's core contribution.
//!
//! QSPC virtualizes the PCS protocol of [`crate::pcs`]: instead of ancillas
//! and controlled checks, it evaluates the post-selected expectation
//!
//! ```text
//! ⟨O⟩ = num(O) / den,
//! num(O) = Σ_{x,y ∈ G} tr[ N(x ρ_in y) · (y O x) ],   den = num(I)
//! ```
//!
//! where `G = {I, Z}^⊗k` is the group of Z checks on a traced subset of
//! `k ∈ {1, 2}` qubits (`{I, Z_j}` for one qubit, `{I, Z_a, Z_b, Z_a Z_b}`
//! for a pair), `ρ_in` is the classically tracked subset state at the cut,
//! and `N(σ) = ε_gm(U σ U†)` is the *noisy* segment — including the
//! terminal measurement, so readout errors sit inside the sandwich and are
//! mitigated (Sec. IV-D). One check, [`QspcSpec`], serves both subset sizes.
//!
//! The non-physical inputs `x ρ_in y` are realized by preparation ensembles
//! over products of the reduced projector basis
//! `{|0⟩⟨0|, |1⟩⟨1|, |+⟩⟨+|, |i⟩⟨i|}` (*state preparation reduction*, Eq. 9),
//! executed as programs of the form
//!
//! ```text
//! [reduced noisy prefix] ; Reset(subset → preps) ; [reduced segment] ;
//! [basis rotations] ; measure
//! ```
//!
//! with the paper's *false dependency removal* and *localized gate
//! simulation* applied by [`qt_circuit::passes`]. For one qubit and the
//! four terms `x, y ∈ {I, Z_j}` this reproduces Eqs. (5)–(8) exactly.
//!
//! Two orders depend on the subset size and are part of the results' bits:
//! the sums over `(x, y)` run `y`-outer for one qubit and `x`-outer for a
//! pair, and a pair's jobs iterate preparations low slot outer while its
//! decomposition sums run high slot outer.

use qt_circuit::{basis, passes, Circuit};
use qt_math::states::{
    decompose_qubit_operator, decompose_qubit_operator_full, decompose_two_qubit_operator,
    PrepState,
};
use qt_math::{Complex, Matrix, Pauli};
use qt_sim::{BatchJob, Program, RunOutput};
use std::collections::BTreeMap;

/// Engine options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QspcConfig {
    /// Apply false-dependency removal / gate bypassing to ensemble circuits.
    pub optimize_circuits: bool,
    /// Use the 4-state reduced preparation basis (the paper's *state
    /// preparation reduction*). `false` selects the full 6-eigenstate
    /// expansion, as in the SQEM baseline's reconstruction. It applies to
    /// single qubits only: a pair always prepares from the reduced basis.
    pub use_reduced_preps: bool,
    /// If the post-selection denominator falls below this value the result
    /// is considered unreliable and the unmitigated expectation is returned.
    pub den_floor: f64,
}

impl Default for QspcConfig {
    fn default() -> Self {
        QspcConfig {
            optimize_circuits: true,
            use_reduced_preps: true,
            den_floor: 0.05,
        }
    }
}

impl QspcConfig {
    /// The SQEM baseline's configuration: no circuit optimization, full
    /// 6-state reconstruction.
    pub fn sqem() -> Self {
        QspcConfig {
            optimize_circuits: false,
            use_reduced_preps: false,
            den_floor: 0.05,
        }
    }

    /// The preparations of a `k`-qubit ensemble, in job order (a pair's
    /// low slot outer).
    fn job_preps(&self, k: usize) -> Vec<[PrepState; 2]> {
        if k == 1 {
            let preps: &[PrepState] = if self.use_reduced_preps {
                &PrepState::REDUCED
            } else {
                &PrepState::ALL
            };
            preps.iter().map(|&s| [s, PrepState::Zero]).collect()
        } else {
            let r = PrepState::REDUCED;
            r.iter()
                .flat_map(|&low| r.map(|high| [low, high]))
                .collect()
        }
    }

    /// `σ`'s coefficients over the product preparations, paired with them
    /// in summation order (a pair's high slot outer).
    fn decompose(&self, k: usize, sigma: &Matrix) -> Vec<([PrepState; 2], Complex)> {
        if k == 2 {
            let r = PrepState::REDUCED;
            let d = decompose_two_qubit_operator(sigma);
            return (0..16)
                .map(|i| ([r[i % 4], r[i / 4]], d[i / 4][i % 4]))
                .collect();
        }
        let coeffs = if self.use_reduced_preps {
            decompose_qubit_operator(sigma).to_vec()
        } else {
            decompose_qubit_operator_full(sigma).to_vec()
        };
        self.job_preps(1).into_iter().zip(coeffs).collect()
    }
}

/// Execution statistics, feeding the paper's overhead tables.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QspcStats {
    /// Number of distinct circuits executed.
    pub n_circuits: usize,
    /// Total gates across executed circuits.
    pub total_gates: usize,
    /// Total multi-qubit gates across executed circuits.
    pub total_two_qubit_gates: usize,
    /// Largest multi-qubit gate count of any single circuit.
    pub max_two_qubit_gates: usize,
}

impl QspcStats {
    /// Counts one executed circuit.
    pub fn absorb(&mut self, out: &RunOutput) {
        self.n_circuits += 1;
        self.total_gates += out.gates;
        let tq = out.two_qubit_gates;
        self.total_two_qubit_gates += tq;
        self.max_two_qubit_gates = self.max_two_qubit_gates.max(tq);
    }
}

/// A Pauli operator on a traced subset: slot `i` acts on `qubits[i]`, and a
/// single qubit leaves slot 1 at `I`.
pub type SubsetPauli = [Pauli; 2];

/// Every Pauli on `k` qubits, identity first, slot 0 outer — ascending
/// [`SubsetPauli`] order.
fn all_paulis(k: usize) -> Vec<SubsetPauli> {
    let high: &[Pauli] = if k == 2 { &Pauli::ALL } else { &[Pauli::I] };
    Pauli::ALL
        .iter()
        .flat_map(|&p0| high.iter().map(move |&p1| [p0, p1]))
        .collect()
}

/// Every non-identity Pauli on `k` qubits, in ascending order.
pub fn subset_paulis(k: usize) -> Vec<SubsetPauli> {
    all_paulis(k).split_off(1)
}

/// The `2^k × 2^k` matrix of `p` (slot 0 is index bit 0).
pub fn pauli_operator(k: usize, p: SubsetPauli) -> Matrix {
    if k == 1 {
        p[0].matrix()
    } else {
        p[1].matrix().kron(&p[0].matrix())
    }
}

/// The check group `{I, Z}^⊗k` as operators, indexed by the mask of slots
/// carrying `Z` (`Z_high·Z_low` for both slots of a pair).
fn group(k: usize) -> Vec<Matrix> {
    let mut g = vec![Matrix::identity(1 << k)];
    for slot in 0..k {
        let mut p = [Pauli::I; 2];
        p[slot] = Pauli::Z;
        let z = pauli_operator(k, p);
        for m in 0..g.len() {
            let element = if m == 0 { z.clone() } else { z.mul(&g[m]) };
            g.push(element);
        }
    }
    g
}

/// The `(x, y)` group index pairs in summation order: `y` outer for one
/// qubit, `x` outer for a pair.
fn group_pairs(k: usize) -> Vec<(usize, usize)> {
    let n = 1usize << k;
    (0..n * n)
        .map(|t| {
            if k == 1 {
                (t % n, t / n)
            } else {
                (t / n, t % n)
            }
        })
        .collect()
}

/// `V_{xy}(O) = y·O·x` over the group pairs for the denominator's identity
/// and then every output, in that order.
fn sandwich_terms(k: usize, outputs: &[SubsetPauli]) -> Vec<Vec<Matrix>> {
    let g = group(k);
    let pairs = group_pairs(k);
    std::iter::once(Matrix::identity(1 << k))
        .chain(outputs.iter().map(|&o| pauli_operator(k, o)))
        .map(|o| {
            pairs
                .iter()
                .map(|&(x, y)| g[y].mul(&o).mul(&g[x]))
                .collect()
        })
        .collect()
}

/// Decomposes an operator that is proportional to a single Pauli: returns
/// `(c, P)` with `V = c·P`. Exact for products of Paulis.
///
/// # Panics
///
/// Panics (debug) if `V` has more than one Pauli component.
fn pauli_component(k: usize, v: &Matrix) -> (Complex, SubsetPauli) {
    let mut found = (Complex::ZERO, [Pauli::I; 2]);
    let mut count = 0;
    for p in all_paulis(k) {
        let c = pauli_operator(k, p).trace_product(v) / (1usize << k) as f64;
        if c.norm() > 1e-12 {
            found = (c, p);
            count += 1;
        }
    }
    debug_assert!(count <= 1, "operator is not a single Pauli component");
    found
}

/// The parity expectations one measured setting yields: for every
/// non-empty set of its measured (non-`I`) slots, slot 0 alone first, the
/// Pauli that set reads and its expectation over `out`'s distribution.
pub fn parity_expectations(
    bases: SubsetPauli,
    out: &RunOutput,
) -> impl Iterator<Item = (SubsetPauli, f64)> + '_ {
    (1u64..4)
        .filter(move |&mask| (0..2).all(|slot| mask >> slot & 1 == 0 || bases[slot] != Pauli::I))
        .map(move |mask| {
            let p = [0, 1].map(|slot| {
                if mask >> slot & 1 == 1 {
                    bases[slot]
                } else {
                    Pauli::I
                }
            });
            let e = out
                .dist
                .iter()
                .map(|(i, q)| {
                    if (i & mask).count_ones().is_multiple_of(2) {
                        q
                    } else {
                        -q
                    }
                })
                .sum();
            (p, e)
        })
}

/// A subsetting Pauli check over one segment of a traced subset of one or
/// two qubits, in *plan form*: pure circuit generation and classical
/// combination, with no runner attached.
///
/// A check runs in three steps: [`QspcSpec::ensemble`] builds the
/// preparation-ensemble jobs, a runner executes them (the staged pipeline,
/// `qt_core::QuTracer::plan`, batches the jobs of every subset into one
/// deduplicated batch), and [`tabulate`] then [`combine_mitigated`] turn
/// the outputs into mitigated expectations. Finite-shot counts feed the
/// same tabulation through `SampledOutput::to_run_output`.
#[derive(Debug, Clone, Copy)]
pub struct QspcSpec<'a> {
    /// The traced qubits, one or two; `qubits[0]` is bit 0 of local
    /// indices.
    pub qubits: &'a [usize],
    /// Noisy prefix: everything before the cut (the traced wires are
    /// discarded at the cut).
    pub prefix: &'a Circuit,
    /// The protected segment (must commute with Z on every traced qubit).
    pub segment: &'a Circuit,
    /// Options.
    pub config: QspcConfig,
}

/// One member of a preparation ensemble: the product state prepared on
/// the subset and the basis measured on each slot (a single qubit's
/// slot 1 holds `|0⟩` and `I`). A tabulated expectation is keyed the same
/// way, with `I` on the slots its parity leaves out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EnsembleKey {
    /// Preparation per slot.
    pub preps: [PrepState; 2],
    /// Measurement basis per slot.
    pub bases: SubsetPauli,
}

/// The executable preparation ensemble of one check: one job per
/// `(basis setting, preparation)` pair, keys aligned with jobs.
#[derive(Debug, Clone)]
pub struct Ensemble {
    /// Each job's key, in job order.
    pub keys: Vec<EnsembleKey>,
    /// The executable programs (measuring the traced subset).
    pub jobs: Vec<BatchJob>,
}

impl QspcSpec<'_> {
    /// The bases each slot needs for a *mitigated* evaluation of
    /// `outputs`: every non-identity Pauli some sandwiched observable puts
    /// on that slot, `Z` when there is none (`I` on a single qubit's
    /// slot 1).
    ///
    /// # Panics
    ///
    /// Panics if the segment is not Z-checkable on the traced subset.
    pub fn settings(&self, outputs: &[SubsetPauli]) -> [Vec<Pauli>; 2] {
        assert!(
            crate::checks::z_checkable(self.segment, self.qubits),
            "segment does not commute with Z on the traced subset"
        );
        let k = self.qubits.len();
        let mut settings: [Vec<Pauli>; 2] = Default::default();
        for vs in sandwich_terms(k, outputs) {
            for v in &vs {
                let (_, p) = pauli_component(k, v);
                for (bases, b) in settings.iter_mut().zip(p) {
                    if b != Pauli::I && !bases.contains(&b) {
                        bases.push(b);
                    }
                }
            }
        }
        for (slot, bases) in settings.iter_mut().enumerate() {
            if bases.is_empty() {
                bases.push(if slot < k { Pauli::Z } else { Pauli::I });
            }
        }
        settings
    }

    /// Builds the `settings × preps` preparation-ensemble jobs (Eq. 9
    /// programs: reduced prefix; reset; reduced segment + rotations;
    /// measure).
    pub fn ensemble(&self, settings: &[Vec<Pauli>; 2]) -> Ensemble {
        let preps = self.config.job_preps(self.qubits.len());
        let mut keys = Vec::new();
        let mut jobs = Vec::new();
        for &b0 in &settings[0] {
            for &b1 in &settings[1] {
                let bases = [b0, b1];
                let program = self.reduced_pieces(bases);
                for &p in &preps {
                    keys.push(EnsembleKey { preps: p, bases });
                    jobs.push(BatchJob::new(program(p), self.qubits.to_vec()));
                }
            }
        }
        Ensemble { keys, jobs }
    }

    /// Builds the (possibly optimized) program pieces for one basis
    /// setting: a closure mapping a preparation to an executable program.
    fn reduced_pieces(&self, bases: SubsetPauli) -> impl Fn([PrepState; 2]) -> Program + '_ {
        let qubits = self.qubits;
        let n = self.prefix.n_qubits().max(self.segment.n_qubits());
        // Segment + rotations, reduced for the terminal Z measurement.
        let mut seg_rot = Circuit::new(n);
        seg_rot.append(self.segment);
        for (&q, &b) in qubits.iter().zip(&bases) {
            for i in basis::measure_rotation(b, q) {
                seg_rot.push_instruction(i);
            }
        }
        let (segment_final, active) = if self.config.optimize_circuits {
            let red = passes::reduce_for_z_measurement(&seg_rot, qubits);
            (red.circuit, red.active_qubits)
        } else {
            (seg_rot, (0..n).collect())
        };
        // The prefix matters only for the surviving untraced qubits.
        let prefix_targets: Vec<usize> =
            active.into_iter().filter(|q| !qubits.contains(q)).collect();
        let prefix_final = if self.config.optimize_circuits {
            passes::reduce_for_state_preparation(self.prefix, &prefix_targets).circuit
        } else {
            self.prefix.clone()
        };
        move |preps: [PrepState; 2]| -> Program {
            let mut program = Program::new(n);
            program.push_circuit(&prefix_final);
            if let &[q0, q1] = qubits {
                program.push_reset_pair(&[q0, q1], preps[0], preps[1]);
            } else {
                program.push_reset_state(qubits, preps[0]);
            }
            program.push_circuit(&segment_final);
            program
        }
    }
}

/// Tabulates an executed [`Ensemble`]: every job's parity expectations
/// (see [`parity_expectations`]) keyed by its preparations and the Pauli
/// each reads, in job order, plus accumulated execution statistics.
pub fn tabulate(
    keys: &[EnsembleKey],
    outs: &[RunOutput],
) -> (BTreeMap<EnsembleKey, f64>, QspcStats) {
    let mut stats = QspcStats::default();
    let mut table = BTreeMap::new();
    for (key, out) in keys.iter().zip(outs) {
        stats.absorb(out);
        for (bases, e) in parity_expectations(key.bases, out) {
            table.insert(
                EnsembleKey {
                    preps: key.preps,
                    bases,
                },
                e,
            );
        }
    }
    (table, stats)
}

/// Combines a tabulated ensemble into mitigated expectations (Eqs. (5)–(8)
/// with the post-selection denominator for one qubit, their analogue over
/// `{I, Z}^⊗2` for a pair). Returns the map and the denominator. Purely
/// classical: safe to run long after execution.
///
/// # Panics
///
/// Panics if `rho_in` is neither 2×2 nor 4×4.
pub fn combine_mitigated(
    config: &QspcConfig,
    rho_in: &Matrix,
    outputs: &[SubsetPauli],
    table: &BTreeMap<EnsembleKey, f64>,
) -> (BTreeMap<SubsetPauli, f64>, f64) {
    let k = match rho_in.rows() {
        2 => 1,
        4 => 2,
        d => panic!("rho_in must be a one- or two-qubit state, got dimension {d}"),
    };
    let g = group(k);
    let pairs = group_pairs(k);
    // σ_{xy} = x ρ y and their preparation decompositions, in the same
    // order as `sandwich_terms`.
    let alphas: Vec<Vec<([PrepState; 2], Complex)>> = pairs
        .iter()
        .map(|&(x, y)| config.decompose(k, &g[x].mul(rho_in).mul(&g[y])))
        .collect();
    let lookup = |preps: [PrepState; 2], bases: SubsetPauli| -> f64 {
        if bases == [Pauli::I; 2] {
            1.0
        } else {
            table[&EnsembleKey { preps, bases }]
        }
    };
    // The 1/|G|² factor normalizes so that a noiseless run yields den = 1
    // (the |G|² equal terms of the expansion).
    let combine = |vs: &[Matrix]| -> f64 {
        let mut acc = Complex::ZERO;
        for (v, alpha) in vs.iter().zip(&alphas) {
            let (c, p) = pauli_component(k, v);
            for &(preps, a) in alpha {
                acc += a * c * lookup(preps, p);
            }
        }
        debug_assert!(acc.im.abs() < 1e-6, "imaginary residue {}", acc.im);
        acc.re / pairs.len() as f64
    };

    let terms = sandwich_terms(k, outputs);
    let den = combine(&terms[0]);
    let mut out = BTreeMap::new();
    for (&o, vs) in outputs.iter().zip(&terms[1..]) {
        let value = if den.abs() < config.den_floor {
            // Fall back to the unmitigated expectation: the (I, I) term.
            let mut acc = Complex::ZERO;
            for &(preps, a) in &alphas[0] {
                acc += a * lookup(preps, o);
            }
            acc.re
        } else {
            (combine(vs) / den).clamp(-1.0, 1.0)
        };
        out.insert(o, value);
    }
    (out, den)
}

/// Assembles a physical single-qubit state from tabulated `X`/`Y`/`Z`
/// expectations, clipping the Bloch vector to the unit ball — the final
/// step of the SQEM baseline's single-qubit state reconstruction.
pub fn bloch_state_from_expectations(exps: &BTreeMap<SubsetPauli, f64>) -> Matrix {
    let mut v = [Pauli::X, Pauli::Y, Pauli::Z].map(|p| exps[&[p, Pauli::I]]);
    let norm = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
    if norm > 1.0 {
        for c in &mut v {
            *c /= norm;
        }
    }
    qt_math::states::density_from_bloch(v)
}

/// Projects a Hermitian unit-trace matrix to a physical state: Hermitizes,
/// clips negative eigenvalues to zero and renormalizes the trace (the
/// standard PSD repair, exact via the Jacobi eigensolver).
pub fn project_to_physical(rho: &Matrix) -> Matrix {
    let h = rho.add(&rho.dagger()).scale(Complex::real(0.5));
    let (vals, v) = h.hermitian_eigen();
    if vals.iter().all(|&l| l >= -1e-12) {
        return h;
    }
    let clipped: Vec<f64> = vals.iter().map(|&l| l.max(0.0)).collect();
    let total: f64 = clipped.iter().sum();
    let target: f64 = vals.iter().sum::<f64>().max(1e-12);
    let scale = if total > 1e-12 { target / total } else { 0.0 };
    let dim = h.rows();
    let mut d = Matrix::zeros(dim, dim);
    for (i, &l) in clipped.iter().enumerate() {
        d[(i, i)] = Complex::real(l * scale);
    }
    if total <= 1e-12 {
        return Matrix::identity(dim).scale(Complex::real(target / dim as f64));
    }
    v.mul(&d).mul(&v.dagger())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_sim::{Backend, Executor, NoiseModel, Runner};

    /// Reference: exact severed evolution — prefix, reset subset to ρ_in,
    /// segment — on the DM engine with the same noise.
    fn severed_reference(
        exec: &Executor,
        prefix: &Circuit,
        segment: &Circuit,
        subset: &[usize],
        rho_in: &Matrix,
    ) -> Vec<f64> {
        let n = prefix.n_qubits().max(segment.n_qubits());
        let mut rho = exec.run_dm(&Program::from_circuit(prefix));
        rho.reset_qubits(subset, rho_in);
        let mut tail = Program::new(n);
        tail.push_circuit(segment);
        // Continue evolving: rebuild by applying ops manually.
        for op in tail.ops() {
            if let qt_sim::Op::Gate(i) = op {
                rho.apply_instruction(i);
                for (qs, ch) in exec.noise().channels_for(i) {
                    rho.apply_kraus(ch.ops(), &qs);
                }
            }
        }
        rho.marginal_probabilities(subset)
    }

    /// Mitigated expectations on traced qubit 0 in plan form: build the
    /// ensemble, execute it as one batch, tabulate and combine.
    fn single(
        exec: &Executor,
        prefix: &Circuit,
        segment: &Circuit,
        config: QspcConfig,
        rho_in: &Matrix,
        outputs: &[Pauli],
    ) -> (BTreeMap<Pauli, f64>, f64, QspcStats) {
        let spec = QspcSpec {
            qubits: &[0],
            prefix,
            segment,
            config,
        };
        let outputs: Vec<SubsetPauli> = outputs.iter().map(|&p| [p, Pauli::I]).collect();
        let ens = spec.ensemble(&spec.settings(&outputs));
        let (e, stats) = tabulate(&ens.keys, &exec.run_batch(&ens.jobs));
        let (exps, den) = combine_mitigated(&config, rho_in, &outputs, &e);
        let exps = exps.into_iter().map(|([p, _], v)| (p, v)).collect();
        (exps, den, stats)
    }

    /// The mitigated Z-basis distribution of the traced pair `[0, 1]` (bit
    /// 0 = qubit 0) from its diagonal Pauli expectations, in plan form.
    fn pair_diagonal(
        exec: &Executor,
        prefix: &Circuit,
        segment: &Circuit,
        rho_in: &Matrix,
    ) -> (qt_dist::Distribution, f64) {
        let config = QspcConfig::default();
        let spec = QspcSpec {
            qubits: &[0, 1],
            prefix,
            segment,
            config,
        };
        let outputs = [
            [Pauli::Z, Pauli::I],
            [Pauli::I, Pauli::Z],
            [Pauli::Z, Pauli::Z],
        ];
        let ens = spec.ensemble(&spec.settings(&outputs));
        let (e, _) = tabulate(&ens.keys, &exec.run_batch(&ens.jobs));
        let (exps, den) = combine_mitigated(&config, rho_in, &outputs, &e);
        let [z0, z1, zz] = outputs.map(|o| exps[&o]);
        let probs = (0..4)
            .map(|b| {
                let s0 = if b & 1 == 0 { 1.0 } else { -1.0 };
                let s1 = if b & 2 == 0 { 1.0 } else { -1.0 };
                ((1.0 + s0 * z0 + s1 * z1 + s0 * s1 * zz) / 4.0).max(0.0)
            })
            .collect();
        let dist = qt_dist::Distribution::try_from_probs(2, probs)
            .expect("four probabilities fit two bits")
            .normalized();
        (dist, den)
    }

    fn vqe_pieces() -> (Circuit, Circuit) {
        // 3 qubits; traced qubit 0. Prefix: Ry layer + CZ + Ry (one layer).
        let mut prefix = Circuit::new(3);
        prefix.ry(0, 0.3).ry(1, 0.7).ry(2, -0.4).cz(0, 1).cz(1, 2);
        // Segment: CZ layer + Ry on others.
        let mut segment = Circuit::new(3);
        segment.cz(0, 1).cz(1, 2).ry(1, 0.5).ry(2, 0.9);
        (prefix, segment)
    }

    #[test]
    fn noiseless_qspc_is_exact_even_for_mixed_inputs() {
        let (prefix, segment) = vqe_pieces();
        let exec = Executor::with_backend(NoiseModel::ideal(), Backend::DensityMatrix);
        let rho_in = qt_math::states::density_from_bloch([0.2, -0.3, 0.4]);
        let (exps, den, _) = single(
            &exec,
            &prefix,
            &segment,
            QspcConfig::default(),
            &rho_in,
            &[Pauli::X, Pauli::Y, Pauli::Z],
        );
        let reference = severed_reference(&exec, &prefix, &segment, &[0], &rho_in);
        let z_ref = reference[0] - reference[1];
        assert!((den - 1.0).abs() < 1e-8, "den {den}");
        assert!((exps[&Pauli::Z] - z_ref).abs() < 1e-8);
        // X/Y reference via expectation on the severed DM.
        let n = 3;
        let mut rho = exec.run_dm(&Program::from_circuit(&prefix));
        rho.reset_qubits(&[0], &rho_in);
        for i in segment.instructions() {
            rho.apply_instruction(i);
        }
        let _ = n;
        let x_ref = rho.expectation_local(&qt_math::pauli::x2(), &[0]).re;
        let y_ref = rho.expectation_local(&qt_math::pauli::y2(), &[0]).re;
        assert!((exps[&Pauli::X] - x_ref).abs() < 1e-8);
        assert!((exps[&Pauli::Y] - y_ref).abs() < 1e-8);
    }

    #[test]
    fn sampled_tabulation_converges_to_exact() {
        use qt_sim::{SampledOutput, ShotPlan};
        let (prefix, segment) = vqe_pieces();
        let exec = Executor::with_backend(
            NoiseModel::depolarizing(0.004, 0.03).with_readout(0.05),
            Backend::DensityMatrix,
        );
        let shots = 1 << 17;
        // Counts feed the exact tabulation through their empirical
        // frequencies.
        let to_run_outputs = |outs: &[SampledOutput]| -> Vec<RunOutput> {
            outs.iter().map(SampledOutput::to_run_output).collect()
        };

        // Single-qubit ensemble: sampled expectations within shot noise of
        // the exact ones, identical stats accounting.
        let spec = QspcSpec {
            qubits: &[0],
            prefix: &prefix,
            segment: &segment,
            config: QspcConfig::default(),
        };
        let ens = spec.ensemble(&spec.settings(&[
            [Pauli::X, Pauli::I],
            [Pauli::Y, Pauli::I],
            [Pauli::Z, Pauli::I],
        ]));
        let outs = exec.run_batch(&ens.jobs);
        let sampled: Vec<SampledOutput> =
            exec.run_batch_sampled(&ens.jobs, &ShotPlan::uniform(ens.jobs.len(), shots), 7);
        let (exact_e, exact_stats) = tabulate(&ens.keys, &outs);
        let (sampled_e, sampled_stats) = tabulate(&ens.keys, &to_run_outputs(&sampled));
        assert_eq!(exact_stats, sampled_stats, "gate accounting is shot-free");
        for (key, e) in &exact_e {
            let s = sampled_e[key];
            // ⟨Z⟩ shot noise at 2^17 shots is ~0.003; allow 5 sigma.
            assert!((s - e).abs() < 0.015, "{key:?}: sampled {s} vs exact {e}");
        }

        // Pair ensemble, same contract.
        let pair_spec = QspcSpec {
            qubits: &[0, 1],
            prefix: &prefix,
            segment: &segment,
            config: QspcConfig::default(),
        };
        let needed = vec![Pauli::Z];
        let pens = pair_spec.ensemble(&[needed.clone(), needed]);
        let pouts = exec.run_batch(&pens.jobs);
        let psampled =
            exec.run_batch_sampled(&pens.jobs, &ShotPlan::uniform(pens.jobs.len(), shots), 11);
        let (pe, pstats) = tabulate(&pens.keys, &pouts);
        let (pse, psstats) = tabulate(&pens.keys, &to_run_outputs(&psampled));
        assert_eq!(pstats, psstats);
        for (key, e) in &pe {
            let s = pse[key];
            assert!((s - e).abs() < 0.015, "{key:?}: sampled {s} vs exact {e}");
        }
    }

    #[test]
    fn qspc_mitigates_gate_noise() {
        let (prefix, segment) = vqe_pieces();
        let ideal_exec = Executor::with_backend(NoiseModel::ideal(), Backend::DensityMatrix);
        let noisy_exec = Executor::with_backend(
            NoiseModel::depolarizing(0.005, 0.05),
            Backend::DensityMatrix,
        );
        let rho_in = qt_math::states::density_from_bloch([0.5, 0.1, -0.6]);
        let ideal_ref = severed_reference(&ideal_exec, &prefix, &segment, &[0], &rho_in);
        let noisy_ref = severed_reference(&noisy_exec, &prefix, &segment, &[0], &rho_in);
        let z_ideal = ideal_ref[0] - ideal_ref[1];
        let z_noisy = noisy_ref[0] - noisy_ref[1];

        let (exps, den, _) = single(
            &noisy_exec,
            &prefix,
            &segment,
            QspcConfig::default(),
            &rho_in,
            &[Pauli::Z],
        );
        let z_mit = exps[&Pauli::Z];
        assert!(den > 0.5, "den {den}");
        assert!(
            (z_mit - z_ideal).abs() < (z_noisy - z_ideal).abs(),
            "mitigated {z_mit} vs noisy {z_noisy} vs ideal {z_ideal}"
        );
    }

    #[test]
    fn qspc_mitigates_readout_error() {
        let (prefix, segment) = vqe_pieces();
        let ideal_exec = Executor::with_backend(NoiseModel::ideal(), Backend::DensityMatrix);
        let noisy_exec = Executor::with_backend(
            NoiseModel::ideal().with_readout(0.15),
            Backend::DensityMatrix,
        );
        let rho_in = qt_math::states::density_from_bloch([0.0, 0.0, 0.8]);
        let ideal_ref = severed_reference(&ideal_exec, &prefix, &segment, &[0], &rho_in);
        let z_ideal = ideal_ref[0] - ideal_ref[1];
        // Unmitigated noisy ⟨Z⟩ = (1 − 2·0.15)·ideal.
        let z_noisy = 0.7 * z_ideal;

        let (exps, _, _) = single(
            &noisy_exec,
            &prefix,
            &segment,
            QspcConfig::default(),
            &rho_in,
            &[Pauli::Z],
        );
        let z_mit = exps[&Pauli::Z];
        assert!(
            (z_mit - z_ideal).abs() < 0.5 * (z_noisy - z_ideal).abs(),
            "readout mitigation too weak: {z_mit} vs {z_noisy} (ideal {z_ideal})"
        );
    }

    #[test]
    fn optimized_circuits_are_smaller_and_equivalent() {
        let (prefix, segment) = vqe_pieces();
        let exec = Executor::with_backend(NoiseModel::ideal(), Backend::DensityMatrix);
        let rho_in = qt_math::states::PrepState::Plus.projector();
        let run = |optimize: bool| {
            let config = QspcConfig {
                optimize_circuits: optimize,
                ..Default::default()
            };
            single(&exec, &prefix, &segment, config, &rho_in, &[Pauli::Z])
        };
        let (opt, _, stats_opt) = run(true);
        let (raw, _, stats_raw) = run(false);
        assert!((opt[&Pauli::Z] - raw[&Pauli::Z]).abs() < 1e-8);
        assert!(
            stats_opt.total_gates < stats_raw.total_gates,
            "optimization should shrink circuits: {stats_opt:?} vs {stats_raw:?}"
        );
    }

    #[test]
    fn pair_qspc_matches_severed_reference_noiselessly() {
        // 4-qubit ring cost layer, trace pair (0, 1).
        let mut prefix = Circuit::new(4);
        for q in 0..4 {
            prefix.ry(q, 0.2 + 0.1 * q as f64);
        }
        let mut segment = Circuit::new(4);
        for &(a, b) in &[(0usize, 1usize), (1, 2), (2, 3), (3, 0)] {
            segment.cp(a, b, 0.8);
        }
        segment.rx(2, 0.4).rx(3, 0.4);
        let exec = Executor::with_backend(NoiseModel::ideal(), Backend::DensityMatrix);
        // A correlated (entangled-ish) mixed input state.
        let mut rho_in = Matrix::identity(4).scale(Complex::real(0.15));
        let bell = {
            let s = std::f64::consts::FRAC_1_SQRT_2;
            vec![
                Complex::real(s),
                Complex::ZERO,
                Complex::ZERO,
                Complex::real(s),
            ]
        };
        for r in 0..4 {
            for c in 0..4 {
                rho_in[(r, c)] += bell[r] * bell[c].conj() * 0.4;
            }
        }
        let (dist, den) = pair_diagonal(&exec, &prefix, &segment, &rho_in);
        assert!((den - 1.0).abs() < 1e-7, "den {den}");
        let reference = severed_reference(&exec, &prefix, &segment, &[0, 1], &rho_in);
        for (k, want) in reference.iter().enumerate() {
            assert!(
                (dist.prob(k as u64) - want).abs() < 1e-7,
                "outcome {k}: {} vs {want}",
                dist.prob(k as u64),
            );
        }
    }

    #[test]
    fn pair_qspc_mitigates_noise_on_qaoa_layer() {
        // Ry preparations (not H) so the Z distribution is non-uniform and
        // the mitigation has something to recover; Rx tails on the other
        // qubits keep the segment non-trivial.
        let theta = 1.1;
        let ry_state = {
            let mut c = Circuit::new(1);
            c.ry(0, theta);
            let u = c.unitary();
            Matrix::mat2(
                u[(0, 0)] * u[(0, 0)].conj(),
                u[(0, 0)] * u[(1, 0)].conj(),
                u[(1, 0)] * u[(0, 0)].conj(),
                u[(1, 0)] * u[(1, 0)].conj(),
            )
        };
        let mut prefix = Circuit::new(4);
        for q in 0..4 {
            prefix.ry(q, theta);
        }
        let mut segment = Circuit::new(4);
        for &(a, b) in &[(0usize, 1usize), (1, 2), (2, 3), (3, 0)] {
            segment.cp(a, b, 1.1);
        }
        segment.rx(2, 0.7).rx(3, 0.7);
        let ideal_exec = Executor::with_backend(NoiseModel::ideal(), Backend::DensityMatrix);
        let noisy_exec = Executor::with_backend(
            NoiseModel::depolarizing(0.005, 0.04).with_readout(0.04),
            Backend::DensityMatrix,
        );
        let rho_in = ry_state.kron(&ry_state);
        let reference = severed_reference(&ideal_exec, &prefix, &segment, &[0, 1], &rho_in);
        let noisy = {
            // Unmitigated: run prefix + reset + segment with noise, read Z.
            let mut prog = Program::new(4);
            prog.push_circuit(&prefix);
            let mut prep2 = Circuit::new(2);
            prep2.ry(0, theta).ry(1, theta);
            let u2 = prep2.unitary();
            prog.push_reset(&[0, 1], (0..4).map(|r| u2[(r, 0)]).collect());
            prog.push_circuit(&segment);
            noisy_exec.noisy_distribution(&prog, &[0, 1])
        };
        let (dist, _) = pair_diagonal(&noisy_exec, &prefix, &segment, &rho_in);
        let err_mit: f64 = (0..4u64)
            .map(|k| (dist.prob(k) - reference[k as usize]).abs())
            .sum();
        let err_raw: f64 = (0..4u64)
            .map(|k| (noisy.prob(k) - reference[k as usize]).abs())
            .sum();
        assert!(
            err_mit < err_raw,
            "pair mitigation failed: {err_mit} vs {err_raw}"
        );
    }
}
