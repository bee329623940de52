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
//! where `G` is the group generated by the Z checks on the traced subset
//! (`{I, Z_j}` for one qubit, `{I, Z_a, Z_b, Z_a Z_b}` for a pair), `ρ_in`
//! is the classically tracked subset state at the cut, and
//! `N(σ) = ε_gm(U σ U†)` is the *noisy* segment — including the terminal
//! measurement, so readout errors sit inside the sandwich and are mitigated
//! (Sec. IV-D).
//!
//! The non-physical inputs `x ρ_in y` are realized by preparation ensembles
//! over the reduced projector basis `{|0⟩⟨0|, |1⟩⟨1|, |+⟩⟨+|, |i⟩⟨i|}`
//! (*state preparation reduction*, Eq. 9), executed as programs of the form
//!
//! ```text
//! [reduced noisy prefix] ; Reset(subset → prep) ; [reduced segment] ;
//! [basis rotation] ; measure
//! ```
//!
//! with the paper's *false dependency removal* and *localized gate
//! simulation* applied by [`qt_circuit::passes`]. For the four terms
//! `x, y ∈ {I, Z_j}` this reproduces Eqs. (5)–(8) exactly.

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
    /// expansion, as in the SQEM baseline's reconstruction.
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

    fn preps(&self) -> &'static [PrepState] {
        if self.use_reduced_preps {
            &PrepState::REDUCED
        } else {
            &PrepState::ALL
        }
    }

    fn decompose(&self, sigma: &Matrix) -> Vec<Complex> {
        if self.use_reduced_preps {
            decompose_qubit_operator(sigma).to_vec()
        } else {
            decompose_qubit_operator_full(sigma).to_vec()
        }
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
    fn absorb(&mut self, out: &RunOutput) {
        self.n_circuits += 1;
        self.total_gates += out.gates;
        let tq = out.two_qubit_gates;
        self.total_two_qubit_gates += tq;
        self.max_two_qubit_gates = self.max_two_qubit_gates.max(tq);
    }
}

/// A single-qubit subsetting Pauli check over one segment, in *plan form*:
/// pure circuit generation and classical combination, with no runner
/// attached.
///
/// A check runs in three steps: [`QspcSingleSpec::ensemble`] builds the
/// preparation-ensemble jobs, a runner executes them (the staged pipeline,
/// `qt_core::QuTracer::plan`, batches the jobs of every subset into one
/// deduplicated batch), and [`tabulate_single`] then
/// [`combine_single_mitigated`] turn the outputs into mitigated
/// expectations. Finite-shot counts feed the same tabulation through
/// `SampledOutput::to_run_output`.
#[derive(Debug, Clone, Copy)]
pub struct QspcSingleSpec<'a> {
    /// The traced qubit.
    pub qubit: usize,
    /// Noisy prefix: everything before the cut (the traced wire is
    /// discarded at the cut).
    pub prefix: &'a Circuit,
    /// The protected segment (must commute with `Z` on the traced qubit).
    pub segment: &'a Circuit,
    /// Options.
    pub config: QspcConfig,
}

/// The executable preparation ensemble of one single-qubit check: one job
/// per `(preparation, measurement basis)` pair, keys aligned with jobs.
#[derive(Debug, Clone)]
pub struct SingleEnsemble {
    /// `(prep, basis)` of each job, in job order.
    pub keys: Vec<(PrepState, Pauli)>,
    /// The executable programs (measuring the traced qubit).
    pub jobs: Vec<BatchJob>,
}

impl<'a> QspcSingleSpec<'a> {
    /// `V_t(O) = y·O·x` for `(x, y) ∈ {I,Z}²`, with the denominator's
    /// identity observable first.
    fn sandwich_terms(outputs: &[Pauli]) -> Vec<(Option<Pauli>, [Matrix; 4])> {
        let z = qt_math::pauli::z2();
        let v_of = |o: &Matrix| -> [Matrix; 4] {
            [
                o.clone(),
                o.mul(&z),        // x = Z, y = I  → y·O·x = O·Z
                z.mul(o),         // x = I, y = Z  → Z·O
                z.mul(o).mul(&z), // x = Z, y = Z
            ]
        };
        let mut all_vs: Vec<(Option<Pauli>, [Matrix; 4])> =
            vec![(None, v_of(&Matrix::identity(2)))];
        for &o in outputs {
            all_vs.push((Some(o), v_of(&o.matrix())));
        }
        all_vs
    }

    /// The measurement bases a *mitigated* evaluation of `outputs` needs:
    /// every non-identity Pauli appearing in some sandwiched observable.
    ///
    /// # Panics
    ///
    /// Panics if the segment is not Z-checkable on the traced qubit.
    pub fn mitigated_bases(&self, outputs: &[Pauli]) -> Vec<Pauli> {
        assert!(
            crate::checks::z_checkable(self.segment, &[self.qubit]),
            "segment does not commute with Z on the traced qubit"
        );
        let mut bases: Vec<Pauli> = Vec::new();
        for (_, vs) in &Self::sandwich_terms(outputs) {
            for v in vs {
                let (_, p) = pauli_component_2x2(v);
                if p != Pauli::I && !bases.contains(&p) {
                    bases.push(p);
                }
            }
        }
        if bases.is_empty() {
            bases.push(Pauli::Z);
        }
        bases
    }

    /// Builds the `preps × bases` preparation-ensemble jobs (Eq. 9 programs:
    /// reduced prefix; reset; reduced segment + rotation; measure).
    pub fn ensemble(&self, bases: &[Pauli]) -> SingleEnsemble {
        let preps = self.config.preps();
        let mut keys: Vec<(PrepState, Pauli)> = Vec::new();
        let mut jobs: Vec<BatchJob> = Vec::new();
        for &b in bases {
            let (program_builder, _) = self.reduced_pieces(b);
            for &s in preps {
                keys.push((s, b));
                jobs.push(BatchJob::new(program_builder(s), vec![self.qubit]));
            }
        }
        SingleEnsemble { keys, jobs }
    }

    /// Builds the (possibly optimized) program pieces for measurement basis
    /// `b`: returns a closure mapping a preparation state to an executable
    /// program, plus the set of prefix qubits that survived reduction.
    fn reduced_pieces(&self, b: Pauli) -> (impl Fn(PrepState) -> Program + '_, Vec<usize>) {
        let j = self.qubit;
        let n = self.prefix.n_qubits().max(self.segment.n_qubits());
        // Segment + rotation, reduced for the terminal Z measurement of j.
        let mut seg_rot = Circuit::new(n);
        seg_rot.append(self.segment);
        for i in basis::measure_rotation(b, j) {
            seg_rot.push_instruction(i);
        }
        let (segment_final, active) = if self.config.optimize_circuits {
            let red = passes::reduce_for_z_measurement(&seg_rot, &[j]);
            (red.circuit, red.active_qubits)
        } else {
            let all: Vec<usize> = (0..n).collect();
            (seg_rot, all)
        };
        // Prefix matters only for the surviving non-traced qubits.
        let prefix_targets: Vec<usize> = active.iter().copied().filter(|&q| q != j).collect();
        let prefix_final = if self.config.optimize_circuits {
            passes::reduce_for_state_preparation(self.prefix, &prefix_targets).circuit
        } else {
            self.prefix.clone()
        };
        let builder = move |s: PrepState| -> Program {
            let mut program = Program::new(n);
            program.push_circuit(&prefix_final);
            program.push_reset_state(&[j], s);
            program.push_circuit(&segment_final);
            program
        };
        (builder, prefix_targets)
    }
}

/// Tabulates an executed [`SingleEnsemble`]: the per-job `⟨Z⟩` expectations
/// keyed by `(prep, basis)`, plus accumulated execution statistics.
pub fn tabulate_single(
    keys: &[(PrepState, Pauli)],
    outs: &[RunOutput],
) -> (BTreeMap<(PrepState, Pauli), f64>, QspcStats) {
    let mut stats = QspcStats::default();
    let mut e: BTreeMap<(PrepState, Pauli), f64> = BTreeMap::new();
    for (&(s, b), out) in keys.iter().zip(outs) {
        stats.absorb(out);
        e.insert((s, b), out.dist.prob(0) - out.dist.prob(1));
    }
    (e, stats)
}

/// Combines a tabulated single-qubit ensemble into mitigated expectations
/// (Eqs. (5)–(8) with the post-selection denominator). Returns the map and
/// the denominator. Purely classical: safe to run long after execution.
///
/// # Panics
///
/// Panics if `rho_in` is not 2×2.
pub fn combine_single_mitigated(
    config: &QspcConfig,
    rho_in: &Matrix,
    outputs: &[Pauli],
    e: &BTreeMap<(PrepState, Pauli), f64>,
) -> (BTreeMap<Pauli, f64>, f64) {
    assert_eq!(rho_in.rows(), 2, "rho_in must be a single-qubit state");
    let z = qt_math::pauli::z2();
    // σ_t = x ρ y for (x, y) ∈ {I,Z}² — Eqs. (5)–(8).
    let sigmas = [
        rho_in.clone(),        // (I, I)
        z.mul(rho_in),         // (Z, I)
        rho_in.mul(&z),        // (I, Z)
        z.mul(rho_in).mul(&z), // (Z, Z)
    ];
    let preps = config.preps();
    let alphas: Vec<Vec<Complex>> = sigmas.iter().map(|m| config.decompose(m)).collect();
    let all_vs = QspcSingleSpec::sandwich_terms(outputs);
    let lookup = |s: PrepState, p: Pauli| -> f64 {
        if p == Pauli::I {
            1.0
        } else {
            e[&(s, p)]
        }
    };

    // Combine. The 1/|G|² factor normalizes so that a noiseless run
    // yields den = 1 (the |G|² equal terms of the expansion).
    let combine = |vs: &[Matrix; 4]| -> f64 {
        let mut acc = Complex::ZERO;
        for (t, v) in vs.iter().enumerate() {
            let (c, p) = pauli_component_2x2(v);
            for (si, s) in preps.iter().enumerate() {
                acc += alphas[t][si] * c * lookup(*s, p);
            }
        }
        debug_assert!(acc.im.abs() < 1e-6, "imaginary residue {}", acc.im);
        acc.re / 4.0
    };

    let den = combine(&all_vs[0].1);
    let mut out = BTreeMap::new();
    for (o, vs) in &all_vs[1..] {
        let o = o.expect("outputs carry their Pauli");
        let num = combine(vs);
        let value = if den.abs() < config.den_floor {
            // Fall back to the unmitigated expectation: term (5) only.
            let mut acc = Complex::ZERO;
            for (si, s) in preps.iter().enumerate() {
                acc += alphas[0][si] * lookup(*s, o);
            }
            acc.re
        } else {
            (num / den).clamp(-1.0, 1.0)
        };
        out.insert(o, value);
    }
    (out, den)
}

/// Assembles a physical single-qubit state from tabulated `X`/`Y`/`Z`
/// expectations, clipping the Bloch vector to the unit ball — the final
/// step of the SQEM baseline's single-qubit state reconstruction.
pub fn bloch_state_from_expectations(exps: &BTreeMap<Pauli, f64>) -> Matrix {
    let mut v = [exps[&Pauli::X], exps[&Pauli::Y], exps[&Pauli::Z]];
    let norm = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
    if norm > 1.0 {
        for c in &mut v {
            *c /= norm;
        }
    }
    qt_math::states::density_from_bloch(v)
}

/// Tabulation key of the pair preparation ensemble:
/// `(prep_low, prep_high, basis_low, basis_high)`.
pub type PairEnsembleKey = (PrepState, PrepState, Pauli, Pauli);

/// A two-qubit subsetting Pauli check in *plan form* (see
/// [`QspcSingleSpec`] for the split between generation and combination).
#[derive(Debug, Clone, Copy)]
pub struct QspcPairSpec<'a> {
    /// The traced pair; `qubits[0]` is bit 0 of local indices.
    pub qubits: [usize; 2],
    /// Noisy prefix before the cut.
    pub prefix: &'a Circuit,
    /// The protected segment (must commute with Z on both qubits).
    pub segment: &'a Circuit,
    /// Options.
    pub config: QspcConfig,
}

/// The executable preparation ensemble of one pair check.
#[derive(Debug, Clone)]
pub struct PairEnsemble {
    /// `(prep_low, prep_high, basis_low, basis_high)` per job, in job order.
    pub keys: Vec<PairEnsembleKey>,
    /// The executable programs (measuring the traced pair).
    pub jobs: Vec<BatchJob>,
}

/// One sandwiched pair observable with its 16 `V_{xy}` matrices.
type PairTerm = (Option<(Pauli, Pauli)>, Vec<Matrix>);

impl<'a> QspcPairSpec<'a> {
    /// The check group `{I, Z_low, Z_high, Z_low·Z_high}` as 4×4 operators
    /// (index bit 0 = `qubits[0]` = low).
    fn group() -> [Matrix; 4] {
        let id2 = Matrix::identity(2);
        let z = qt_math::pauli::z2();
        let z_low = id2.kron(&z);
        let z_high = z.kron(&id2);
        [
            Matrix::identity(4),
            z_low.clone(),
            z_high.clone(),
            z_high.mul(&z_low),
        ]
    }

    /// `V_{xy}(O) = y·O·x` over all 16 group pairs (`x` outer, `y` inner),
    /// denominator identity first — the ordering `combine` relies on.
    fn sandwich_terms(outputs: &[(Pauli, Pauli)]) -> Vec<PairTerm> {
        let g = Self::group();
        let mut pairs_xy: Vec<(usize, usize)> = Vec::with_capacity(16);
        for xi in 0..4 {
            for yi in 0..4 {
                pairs_xy.push((xi, yi));
            }
        }
        let v_of = |o: &Matrix| -> Vec<Matrix> {
            pairs_xy
                .iter()
                .map(|&(xi, yi)| g[yi].mul(o).mul(&g[xi]))
                .collect()
        };
        let o_matrix =
            |(p_low, p_high): (Pauli, Pauli)| -> Matrix { p_high.matrix().kron(&p_low.matrix()) };
        let mut all_vs: Vec<PairTerm> = vec![(None, v_of(&Matrix::identity(4)))];
        for &o in outputs {
            all_vs.push((Some(o), v_of(&o_matrix(o))));
        }
        all_vs
    }

    /// The per-slot basis settings a *mitigated* evaluation of `outputs`
    /// needs.
    ///
    /// # Panics
    ///
    /// Panics if the segment is not Z-checkable on both qubits.
    pub fn mitigated_settings(&self, outputs: &[(Pauli, Pauli)]) -> (Vec<Pauli>, Vec<Pauli>) {
        assert!(
            crate::checks::z_checkable(self.segment, &self.qubits),
            "segment does not commute with Z on the traced pair"
        );
        let mut needed_low: Vec<Pauli> = Vec::new();
        let mut needed_high: Vec<Pauli> = Vec::new();
        for (_, vs) in &Self::sandwich_terms(outputs) {
            for v in vs {
                let (_, pl, ph) = pauli_component_4x4(v);
                if pl != Pauli::I && !needed_low.contains(&pl) {
                    needed_low.push(pl);
                }
                if ph != Pauli::I && !needed_high.contains(&ph) {
                    needed_high.push(ph);
                }
            }
        }
        if needed_low.is_empty() {
            needed_low.push(Pauli::Z);
        }
        if needed_high.is_empty() {
            needed_high.push(Pauli::Z);
        }
        (needed_low, needed_high)
    }

    /// Builds the `settings × preps²` preparation-ensemble jobs.
    pub fn ensemble(&self, needed_low: &[Pauli], needed_high: &[Pauli]) -> PairEnsemble {
        let mut keys: Vec<PairEnsembleKey> = Vec::new();
        let mut jobs: Vec<BatchJob> = Vec::new();
        for &bl in needed_low {
            for &bh in needed_high {
                let builder = self.reduced_pieces(bl, bh);
                for s_low in PrepState::REDUCED {
                    for s_high in PrepState::REDUCED {
                        keys.push((s_low, s_high, bl, bh));
                        jobs.push(BatchJob::new(
                            builder(s_low, s_high),
                            vec![self.qubits[0], self.qubits[1]],
                        ));
                    }
                }
            }
        }
        PairEnsemble { keys, jobs }
    }

    fn reduced_pieces(
        &self,
        bl: Pauli,
        bh: Pauli,
    ) -> impl Fn(PrepState, PrepState) -> Program + '_ {
        let [q0, q1] = self.qubits;
        let n = self.prefix.n_qubits().max(self.segment.n_qubits());
        let mut seg_rot = Circuit::new(n);
        seg_rot.append(self.segment);
        for i in basis::measure_rotation(bl, q0) {
            seg_rot.push_instruction(i);
        }
        for i in basis::measure_rotation(bh, q1) {
            seg_rot.push_instruction(i);
        }
        let (segment_final, active) = if self.config.optimize_circuits {
            let red = passes::reduce_for_z_measurement(&seg_rot, &[q0, q1]);
            (red.circuit, red.active_qubits)
        } else {
            let all: Vec<usize> = (0..n).collect();
            (seg_rot, all)
        };
        let prefix_targets: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&q| q != q0 && q != q1)
            .collect();
        let prefix_final = if self.config.optimize_circuits {
            passes::reduce_for_state_preparation(self.prefix, &prefix_targets).circuit
        } else {
            self.prefix.clone()
        };
        move |s_low: PrepState, s_high: PrepState| -> Program {
            let mut program = Program::new(n);
            program.push_circuit(&prefix_final);
            program.push_reset_pair(&[q0, q1], s_low, s_high);
            program.push_circuit(&segment_final);
            program
        }
    }
}

/// Tabulates an executed [`PairEnsemble`]: every measured pair expectation
/// `E[(s_low, s_high)][(P_low, P_high)]` (`I` slots ride along with their
/// setting's basis), plus accumulated execution statistics.
pub fn tabulate_pair(
    keys: &[PairEnsembleKey],
    outs: &[RunOutput],
) -> (BTreeMap<PairEnsembleKey, f64>, QspcStats) {
    let mut stats = QspcStats::default();
    let mut e: BTreeMap<PairEnsembleKey, f64> = BTreeMap::new();
    for (&(s_low, s_high, bl, bh), out) in keys.iter().zip(outs) {
        stats.absorb(out);
        let dist = &out.dist;
        // Expectations of all Paulis compatible with (bl, bh).
        let exp = |mask: u64| -> f64 {
            dist.iter()
                .map(|(i, p)| {
                    if (i & mask).count_ones().is_multiple_of(2) {
                        p
                    } else {
                        -p
                    }
                })
                .sum()
        };
        e.insert((s_low, s_high, bl, Pauli::I), exp(0b01));
        e.insert((s_low, s_high, Pauli::I, bh), exp(0b10));
        e.insert((s_low, s_high, bl, bh), exp(0b11));
    }
    (e, stats)
}

/// Looks up a tabulated pair expectation, substituting the first recorded
/// setting for `I` slots — the convention [`tabulate_pair`] records under.
fn lookup_pair(
    e: &BTreeMap<PairEnsembleKey, f64>,
    needed_low: &[Pauli],
    needed_high: &[Pauli],
    sl: PrepState,
    sh: PrepState,
    pl: Pauli,
    ph: Pauli,
) -> f64 {
    if pl == Pauli::I && ph == Pauli::I {
        return 1.0;
    }
    let bl = if pl == Pauli::I { needed_low[0] } else { pl };
    let bh = if ph == Pauli::I { needed_high[0] } else { ph };
    let key = if pl == Pauli::I {
        (sl, sh, Pauli::I, bh)
    } else if ph == Pauli::I {
        (sl, sh, bl, Pauli::I)
    } else {
        (sl, sh, bl, bh)
    };
    e[&key]
}

/// Combines a tabulated pair ensemble into mitigated expectations. Returns
/// the map and the post-selection denominator. `needed_low`/`needed_high`
/// must be the settings the ensemble was built with.
///
/// # Panics
///
/// Panics if `rho_in` is not 4×4.
pub fn combine_pair_mitigated(
    config: &QspcConfig,
    rho_in: &Matrix,
    outputs: &[(Pauli, Pauli)],
    needed_low: &[Pauli],
    needed_high: &[Pauli],
    e: &BTreeMap<PairEnsembleKey, f64>,
) -> (BTreeMap<(Pauli, Pauli), f64>, f64) {
    assert_eq!(rho_in.rows(), 4, "rho_in must be a two-qubit state");
    let g = QspcPairSpec::group();
    // σ_{xy} = x ρ y and their prep decompositions (`x` outer, `y` inner —
    // the same ordering as `sandwich_terms`).
    let mut alphas: Vec<[[Complex; 4]; 4]> = Vec::with_capacity(16);
    for x in g.iter() {
        for y in g.iter() {
            alphas.push(decompose_two_qubit_operator(&x.mul(rho_in).mul(y)));
        }
    }
    let all_vs = QspcPairSpec::sandwich_terms(outputs);
    let lookup = |sl: PrepState, sh: PrepState, pl: Pauli, ph: Pauli| -> f64 {
        lookup_pair(e, needed_low, needed_high, sl, sh, pl, ph)
    };

    let combine = |vs: &[Matrix]| -> f64 {
        let mut acc = Complex::ZERO;
        for (t, v) in vs.iter().enumerate() {
            let (c, pl, ph) = pauli_component_4x4(v);
            if c == Complex::ZERO {
                continue;
            }
            for (si, s_high) in PrepState::REDUCED.iter().enumerate() {
                for (ti, s_low) in PrepState::REDUCED.iter().enumerate() {
                    // alphas indexed [high][low].
                    acc += alphas[t][si][ti] * c * lookup(*s_low, *s_high, pl, ph);
                }
            }
        }
        debug_assert!(acc.im.abs() < 1e-6, "imaginary residue {}", acc.im);
        acc.re / 16.0
    };

    let den = combine(&all_vs[0].1);
    let mut out = BTreeMap::new();
    for (o, vs) in &all_vs[1..] {
        let o = o.expect("outputs carry their Paulis");
        let num = combine(vs);
        let value = if den.abs() < config.den_floor {
            let mut acc = Complex::ZERO;
            // Unmitigated: term (x, y) = (I, I), index 0.
            for (si, s_high) in PrepState::REDUCED.iter().enumerate() {
                for (ti, s_low) in PrepState::REDUCED.iter().enumerate() {
                    acc += alphas[0][si][ti] * lookup(*s_low, *s_high, o.0, o.1);
                }
            }
            acc.re
        } else {
            (num / den).clamp(-1.0, 1.0)
        };
        out.insert(o, value);
    }
    (out, den)
}

/// Decomposes a 2×2 operator that is proportional to a single Pauli:
/// returns `(c, P)` with `V = c·P`. Exact for products of Paulis.
///
/// # Panics
///
/// Panics (debug) if `V` has more than one Pauli component.
fn pauli_component_2x2(v: &Matrix) -> (Complex, Pauli) {
    let mut found = (Complex::ZERO, Pauli::I);
    let mut count = 0;
    for p in Pauli::ALL {
        let c = p.matrix().trace_product(v) / 2.0;
        if c.norm() > 1e-12 {
            found = (c, p);
            count += 1;
        }
    }
    debug_assert!(count <= 1, "operator is not a single Pauli component");
    if count == 0 {
        (Complex::ZERO, Pauli::I)
    } else {
        found
    }
}

/// Same for 4×4 operators: returns `(c, P_low, P_high)`.
fn pauli_component_4x4(v: &Matrix) -> (Complex, Pauli, Pauli) {
    let mut found = (Complex::ZERO, Pauli::I, Pauli::I);
    let mut count = 0;
    for ph in Pauli::ALL {
        for pl in Pauli::ALL {
            let op = ph.matrix().kron(&pl.matrix());
            let c = op.trace_product(v) / 4.0;
            if c.norm() > 1e-12 {
                found = (c, pl, ph);
                count += 1;
            }
        }
    }
    debug_assert!(count <= 1, "operator is not a single Pauli component");
    if count == 0 {
        (Complex::ZERO, Pauli::I, Pauli::I)
    } else {
        found
    }
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
        let spec = QspcSingleSpec {
            qubit: 0,
            prefix,
            segment,
            config,
        };
        let ens = spec.ensemble(&spec.mitigated_bases(outputs));
        let (e, stats) = tabulate_single(&ens.keys, &exec.run_batch(&ens.jobs));
        let (exps, den) = combine_single_mitigated(&config, rho_in, outputs, &e);
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
        let spec = QspcPairSpec {
            qubits: [0, 1],
            prefix,
            segment,
            config,
        };
        let outputs = [
            (Pauli::Z, Pauli::I),
            (Pauli::I, Pauli::Z),
            (Pauli::Z, Pauli::Z),
        ];
        let (low, high) = spec.mitigated_settings(&outputs);
        let ens = spec.ensemble(&low, &high);
        let (e, _) = tabulate_pair(&ens.keys, &exec.run_batch(&ens.jobs));
        let (exps, den) = combine_pair_mitigated(&config, rho_in, &outputs, &low, &high, &e);
        let (z0, z1, zz) = (exps[&outputs[0]], exps[&outputs[1]], exps[&outputs[2]]);
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
        let spec = QspcSingleSpec {
            qubit: 0,
            prefix: &prefix,
            segment: &segment,
            config: QspcConfig::default(),
        };
        let ens = spec.ensemble(&spec.mitigated_bases(&[Pauli::X, Pauli::Y, Pauli::Z]));
        let outs = exec.run_batch(&ens.jobs);
        let sampled: Vec<SampledOutput> =
            exec.run_batch_sampled(&ens.jobs, &ShotPlan::uniform(ens.jobs.len(), shots), 7);
        let (exact_e, exact_stats) = tabulate_single(&ens.keys, &outs);
        let (sampled_e, sampled_stats) = tabulate_single(&ens.keys, &to_run_outputs(&sampled));
        assert_eq!(exact_stats, sampled_stats, "gate accounting is shot-free");
        for (key, e) in &exact_e {
            let s = sampled_e[key];
            // ⟨Z⟩ shot noise at 2^17 shots is ~0.003; allow 5 sigma.
            assert!((s - e).abs() < 0.015, "{key:?}: sampled {s} vs exact {e}");
        }

        // Pair ensemble, same contract.
        let pair_spec = QspcPairSpec {
            qubits: [0, 1],
            prefix: &prefix,
            segment: &segment,
            config: QspcConfig::default(),
        };
        let needed = [Pauli::Z];
        let pens = pair_spec.ensemble(&needed, &needed);
        let pouts = exec.run_batch(&pens.jobs);
        let psampled =
            exec.run_batch_sampled(&pens.jobs, &ShotPlan::uniform(pens.jobs.len(), shots), 11);
        let (pe, pstats) = tabulate_pair(&pens.keys, &pouts);
        let (pse, psstats) = tabulate_pair(&pens.keys, &to_run_outputs(&psampled));
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
