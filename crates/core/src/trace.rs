//! Per-subset state tracing: the heart of the QuTracer framework.
//!
//! For each traced subset (one qubit or a pair), the circuit is segmented
//! into alternating *local* blocks (subset-only gates, simulated classically
//! — *localized gate simulation*) and *check segments* (operations commuting
//! with Z on the subset). The subset's density matrix is then walked through
//! the circuit:
//!
//! * local blocks update it exactly (and noiselessly) on the classical side;
//! * at each cut the *off-diagonal* components are (re)estimated by direct
//!   measurement of the true subset marginal (the paper's "measure the
//!   state at (1,3)" step, Sec. V-C) — the Z-diagonal, which a Z-commuting
//!   segment preserves exactly, carries the **mitigated** information across
//!   layers;
//! * checked segments update the state with the QSPC-mitigated output;
//! * unchecked segments (outside the checked window of Fig. 9) simply mark
//!   the tracked state stale, so the next cut re-measures everything.
//!
//! *State traceback* restricts which Pauli components are estimated at each
//! cut to exactly the ones the terminal Z measurement can depend on,
//! pulled backwards through the local blocks.
//!
//! # Execution ports
//!
//! The programs a walk requests are a *static* function of the circuit
//! analysis — measurement results feed only the classical combination, never
//! the choice of what to run next. The walk is therefore written against a
//! `TracePort` with three interchangeable backends:
//!
//! * `LivePort` submits each request to a [`Runner`] immediately (the
//!   classic serial behaviour of [`trace_single`]/[`trace_pair`]);
//! * `CollectPort` records every requested program, tagged by
//!   (subset, segment, preparation, basis) — stage 1 of the pipeline;
//! * `ReplayPort` feeds previously executed results back through the
//!   identical walk — stage 3 (recombination).
//!
//! All three traverse byte-identical job streams, which is what makes the
//! batched pipeline bit-identical to the serial path.

use crate::error::ExecError;
use qt_circuit::passes::{split_into_segments, Segment, UnsupportedCoupling};
use qt_circuit::{basis, embed, passes, Circuit, Instruction};
use qt_dist::Distribution;
use qt_math::states::PrepState;
use qt_math::{Complex, Matrix, Pauli};
use qt_pcs::{
    combine_pair_mitigated, combine_single_mitigated, project_to_physical, tabulate_pair,
    tabulate_single, QspcPairSpec, QspcSingleSpec, QspcStats,
};
use qt_sim::{BatchJob, Program, RunOutput, Runner};
use std::collections::{BTreeMap, BTreeSet};

/// Options of a subset trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Apply false-dependency removal / gate bypassing (Sec. V-B).
    pub optimize_circuits: bool,
    /// Restrict measured components via state traceback (Sec. V-B).
    pub state_traceback: bool,
    /// Check only this many trailing check segments (`None` = all);
    /// earlier segments propagate unmitigated (Fig. 9's sweep).
    pub checked_layers: Option<usize>,
    /// Use the reduced 4-state preparation basis.
    pub use_reduced_preps: bool,
    /// Denominator floor forwarded to the QSPC engine.
    pub den_floor: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            optimize_circuits: true,
            state_traceback: true,
            checked_layers: None,
            use_reduced_preps: true,
            den_floor: 0.05,
        }
    }
}

impl TraceConfig {
    fn qspc(&self) -> qt_pcs::QspcConfig {
        qt_pcs::QspcConfig {
            optimize_circuits: self.optimize_circuits,
            use_reduced_preps: self.use_reduced_preps,
            den_floor: self.den_floor,
        }
    }
}

/// Result of tracing one subset.
#[derive(Debug, Clone)]
pub struct TraceOutcome {
    /// The mitigated local Z distribution of the subset
    /// (bit `i` = subset qubit `i`).
    pub local: Distribution,
    /// The final traced subset state.
    pub rho: Matrix,
    /// Accumulated execution statistics.
    pub stats: QspcStats,
    /// Number of check segments that received a QSPC check.
    pub checks_applied: usize,
}

// ---------------------------------------------------------------------
// Job tagging and execution ports.
// ---------------------------------------------------------------------

/// The role of one planned program within a mitigation plan (the paper's
/// Fig. 4 stage-1 artifact, tagged by subset / segment / prep / basis).
#[derive(Debug, Clone, PartialEq)]
pub struct JobTag {
    /// The traced physical qubits (empty for the global run).
    pub subset: Vec<usize>,
    /// Segment index within the subset's segmentation, when applicable.
    pub segment: Option<usize>,
    /// What the program measures.
    pub kind: JobKind,
}

/// What a planned program measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobKind {
    /// The original circuit over all target qubits.
    Global,
    /// A true-marginal measurement at a cut, in the given per-slot bases
    /// (the high slot is `None` for single-qubit subsets).
    CutMarginal {
        /// Basis on subset slot 0.
        basis_low: Pauli,
        /// Basis on subset slot 1 (pairs only).
        basis_high: Option<Pauli>,
    },
    /// One member of a QSPC preparation ensemble (Eq. 9).
    Ensemble {
        /// Preparation on subset slot 0.
        prep_low: PrepState,
        /// Preparation on subset slot 1 (pairs only).
        prep_high: Option<PrepState>,
        /// Measurement basis on subset slot 0.
        basis_low: Pauli,
        /// Measurement basis on subset slot 1 (pairs only).
        basis_high: Option<Pauli>,
    },
    /// The whole circuit measured on the subset only (Jigsaw-style local
    /// fallback for trailing unchecked segments).
    Fallback,
}

/// Where a trace walk sends its program requests (see module docs).
pub(crate) trait TracePort {
    /// Submits a batch of tagged jobs and returns their results in order.
    fn submit(
        &mut self,
        jobs: Vec<BatchJob>,
        tags: Vec<JobTag>,
    ) -> Result<Vec<RunOutput>, ExecError>;
}

/// Executes every request immediately on a [`Runner`].
pub(crate) struct LivePort<'a, R: Runner> {
    pub runner: &'a R,
}

impl<R: Runner> TracePort for LivePort<'_, R> {
    fn submit(
        &mut self,
        jobs: Vec<BatchJob>,
        _tags: Vec<JobTag>,
    ) -> Result<Vec<RunOutput>, ExecError> {
        Ok(self.runner.run_batch(&jobs))
    }
}

/// Records every request (stage 1). Returns placeholder uniform outputs
/// with *exact* static gate counts, so plan-time statistics are real while
/// the tracked state — which no job generation depends on — is discarded.
pub(crate) struct CollectPort<'a> {
    pub sink: &'a mut Vec<(BatchJob, JobTag)>,
}

impl TracePort for CollectPort<'_> {
    fn submit(
        &mut self,
        jobs: Vec<BatchJob>,
        tags: Vec<JobTag>,
    ) -> Result<Vec<RunOutput>, ExecError> {
        let outs = jobs
            .iter()
            .map(|j| RunOutput {
                dist: Distribution::uniform(j.measured.len()),
                gates: j.program.gate_count(),
                two_qubit_gates: j.program.two_qubit_gate_count(),
            })
            .collect();
        for (job, tag) in jobs.into_iter().zip(tags) {
            self.sink.push((job, tag));
        }
        Ok(outs)
    }
}

/// Feeds recorded results back through the walk, in request order
/// (stage 3).
pub(crate) struct ReplayPort<'a> {
    outputs: &'a [RunOutput],
    cursor: usize,
}

impl<'a> ReplayPort<'a> {
    pub fn new(outputs: &'a [RunOutput]) -> Self {
        ReplayPort { outputs, cursor: 0 }
    }

    /// Whether every recorded result was consumed by the walk.
    pub fn fully_consumed(&self) -> bool {
        self.cursor == self.outputs.len()
    }
}

impl TracePort for ReplayPort<'_> {
    fn submit(
        &mut self,
        jobs: Vec<BatchJob>,
        _tags: Vec<JobTag>,
    ) -> Result<Vec<RunOutput>, ExecError> {
        let end = self.cursor + jobs.len();
        if end > self.outputs.len() {
            return Err(ExecError::ArtifactsExhausted);
        }
        let outs = self.outputs[self.cursor..end].to_vec();
        self.cursor = end;
        Ok(outs)
    }
}

/// Why a ported walk stopped.
#[derive(Debug)]
pub(crate) enum TraceError {
    /// Stage-1 failure: the subset is not Z-checkable.
    Coupling(UnsupportedCoupling),
    /// Stage-3 failure: the port could not serve a request.
    Exec(ExecError),
}

impl From<UnsupportedCoupling> for TraceError {
    fn from(e: UnsupportedCoupling) -> Self {
        TraceError::Coupling(e)
    }
}

impl From<ExecError> for TraceError {
    fn from(e: ExecError) -> Self {
        TraceError::Exec(e)
    }
}

// ---------------------------------------------------------------------
// Public (live) entry points.
// ---------------------------------------------------------------------

/// Traces a single qubit through `circuit` (subset size 1), executing each
/// request immediately on `runner`.
///
/// # Errors
///
/// Returns [`UnsupportedCoupling`] if a gate couples the qubit
/// non-diagonally (no Z check exists).
pub fn trace_single<R: Runner>(
    runner: &R,
    circuit: &Circuit,
    qubit: usize,
    config: &TraceConfig,
) -> Result<TraceOutcome, UnsupportedCoupling> {
    let mut port = LivePort { runner };
    match trace_single_with_port(&mut port, circuit, qubit, config) {
        Ok(o) => Ok(o),
        Err(TraceError::Coupling(e)) => Err(e),
        Err(TraceError::Exec(_)) => unreachable!("live port is infallible"),
    }
}

/// Traces a qubit pair through `circuit` (subset size 2), executing each
/// request immediately on `runner`.
///
/// # Errors
///
/// Returns [`UnsupportedCoupling`] if a gate couples the pair
/// non-diagonally to the rest.
pub fn trace_pair<R: Runner>(
    runner: &R,
    circuit: &Circuit,
    pair: [usize; 2],
    config: &TraceConfig,
) -> Result<TraceOutcome, UnsupportedCoupling> {
    let mut port = LivePort { runner };
    match trace_pair_with_port(&mut port, circuit, pair, config) {
        Ok(o) => Ok(o),
        Err(TraceError::Coupling(e)) => Err(e),
        Err(TraceError::Exec(_)) => unreachable!("live port is infallible"),
    }
}

// ---------------------------------------------------------------------
// Ported walks.
// ---------------------------------------------------------------------

pub(crate) fn trace_single_with_port(
    port: &mut dyn TracePort,
    circuit: &Circuit,
    qubit: usize,
    config: &TraceConfig,
) -> Result<TraceOutcome, TraceError> {
    let segments = split_into_segments(circuit, &[qubit])?;
    let n = circuit.n_qubits();
    let checked = checked_set(&segments, &[qubit], config.checked_layers);
    let needed_at = compute_needed_single(&segments, qubit, config.state_traceback);

    let mut rho = qt_math::states::PrepState::Zero.projector();
    let mut prefix = Circuit::new(n);
    let mut stats = QspcStats::default();
    let mut checks_applied = 0usize;
    // `offdiag_exact`: the traced state is still provably product with the
    // rest (severing is exact). `diag_valid`/`offdiag_valid`: whether the
    // tracked components are currently trustworthy at all.
    let mut offdiag_exact = true;
    let mut diag_valid = true;
    let mut offdiag_valid = true;

    for (i, seg) in segments.iter().enumerate() {
        rho = apply_local_block(&rho, &seg.local, &[qubit]);
        for instr in &seg.local {
            prefix.push(instr.gate.clone(), instr.qubits.clone());
        }
        if !seg.check_touches(&[qubit]) {
            for instr in &seg.check {
                prefix.push(instr.gate.clone(), instr.qubits.clone());
            }
            continue;
        }
        if !checked.contains(&i) {
            // Unchecked window: the segment runs inside the (global) noisy
            // circuit; we stop tracking and re-measure at the next cut.
            for instr in &seg.check {
                prefix.push(instr.gate.clone(), instr.qubits.clone());
            }
            offdiag_exact = false;
            diag_valid = false;
            offdiag_valid = false;
            continue;
        }

        // ---- refresh the input state where it went stale ----
        let mut bases: Vec<Pauli> = Vec::new();
        if !offdiag_valid {
            bases.push(Pauli::X);
            bases.push(Pauli::Y);
        }
        if !diag_valid {
            bases.push(Pauli::Z);
        }
        if !bases.is_empty() {
            let measured =
                measure_marginal_single(port, &prefix, qubit, &bases, config, &mut stats, i)?;
            rho = overwrite_bloch(&rho, &measured);
        }

        // ---- mitigated update through the checked segment ----
        // While the cut state is provably product, severing is exact and the
        // full mitigated state (incl. X/Y) is requested from QSPC — the
        // paper's QPE/BV regime. At entangled cuts only the severing-immune
        // diagonal is mitigated; off-diagonals come from a true-marginal
        // measurement at the post-check cut.
        let downstream: Vec<Pauli> = needed_at[i].to_vec();
        let outputs: Vec<Pauli> = if offdiag_exact {
            downstream.clone()
        } else {
            vec![Pauli::Z]
        };
        let mut segment = Circuit::new(n);
        for instr in &seg.check {
            segment.push(instr.gate.clone(), instr.qubits.clone());
        }
        checks_applied += 1;
        let qspc_config = config.qspc();
        let exps = {
            let spec = QspcSingleSpec {
                qubit,
                prefix: &prefix,
                segment: &segment,
                config: qspc_config,
            };
            let ens = spec.ensemble(&spec.mitigated_bases(&outputs));
            let tags = ens
                .keys
                .iter()
                .map(|&(s, b)| JobTag {
                    subset: vec![qubit],
                    segment: Some(i),
                    kind: JobKind::Ensemble {
                        prep_low: s,
                        prep_high: None,
                        basis_low: b,
                        basis_high: None,
                    },
                })
                .collect();
            let outs = port.submit(ens.jobs, tags)?;
            let (e, st) = tabulate_single(&ens.keys, &outs);
            stats = add_stats(stats, st);
            let (exps, _den) = combine_single_mitigated(&qspc_config, &rho, &outputs, &e);
            exps
        };
        let mut m = Matrix::identity(2).scale(Complex::real(0.5));
        for (&p, &v) in &exps {
            if p != Pauli::I {
                m = m.add(&p.matrix().scale(Complex::real(v / 2.0)));
            }
        }
        rho = project_to_physical(&m);
        for instr in &seg.check {
            prefix.push(instr.gate.clone(), instr.qubits.clone());
        }
        if !offdiag_exact {
            // True-marginal off-diagonals at the post-check cut, if any
            // downstream consumer needs them.
            let need_off: Vec<Pauli> = downstream
                .iter()
                .copied()
                .filter(|&p| p == Pauli::X || p == Pauli::Y)
                .collect();
            if !need_off.is_empty() {
                let measured = measure_marginal_single(
                    port, &prefix, qubit, &need_off, config, &mut stats, i,
                )?;
                rho = overwrite_bloch(&rho, &measured);
            }
        }
        offdiag_exact = false;
        diag_valid = true;
        offdiag_valid = true;
    }

    if !diag_valid {
        // Trailing unchecked segments: fall back to the plain subset
        // measurement of the full circuit (Jigsaw-style local).
        let job = BatchJob::new(Program::from_circuit(circuit), vec![qubit]);
        let tag = JobTag {
            subset: vec![qubit],
            segment: None,
            kind: JobKind::Fallback,
        };
        let out = port.submit(vec![job], vec![tag])?.remove(0);
        stats.n_circuits += 1;
        stats.total_gates += out.gates;
        stats.total_two_qubit_gates += out.two_qubit_gates;
        return Ok(TraceOutcome {
            local: out.dist.normalized(),
            rho,
            stats,
            checks_applied,
        });
    }

    let p0 = rho[(0, 0)].re.clamp(0.0, 1.0);
    Ok(TraceOutcome {
        local: Distribution::try_from_probs(1, vec![p0, 1.0 - p0])
            .expect("one-bit local distribution")
            .normalized(),
        rho,
        stats,
        checks_applied,
    })
}

pub(crate) fn trace_pair_with_port(
    port: &mut dyn TracePort,
    circuit: &Circuit,
    pair: [usize; 2],
    config: &TraceConfig,
) -> Result<TraceOutcome, TraceError> {
    let segments = split_into_segments(circuit, &pair)?;
    let n = circuit.n_qubits();
    let checked = checked_set(&segments, &pair, config.checked_layers);
    let needed_at = compute_needed_pair(&segments, pair, config.state_traceback);

    let zero = qt_math::states::PrepState::Zero.projector();
    let mut rho = zero.kron(&zero);
    let mut prefix = Circuit::new(n);
    let mut stats = QspcStats::default();
    let mut checks_applied = 0usize;
    let mut offdiag_exact = true;
    let mut diag_valid = true;
    let mut offdiag_valid = true;

    let is_diag_pair = |pl: Pauli, ph: Pauli| {
        (pl == Pauli::I || pl == Pauli::Z) && (ph == Pauli::I || ph == Pauli::Z)
    };
    let diag_outputs = [
        (Pauli::Z, Pauli::I),
        (Pauli::I, Pauli::Z),
        (Pauli::Z, Pauli::Z),
    ];

    for (i, seg) in segments.iter().enumerate() {
        rho = apply_local_block(&rho, &seg.local, &pair);
        for instr in &seg.local {
            prefix.push(instr.gate.clone(), instr.qubits.clone());
        }
        if !seg.check_touches(&pair) {
            for instr in &seg.check {
                prefix.push(instr.gate.clone(), instr.qubits.clone());
            }
            continue;
        }
        if !checked.contains(&i) {
            for instr in &seg.check {
                prefix.push(instr.gate.clone(), instr.qubits.clone());
            }
            offdiag_exact = false;
            diag_valid = false;
            offdiag_valid = false;
            continue;
        }

        let downstream: Vec<(Pauli, Pauli)> = needed_at[i].to_vec();

        // ---- refresh stale inputs from the true marginal ----
        let inputs = expand_pair_inputs(&downstream);
        let mut to_measure: Vec<(Pauli, Pauli)> = Vec::new();
        for &(pl, ph) in &inputs {
            let diag = is_diag_pair(pl, ph);
            if (diag && !diag_valid) || (!diag && !offdiag_valid) {
                to_measure.push((pl, ph));
            }
        }
        if !to_measure.is_empty() {
            let measured =
                measure_marginal_pair(port, &prefix, pair, &to_measure, config, &mut stats, i)?;
            rho = overwrite_pair_components(&rho, &measured);
        }

        // ---- mitigated update ----
        let outputs: Vec<(Pauli, Pauli)> = if offdiag_exact {
            downstream.clone()
        } else {
            diag_outputs.to_vec()
        };
        let mut segment = Circuit::new(n);
        for instr in &seg.check {
            segment.push(instr.gate.clone(), instr.qubits.clone());
        }
        checks_applied += 1;
        let qspc_config = config.qspc();
        let exps = {
            let spec = QspcPairSpec {
                qubits: pair,
                prefix: &prefix,
                segment: &segment,
                config: qspc_config,
            };
            let (needed_low, needed_high) = spec.mitigated_settings(&outputs);
            let ens = spec.ensemble(&needed_low, &needed_high);
            let tags = ens
                .keys
                .iter()
                .map(|&(sl, sh, bl, bh)| JobTag {
                    subset: pair.to_vec(),
                    segment: Some(i),
                    kind: JobKind::Ensemble {
                        prep_low: sl,
                        prep_high: Some(sh),
                        basis_low: bl,
                        basis_high: Some(bh),
                    },
                })
                .collect();
            let outs = port.submit(ens.jobs, tags)?;
            let (e, st) = tabulate_pair(&ens.keys, &outs);
            stats = add_stats(stats, st);
            let (exps, _den) =
                combine_pair_mitigated(&qspc_config, &rho, &outputs, &needed_low, &needed_high, &e);
            exps
        };
        let mut m = Matrix::identity(4).scale(Complex::real(0.25));
        for (&(pl, ph), &v) in &exps {
            let op = ph.matrix().kron(&pl.matrix());
            m = m.add(&op.scale(Complex::real(v / 4.0)));
        }
        rho = project_to_physical(&m);
        for instr in &seg.check {
            prefix.push(instr.gate.clone(), instr.qubits.clone());
        }
        if !offdiag_exact {
            let need_off: Vec<(Pauli, Pauli)> = downstream
                .iter()
                .copied()
                .filter(|&(pl, ph)| !is_diag_pair(pl, ph))
                .collect();
            if !need_off.is_empty() {
                let measured =
                    measure_marginal_pair(port, &prefix, pair, &need_off, config, &mut stats, i)?;
                rho = overwrite_pair_components(&rho, &measured);
            }
        }
        offdiag_exact = false;
        diag_valid = true;
        offdiag_valid = true;
    }

    if !diag_valid {
        let job = BatchJob::new(Program::from_circuit(circuit), vec![pair[0], pair[1]]);
        let tag = JobTag {
            subset: pair.to_vec(),
            segment: None,
            kind: JobKind::Fallback,
        };
        let out = port.submit(vec![job], vec![tag])?.remove(0);
        stats.n_circuits += 1;
        stats.total_gates += out.gates;
        stats.total_two_qubit_gates += out.two_qubit_gates;
        return Ok(TraceOutcome {
            local: out.dist.normalized(),
            rho,
            stats,
            checks_applied,
        });
    }

    let mut probs = vec![0.0; 4];
    for (b, p) in probs.iter_mut().enumerate() {
        *p = rho[(b, b)].re.max(0.0);
    }
    Ok(TraceOutcome {
        local: Distribution::try_from_probs(2, probs)
            .expect("two-bit local distribution")
            .normalized(),
        rho,
        stats,
        checks_applied,
    })
}

// ---------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------

fn checked_set(
    segments: &[Segment],
    subset: &[usize],
    checked_layers: Option<usize>,
) -> BTreeSet<usize> {
    let touching: Vec<usize> = segments
        .iter()
        .enumerate()
        .filter(|(_, s)| s.check_touches(subset))
        .map(|(i, _)| i)
        .collect();
    let first = match checked_layers {
        Some(k) => touching.len().saturating_sub(k),
        None => 0,
    };
    touching[first..].iter().copied().collect()
}

fn add_stats(mut a: QspcStats, b: QspcStats) -> QspcStats {
    a.n_circuits += b.n_circuits;
    a.total_gates += b.total_gates;
    a.total_two_qubit_gates += b.total_two_qubit_gates;
    a.max_two_qubit_gates = a.max_two_qubit_gates.max(b.max_two_qubit_gates);
    a
}

/// Overwrites the Bloch components of a single-qubit state with measured
/// values, clipping to the physical ball.
fn overwrite_bloch(rho: &Matrix, measured: &BTreeMap<Pauli, f64>) -> Matrix {
    let mut bloch = qt_math::states::bloch_vector(rho);
    for (&b, &v) in measured {
        match b {
            Pauli::X => bloch[0] = v,
            Pauli::Y => bloch[1] = v,
            Pauli::Z => bloch[2] = v,
            Pauli::I => {}
        }
    }
    let norm = (bloch[0] * bloch[0] + bloch[1] * bloch[1] + bloch[2] * bloch[2]).sqrt();
    if norm > 1.0 {
        for c in &mut bloch {
            *c /= norm;
        }
    }
    qt_math::states::density_from_bloch(bloch)
}

/// Applies a subset-local block of instructions to the subset state.
fn apply_local_block(rho: &Matrix, instrs: &[Instruction], subset: &[usize]) -> Matrix {
    if instrs.is_empty() {
        return rho.clone();
    }
    let k = subset.len();
    let mut u = Matrix::identity(1 << k);
    for instr in instrs {
        let positions: Vec<usize> = instr
            .qubits
            .iter()
            .map(|q| subset.iter().position(|x| x == q).expect("local gate"))
            .collect();
        u = embed(&instr.gate.matrix(), &positions, k).mul(&u);
    }
    u.mul(rho).mul(&u.dagger())
}

/// Overwrites Pauli-pair coefficients of a two-qubit state with measured
/// values and re-projects to a physical state.
fn overwrite_pair_components(rho: &Matrix, measured: &BTreeMap<(Pauli, Pauli), f64>) -> Matrix {
    let mut m = Matrix::identity(4).scale(Complex::real(0.25));
    for pl in Pauli::ALL {
        for ph in Pauli::ALL {
            if pl == Pauli::I && ph == Pauli::I {
                continue;
            }
            let op = ph.matrix().kron(&pl.matrix());
            let v = match measured.get(&(pl, ph)) {
                Some(&v) => v,
                None => op.trace_product(rho).re,
            };
            m = m.add(&op.scale(Complex::real(v / 4.0)));
        }
    }
    project_to_physical(&m)
}

/// Measures the unmitigated true marginal of one qubit at the current cut
/// (run the prefix, rotate, read) in each requested basis.
#[allow(clippy::too_many_arguments)]
fn measure_marginal_single(
    port: &mut dyn TracePort,
    prefix: &Circuit,
    qubit: usize,
    bases: &[Pauli],
    config: &TraceConfig,
    stats: &mut QspcStats,
    segment: usize,
) -> Result<BTreeMap<Pauli, f64>, ExecError> {
    // One reduced circuit per basis, executed as a single parallel batch.
    let jobs: Vec<BatchJob> = bases
        .iter()
        .map(|&b| {
            let mut c = Circuit::new(prefix.n_qubits());
            c.append(prefix);
            for i in basis::measure_rotation(b, qubit) {
                c.push_instruction(i);
            }
            let reduced = if config.optimize_circuits {
                passes::reduce_for_z_measurement(&c, &[qubit]).circuit
            } else {
                c
            };
            BatchJob::new(Program::from_circuit(&reduced), vec![qubit])
        })
        .collect();
    let tags: Vec<JobTag> = bases
        .iter()
        .map(|&b| JobTag {
            subset: vec![qubit],
            segment: Some(segment),
            kind: JobKind::CutMarginal {
                basis_low: b,
                basis_high: None,
            },
        })
        .collect();
    let mut out = BTreeMap::new();
    for (&b, run) in bases.iter().zip(port.submit(jobs, tags)?) {
        stats.n_circuits += 1;
        stats.total_gates += run.gates;
        stats.total_two_qubit_gates += run.two_qubit_gates;
        stats.max_two_qubit_gates = stats.max_two_qubit_gates.max(run.two_qubit_gates);
        out.insert(b, run.dist.prob(0) - run.dist.prob(1));
    }
    Ok(out)
}

/// Measures the unmitigated true marginal of a pair at the current cut for
/// each requested Pauli pair (batched by basis setting).
#[allow(clippy::too_many_arguments)]
fn measure_marginal_pair(
    port: &mut dyn TracePort,
    prefix: &Circuit,
    pair: [usize; 2],
    components: &[(Pauli, Pauli)],
    config: &TraceConfig,
    stats: &mut QspcStats,
    segment: usize,
) -> Result<BTreeMap<(Pauli, Pauli), f64>, ExecError> {
    // Group the requested components by the basis setting that measures
    // them; `I` slots ride along with whatever basis is chosen.
    let mut settings: Vec<(Pauli, Pauli)> = Vec::new();
    for &(pl, ph) in components {
        let bl = if pl == Pauli::I { Pauli::Z } else { pl };
        let bh = if ph == Pauli::I { Pauli::Z } else { ph };
        if !settings.contains(&(bl, bh)) {
            settings.push((bl, bh));
        }
    }
    // One reduced circuit per basis setting, executed as a parallel batch.
    let jobs: Vec<BatchJob> = settings
        .iter()
        .map(|&(bl, bh)| {
            let mut c = Circuit::new(prefix.n_qubits());
            c.append(prefix);
            for i in basis::measure_rotation(bl, pair[0]) {
                c.push_instruction(i);
            }
            for i in basis::measure_rotation(bh, pair[1]) {
                c.push_instruction(i);
            }
            let reduced = if config.optimize_circuits {
                passes::reduce_for_z_measurement(&c, &[pair[0], pair[1]]).circuit
            } else {
                c
            };
            BatchJob::new(Program::from_circuit(&reduced), vec![pair[0], pair[1]])
        })
        .collect();
    let tags: Vec<JobTag> = settings
        .iter()
        .map(|&(bl, bh)| JobTag {
            subset: pair.to_vec(),
            segment: Some(segment),
            kind: JobKind::CutMarginal {
                basis_low: bl,
                basis_high: Some(bh),
            },
        })
        .collect();
    let mut out = BTreeMap::new();
    for (&(bl, bh), run) in settings.iter().zip(port.submit(jobs, tags)?) {
        stats.n_circuits += 1;
        stats.total_gates += run.gates;
        stats.total_two_qubit_gates += run.two_qubit_gates;
        stats.max_two_qubit_gates = stats.max_two_qubit_gates.max(run.two_qubit_gates);
        let dist = run.dist;
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
        out.insert((bl, Pauli::I), exp(0b01));
        out.insert((Pauli::I, bh), exp(0b10));
        out.insert((bl, bh), exp(0b11));
    }
    // Return only the requested components.
    let mut filtered = BTreeMap::new();
    for &(pl, ph) in components {
        if pl == Pauli::I && ph == Pauli::I {
            continue;
        }
        // Find a compatible recorded value.
        let key = if pl == Pauli::I {
            (Pauli::I, ph)
        } else if ph == Pauli::I {
            (pl, Pauli::I)
        } else {
            (pl, ph)
        };
        if let Some(&v) = out.get(&key) {
            filtered.insert((pl, ph), v);
        }
    }
    Ok(filtered)
}

/// The input components a pair check consumes for the given outputs
/// (per-slot expansion: `Z → {Z, I}`, `X/Y → {X, Y}`, plus the diagonal
/// components the denominator needs).
fn expand_pair_inputs(outputs: &[(Pauli, Pauli)]) -> Vec<(Pauli, Pauli)> {
    let expand = |p: Pauli| -> Vec<Pauli> {
        match p {
            Pauli::I => vec![Pauli::I],
            Pauli::Z => vec![Pauli::Z, Pauli::I],
            Pauli::X | Pauli::Y => vec![Pauli::X, Pauli::Y],
        }
    };
    let mut set: BTreeSet<(Pauli, Pauli)> = BTreeSet::from([
        (Pauli::Z, Pauli::I),
        (Pauli::I, Pauli::Z),
        (Pauli::Z, Pauli::Z),
    ]);
    for &(pl, ph) in outputs {
        for el in expand(pl) {
            for eh in expand(ph) {
                if !(el == Pauli::I && eh == Pauli::I) {
                    set.insert((el, eh));
                }
            }
        }
    }
    set.into_iter().collect()
}

/// Backward traceback for subset size 1: the set of output Paulis needed
/// per segment. Needed outputs at a check are those the final Z measurement
/// can depend on, pulled through the downstream local blocks.
fn compute_needed_single(segments: &[Segment], qubit: usize, traceback: bool) -> Vec<Vec<Pauli>> {
    let all = vec![Pauli::X, Pauli::Y, Pauli::Z];
    if !traceback {
        return vec![all; segments.len()];
    }
    let mut needed: BTreeSet<Pauli> = BTreeSet::from([Pauli::Z]);
    let mut out = vec![Vec::new(); segments.len()];
    for (i, seg) in segments.iter().enumerate().rev() {
        out[i] = needed.iter().copied().collect();
        if seg.check_touches(&[qubit]) {
            // Inputs the estimator consumes: Z→{Z}, X/Y→{X,Y} (+Z for den).
            let mut inputs = BTreeSet::from([Pauli::Z]);
            for &p in &needed {
                match p {
                    Pauli::Z | Pauli::I => {
                        inputs.insert(Pauli::Z);
                    }
                    Pauli::X | Pauli::Y => {
                        inputs.insert(Pauli::X);
                        inputs.insert(Pauli::Y);
                    }
                }
            }
            needed = inputs;
        }
        // Pull back through the local block: ρ_after = L ρ L†, so
        // tr[ρ_after P] = tr[ρ_before L†PL].
        if !seg.local.is_empty() {
            let mut u = Matrix::identity(2);
            for instr in &seg.local {
                u = instr.gate.matrix().mul(&u);
            }
            let mut pulled = BTreeSet::new();
            for &p in &needed {
                let v = u.dagger().mul(&p.matrix()).mul(&u);
                for q in [Pauli::X, Pauli::Y, Pauli::Z] {
                    if q.matrix().trace_product(&v).norm() > 1e-12 {
                        pulled.insert(q);
                    }
                }
            }
            needed = pulled;
            if needed.is_empty() {
                needed.insert(Pauli::Z);
            }
        }
    }
    out
}

/// Backward traceback for pairs: analogous, component-wise per qubit.
fn compute_needed_pair(
    segments: &[Segment],
    pair: [usize; 2],
    traceback: bool,
) -> Vec<Vec<(Pauli, Pauli)>> {
    let all: Vec<(Pauli, Pauli)> = {
        let mut v = Vec::new();
        for pl in Pauli::ALL {
            for ph in Pauli::ALL {
                if pl == Pauli::I && ph == Pauli::I {
                    continue;
                }
                v.push((pl, ph));
            }
        }
        v
    };
    if !traceback {
        return vec![all; segments.len()];
    }
    let diag: BTreeSet<(Pauli, Pauli)> = BTreeSet::from([
        (Pauli::Z, Pauli::I),
        (Pauli::I, Pauli::Z),
        (Pauli::Z, Pauli::Z),
    ]);
    let mut needed = diag.clone();
    let mut out = vec![Vec::new(); segments.len()];
    for (i, seg) in segments.iter().enumerate().rev() {
        out[i] = needed.iter().copied().collect();
        if seg.check_touches(&pair) {
            needed = expand_pair_inputs(&needed.iter().copied().collect::<Vec<_>>())
                .into_iter()
                .collect();
        }
        if !seg.local.is_empty() {
            let mut u = Matrix::identity(4);
            for instr in &seg.local {
                let positions: Vec<usize> = instr
                    .qubits
                    .iter()
                    .map(|q| pair.iter().position(|x| x == q).expect("local gate"))
                    .collect();
                u = embed(&instr.gate.matrix(), &positions, 2).mul(&u);
            }
            let mut pulled = BTreeSet::new();
            for &(pl, ph) in &needed {
                let p = ph.matrix().kron(&pl.matrix());
                let v = u.dagger().mul(&p).mul(&u);
                for ql in Pauli::ALL {
                    for qh in Pauli::ALL {
                        if ql == Pauli::I && qh == Pauli::I {
                            continue;
                        }
                        let op = qh.matrix().kron(&ql.matrix());
                        if op.trace_product(&v).norm() > 1e-12 {
                            pulled.insert((ql, qh));
                        }
                    }
                }
            }
            needed = pulled;
            if needed.is_empty() {
                needed = diag.clone();
            }
        }
    }
    out
}
