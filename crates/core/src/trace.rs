//! Per-subset state tracing: the heart of the QuTracer framework.
//!
//! For each traced subset of `k ∈ {1, 2}` qubits, the circuit is segmented
//! into alternating *local* blocks (subset-only gates, simulated classically
//! — *localized gate simulation*) and *check segments* (operations commuting
//! with Z on the subset). One walk, `trace_with_port`, then carries the
//! subset's density matrix through the circuit for either size:
//!
//! * local blocks update it exactly (and noiselessly) on the classical side;
//! * at each cut the *off-diagonal* components are (re)estimated by direct
//!   measurement of the true subset marginal (the paper's "measure the
//!   state at (1,3)" step, Sec. V-C) — the Z-diagonal, which a Z-commuting
//!   segment preserves exactly, carries the **mitigated** information across
//!   layers;
//! * checked segments update the state with the output of one QSPC check
//!   over the group `{I, Z}^⊗k` ([`qt_pcs::QspcSpec`]);
//! * unchecked segments (outside the checked window of Fig. 9) simply mark
//!   the tracked state stale, so the next cut re-measures it.
//!
//! *State traceback* restricts which Pauli components are estimated at each
//! cut to exactly the ones the terminal Z measurement can depend on,
//! pulled backwards through the local blocks.
//!
//! Two rules depend on the subset size. A single qubit re-measures
//! every stale component after an unchecked segment, where a pair measures
//! only what its check consumes. And a single qubit clips its Bloch vector
//! to the unit ball before the eigenvalue repair both sizes share, while
//! its final local clamps `p0` to `[0, 1]` where a pair clips its diagonal
//! at zero.
//!
//! # Execution ports
//!
//! The programs a walk requests are a *static* function of the circuit
//! analysis — measurement results feed only the classical combination, never
//! the choice of what to run next. The walk is therefore written against a
//! `TracePort` with three interchangeable backends:
//!
//! * `LivePort` submits each request to a [`Runner`] immediately (the
//!   classic serial behaviour of [`trace_single`]/[`trace_pair`], two thin
//!   wrappers of the walk);
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
    combine_mitigated, parity_expectations, pauli_operator, project_to_physical, subset_paulis,
    tabulate, QspcSpec, QspcStats, SubsetPauli,
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
    /// Use the reduced 4-state preparation basis. `false` selects the
    /// six-state basis, which only single qubits support:
    /// [`crate::QuTracer::plan`] rejects it for pairs with
    /// [`crate::PlanError::FullPrepsForPairs`].
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
    trace_live(runner, circuit, &[qubit], config)
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
    trace_live(runner, circuit, &pair, config)
}

/// The walk of `subset` on a [`LivePort`].
fn trace_live<R: Runner>(
    runner: &R,
    circuit: &Circuit,
    subset: &[usize],
    config: &TraceConfig,
) -> Result<TraceOutcome, UnsupportedCoupling> {
    match trace_with_port(&mut LivePort { runner }, circuit, subset, config) {
        Ok(o) => Ok(o),
        Err(TraceError::Coupling(e)) => Err(e),
        Err(TraceError::Exec(_)) => unreachable!("live port is infallible"),
    }
}

// ---------------------------------------------------------------------
// The ported walk.
// ---------------------------------------------------------------------

/// Walks `subset` (one or two qubits; `subset[0]` is bit 0 of local
/// indices) through `circuit`, sending every program request to `port`.
pub(crate) fn trace_with_port(
    port: &mut dyn TracePort,
    circuit: &Circuit,
    subset: &[usize],
    config: &TraceConfig,
) -> Result<TraceOutcome, TraceError> {
    let k = subset.len();
    let segments = split_into_segments(circuit, subset)?;
    let n = circuit.n_qubits();
    let checked = checked_set(&segments, subset, config.checked_layers);
    let needed_at = compute_needed(&segments, subset, config.state_traceback);

    let zero = PrepState::Zero.projector();
    let mut rho = if k == 1 { zero } else { zero.kron(&zero) };
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
        rho = apply_local_block(&rho, &seg.local, subset);
        for instr in &seg.local {
            prefix.push(instr.gate.clone(), instr.qubits.clone());
        }
        if !seg.check_touches(subset) {
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
        let downstream = &needed_at[i];

        // ---- refresh the input state where it went stale ----
        // A single qubit re-measures every stale component; a pair only
        // those its check consumes for the downstream outputs.
        let inputs = if k == 1 {
            subset_paulis(1)
        } else {
            expand_inputs(k, downstream)
        };
        let stale: Vec<SubsetPauli> = inputs
            .into_iter()
            .filter(|&p| {
                if is_diagonal(p) {
                    !diag_valid
                } else {
                    !offdiag_valid
                }
            })
            .collect();
        if !stale.is_empty() {
            let measured = measure_marginal(port, &prefix, subset, &stale, config, &mut stats, i)?;
            rho = overwrite_components(&rho, k, &measured);
        }

        // ---- mitigated update through the checked segment ----
        // While the cut state is provably product, severing is exact and the
        // full mitigated state (incl. off-diagonals) is requested from QSPC
        // — the paper's QPE/BV regime. At entangled cuts only the
        // severing-immune diagonal is mitigated; off-diagonals come from a
        // true-marginal measurement at the post-check cut.
        let outputs = if offdiag_exact {
            downstream.clone()
        } else {
            diagonal_paulis(k)
        };
        let mut segment = Circuit::new(n);
        for instr in &seg.check {
            segment.push(instr.gate.clone(), instr.qubits.clone());
        }
        checks_applied += 1;
        let qspc_config = config.qspc();
        let spec = QspcSpec {
            qubits: subset,
            prefix: &prefix,
            segment: &segment,
            config: qspc_config,
        };
        let ens = spec.ensemble(&spec.settings(&outputs));
        let pair = k == 2;
        let tags = ens
            .keys
            .iter()
            .map(|key| JobTag {
                subset: subset.to_vec(),
                segment: Some(i),
                kind: JobKind::Ensemble {
                    prep_low: key.preps[0],
                    prep_high: pair.then_some(key.preps[1]),
                    basis_low: key.bases[0],
                    basis_high: pair.then_some(key.bases[1]),
                },
            })
            .collect();
        let outs = port.submit(ens.jobs, tags)?;
        let (table, st) = tabulate(&ens.keys, &outs);
        stats = add_stats(stats, st);
        let (exps, _den) = combine_mitigated(&qspc_config, &rho, &outputs, &table);
        rho = state_from_components(k, exps);
        for instr in &seg.check {
            prefix.push(instr.gate.clone(), instr.qubits.clone());
        }
        if !offdiag_exact {
            // True-marginal off-diagonals at the post-check cut, if any
            // downstream consumer needs them.
            let need_off: Vec<SubsetPauli> = downstream
                .iter()
                .copied()
                .filter(|&p| !is_diagonal(p))
                .collect();
            if !need_off.is_empty() {
                let measured =
                    measure_marginal(port, &prefix, subset, &need_off, config, &mut stats, i)?;
                rho = overwrite_components(&rho, k, &measured);
            }
        }
        offdiag_exact = false;
        diag_valid = true;
        offdiag_valid = true;
    }

    if !diag_valid {
        // Trailing unchecked segments: fall back to the plain subset
        // measurement of the full circuit (Jigsaw-style local).
        let job = BatchJob::new(Program::from_circuit(circuit), subset.to_vec());
        let tag = JobTag {
            subset: subset.to_vec(),
            segment: None,
            kind: JobKind::Fallback,
        };
        let out = port.submit(vec![job], vec![tag])?.remove(0);
        stats.absorb(&out);
        return Ok(TraceOutcome {
            local: out.dist.normalized(),
            rho,
            stats,
            checks_applied,
        });
    }

    // A single qubit clamps `p0` to [0, 1]; a pair clips its diagonal at 0.
    let probs = if k == 1 {
        let p0 = rho[(0, 0)].re.clamp(0.0, 1.0);
        vec![p0, 1.0 - p0]
    } else {
        (0..4).map(|b| rho[(b, b)].re.max(0.0)).collect()
    };
    Ok(TraceOutcome {
        local: Distribution::try_from_probs(k, probs)
            .expect("a local distribution over the subset")
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

/// The unitary of a subset-local block of instructions.
fn local_unitary(instrs: &[Instruction], subset: &[usize]) -> Matrix {
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
    u
}

/// Applies a subset-local block of instructions to the subset state.
fn apply_local_block(rho: &Matrix, instrs: &[Instruction], subset: &[usize]) -> Matrix {
    if instrs.is_empty() {
        return rho.clone();
    }
    let u = local_unitary(instrs, subset);
    u.mul(rho).mul(&u.dagger())
}

/// The diagonal non-identity Paulis on `k` qubits — `Z` on every non-empty
/// set of slots, slot 0 alone first.
fn diagonal_paulis(k: usize) -> Vec<SubsetPauli> {
    (1..1usize << k)
        .map(|mask| {
            [0, 1].map(|slot| {
                if mask >> slot & 1 == 1 {
                    Pauli::Z
                } else {
                    Pauli::I
                }
            })
        })
        .collect()
}

/// Whether `p` is diagonal in the computational basis (only `I` and `Z`).
fn is_diagonal(p: SubsetPauli) -> bool {
    p.iter().all(|&s| s == Pauli::I || s == Pauli::Z)
}

/// The physical state `(I + Σ v_P·P) / 2^k` of the given Pauli components
/// (absent ones read 0), repaired by `project_to_physical`.
fn state_from_components(
    k: usize,
    components: impl IntoIterator<Item = (SubsetPauli, f64)>,
) -> Matrix {
    let dim = (1usize << k) as f64;
    let mut m = Matrix::identity(1 << k).scale(Complex::real(1.0 / dim));
    for (p, v) in components {
        m = m.add(&pauli_operator(k, p).scale(Complex::real(v / dim)));
    }
    project_to_physical(&m)
}

/// Overwrites Pauli components of the subset state with measured values
/// and repairs the result: a single qubit clips its Bloch vector to the
/// unit ball, then both sizes project to a physical state.
fn overwrite_components(rho: &Matrix, k: usize, measured: &BTreeMap<SubsetPauli, f64>) -> Matrix {
    let mut components: Vec<(SubsetPauli, f64)> = subset_paulis(k)
        .into_iter()
        .map(|p| {
            let v = match measured.get(&p) {
                Some(&v) => v,
                None => pauli_operator(k, p).trace_product(rho).re,
            };
            (p, v)
        })
        .collect();
    if k == 1 {
        let norm = components.iter().map(|(_, v)| v * v).sum::<f64>().sqrt();
        if norm > 1.0 {
            for (_, v) in &mut components {
                *v /= norm;
            }
        }
    }
    state_from_components(k, components)
}

/// Measures the unmitigated true marginal of the subset at the current cut
/// (run the prefix, rotate, read) for each requested Pauli component, one
/// job per basis setting; `I` slots ride along with a `Z` basis.
#[allow(clippy::too_many_arguments)]
fn measure_marginal(
    port: &mut dyn TracePort,
    prefix: &Circuit,
    subset: &[usize],
    components: &[SubsetPauli],
    config: &TraceConfig,
    stats: &mut QspcStats,
    segment: usize,
) -> Result<BTreeMap<SubsetPauli, f64>, ExecError> {
    let k = subset.len();
    let mut settings: Vec<SubsetPauli> = Vec::new();
    for &p in components {
        let mut bases = p;
        for b in &mut bases[..k] {
            if *b == Pauli::I {
                *b = Pauli::Z;
            }
        }
        if !settings.contains(&bases) {
            settings.push(bases);
        }
    }
    // One reduced circuit per basis setting, executed as a single batch.
    let jobs: Vec<BatchJob> = settings
        .iter()
        .map(|bases| {
            let mut c = Circuit::new(prefix.n_qubits());
            c.append(prefix);
            for (&q, &b) in subset.iter().zip(bases) {
                for i in basis::measure_rotation(b, q) {
                    c.push_instruction(i);
                }
            }
            let reduced = if config.optimize_circuits {
                passes::reduce_for_z_measurement(&c, subset).circuit
            } else {
                c
            };
            BatchJob::new(Program::from_circuit(&reduced), subset.to_vec())
        })
        .collect();
    let tags: Vec<JobTag> = settings
        .iter()
        .map(|bases| JobTag {
            subset: subset.to_vec(),
            segment: Some(segment),
            kind: JobKind::CutMarginal {
                basis_low: bases[0],
                basis_high: (k == 2).then_some(bases[1]),
            },
        })
        .collect();
    let mut read = BTreeMap::new();
    for (&bases, run) in settings.iter().zip(port.submit(jobs, tags)?) {
        stats.absorb(&run);
        read.extend(parity_expectations(bases, &run));
    }
    // Return only the requested components.
    Ok(components
        .iter()
        .filter_map(|p| read.get(p).map(|&v| (*p, v)))
        .collect())
}

/// The input components a check consumes for the given outputs (per-slot
/// expansion: `Z → {Z, I}`, `X/Y → {X, Y}`, plus the diagonal components
/// the denominator needs), in ascending order.
fn expand_inputs(k: usize, outputs: &[SubsetPauli]) -> Vec<SubsetPauli> {
    let expand = |p: Pauli| -> &'static [Pauli] {
        match p {
            Pauli::I => &[Pauli::I],
            Pauli::Z => &[Pauli::Z, Pauli::I],
            Pauli::X | Pauli::Y => &[Pauli::X, Pauli::Y],
        }
    };
    let mut set: BTreeSet<SubsetPauli> = diagonal_paulis(k).into_iter().collect();
    for &[p0, p1] in outputs {
        for &e0 in expand(p0) {
            for &e1 in expand(p1) {
                if [e0, e1] != [Pauli::I; 2] {
                    set.insert([e0, e1]);
                }
            }
        }
    }
    set.into_iter().collect()
}

/// Backward traceback: the output components needed per segment — those
/// the final Z measurement can depend on, pulled back through the
/// downstream local blocks (every component when traceback is off).
fn compute_needed(
    segments: &[Segment],
    subset: &[usize],
    traceback: bool,
) -> Vec<Vec<SubsetPauli>> {
    let k = subset.len();
    if !traceback {
        return vec![subset_paulis(k); segments.len()];
    }
    let diag: BTreeSet<SubsetPauli> = diagonal_paulis(k).into_iter().collect();
    let mut needed = diag.clone();
    let mut out = vec![Vec::new(); segments.len()];
    for (i, seg) in segments.iter().enumerate().rev() {
        out[i] = needed.iter().copied().collect();
        if seg.check_touches(subset) {
            needed = expand_inputs(k, &out[i]).into_iter().collect();
        }
        // Pull back through the local block: ρ_after = L ρ L†, so
        // tr[ρ_after P] = tr[ρ_before L†PL].
        if !seg.local.is_empty() {
            let u = local_unitary(&seg.local, subset);
            let mut pulled = BTreeSet::new();
            for &p in &needed {
                let v = u.dagger().mul(&pauli_operator(k, p)).mul(&u);
                pulled.extend(
                    subset_paulis(k)
                        .into_iter()
                        .filter(|&q| pauli_operator(k, q).trace_product(&v).norm() > 1e-12),
                );
            }
            needed = if pulled.is_empty() {
                diag.clone()
            } else {
                pulled
            };
        }
    }
    out
}
