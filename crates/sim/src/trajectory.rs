//! Quantum-trajectory (Monte-Carlo wave function) simulation of noisy
//! programs.
//!
//! Each trajectory evolves a pure state; after every gate the attached Kraus
//! channels are sampled (state-independently for mixed-unitary channels,
//! by Born-weighted Gram expectations otherwise). The average over
//! trajectories converges to the density-matrix result.
//!
//! Two optimizations keep the paper's larger registers (15 qubits) cheap:
//!
//! * **No-error stratification** — for models whose channels are all
//!   probabilistic mixtures of unitaries, the per-trajectory error pattern is
//!   sampled *before* touching the state. All-identity patterns contribute
//!   the (precomputed) ideal distribution without simulating.
//! * **Stream fan-out** — trajectories are embarrassingly parallel. They
//!   are dealt into a fixed number of independently seeded *streams*,
//!   folded into the total in stream order, so the result depends only on
//!   the configured seed, never on the machine's core count or the
//!   schedule. A standalone [`run_distribution`] drains the streams over
//!   scoped `std::thread` workers; inside a batch, every stream is one
//!   item of the executor's work pool, beside the other jobs' streams and
//!   the trie subtrees.

use crate::backend::{available_threads, parallel_indexed};
use crate::kernel::KernelClass;
use crate::noise::{KrausChannel, NoiseModel};
use crate::program::{Op, Program};
use crate::statevector::StateVector;
use qt_dist::Distribution;
use qt_math::Matrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Mutex;

/// Number of independently seeded trajectory streams. A fixed count keeps
/// results machine-independent while still saturating common core counts.
const STREAMS: usize = 64;

/// Configuration for the trajectory engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryConfig {
    /// Number of trajectories to average.
    pub n_trajectories: usize,
    /// RNG seed (trajectories are deterministic given the seed).
    pub seed: u64,
    /// Worker threads of a standalone [`run_distribution`] (`None` =
    /// available parallelism). Inside a batch the executor's work pool
    /// schedules the streams instead.
    pub n_threads: Option<usize>,
}

impl Default for TrajectoryConfig {
    fn default() -> Self {
        TrajectoryConfig {
            n_trajectories: 2048,
            seed: 0x9e3779b97f4a7c15,
            n_threads: None,
        }
    }
}

impl TrajectoryConfig {
    /// A configuration with the given trajectory count.
    pub fn with_trajectories(n: usize) -> Self {
        TrajectoryConfig {
            n_trajectories: n,
            ..Default::default()
        }
    }

    /// Returns a copy with a different seed.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Runs `program` under `noise` and returns the averaged outcome
/// distribution over `measured` (bit `i` of the result index = `measured[i]`),
/// *before* readout error. The streams fan out over up to `cfg.n_threads`
/// workers.
pub fn run_distribution(
    program: &Program,
    noise: &NoiseModel,
    measured: &[usize],
    cfg: &TrajectoryConfig,
) -> Distribution {
    let run = TrajectoryRun::new(program, noise, measured, cfg);
    let n_threads = cfg.n_threads.unwrap_or_else(available_threads).max(1);
    parallel_indexed(run.streams, n_threads, |s| run.run_stream(s));
    run.finish()
}

/// The stream layout of `n_trajectories` trajectories: `(streams, chunk)`,
/// stream `s` running trajectories `s·chunk .. min((s + 1)·chunk, n)`. A
/// function of the trajectory count alone, so neither the layout nor any
/// stream's seed depends on the machine or the scheduler.
pub(crate) fn stream_layout(n_trajectories: usize) -> (usize, usize) {
    let streams = STREAMS.min(n_trajectories).max(1);
    (streams, n_trajectories.div_ceil(streams))
}

/// One trajectory run, prepared once and then driven stream by stream —
/// by [`run_distribution`]'s workers, or by a batch's work pool beside
/// other jobs' streams and trie subtrees (`crate::Executor`'s
/// `run_batch`). The streams may run in any order and on any thread: each
/// seeds its own RNG from `(seed, stream)`, and a finished stream is
/// folded into the total as soon as every lower stream is folded. That is
/// the same left fold in stream order as summing all partials at the end,
/// so the result is bit-identical for any schedule, but only streams that
/// finish ahead of a lower one wait in memory.
pub(crate) struct TrajectoryRun<'a> {
    program: &'a Program,
    measured: &'a [usize],
    n_trajectories: usize,
    seed: u64,
    streams: usize,
    chunk: usize,
    /// The channel applications of every op, resolved once.
    resolved: Vec<Vec<(Vec<usize>, &'a KrausChannel)>>,
    /// Every gate classified once; each of the (potentially thousands of)
    /// trajectories replays the pre-classified kernels without
    /// re-inspecting gate matrices.
    gate_classes: Vec<Option<(KernelClass, &'a [usize])>>,
    /// Whether error patterns are pre-sampled (no-error stratification).
    stratify: bool,
    fold: Mutex<Fold>,
}

/// The in-order fold of a [`TrajectoryRun`]'s streams.
struct Fold {
    /// The lowest stream not folded yet.
    next: usize,
    /// Finished streams waiting for a lower one: `(partial, n_ideal)`.
    waiting: Vec<Option<(Vec<f64>, u64)>>,
    dist: Vec<f64>,
    /// Trajectories skipped as all-identity patterns.
    n_ideal: u64,
    /// The noiseless distribution stratification adds back for them.
    ideal: Option<Vec<f64>>,
}

impl<'a> TrajectoryRun<'a> {
    /// Resolves channels and kernel classes, computes stratification's
    /// ideal distribution and lays out the streams.
    ///
    /// # Panics
    ///
    /// Panics if `measured` exceeds [`crate::executor::MAX_MEASURED_BITS`].
    pub(crate) fn new(
        program: &'a Program,
        noise: &'a NoiseModel,
        measured: &'a [usize],
        cfg: &TrajectoryConfig,
    ) -> Self {
        // Trajectory averaging accumulates into a flat `2^|measured|`
        // buffer; wide measurement lists belong to the sparse/stabilizer
        // engines.
        assert!(
            measured.len() <= crate::executor::MAX_MEASURED_BITS,
            "trajectory readout allocates a dense outcome table: {} measured bits exceeds the \
             {}-bit cap",
            measured.len(),
            crate::executor::MAX_MEASURED_BITS
        );
        let resolved: Vec<Vec<(Vec<usize>, &KrausChannel)>> = program
            .ops()
            .iter()
            .map(|op| match op {
                Op::Gate(i) => noise.channels_for(i),
                Op::IdealGate(_) | Op::Reset { .. } => Vec::new(),
            })
            .collect();
        let gate_classes = program
            .ops()
            .iter()
            .map(|op| match op {
                Op::Gate(i) | Op::IdealGate(i) => {
                    Some((KernelClass::for_gate(&i.gate), i.qubits.as_slice()))
                }
                Op::Reset { .. } => None,
            })
            .collect();
        let all_mixtures = resolved
            .iter()
            .flatten()
            .all(|(_, ch)| ch.mixture_probs().is_some());
        // Stratification needs the noiseless outcome distribution; resets
        // are handled exactly by branching over their collapse outcomes
        // (bounded branch count), falling back to plain sampling for
        // reset-heavy programs.
        let ideal = if all_mixtures {
            ideal_reset_branches(program, measured)
        } else {
            None
        };
        let (streams, chunk) = stream_layout(cfg.n_trajectories);
        TrajectoryRun {
            program,
            measured,
            n_trajectories: cfg.n_trajectories,
            seed: cfg.seed,
            streams,
            chunk,
            resolved,
            gate_classes,
            stratify: ideal.is_some(),
            fold: Mutex::new(Fold {
                next: 0,
                waiting: vec![None; streams],
                dist: vec![0.0f64; 1 << measured.len()],
                n_ideal: 0,
                ideal,
            }),
        }
    }

    /// Runs stream `s` and folds every stream the fold can now take in
    /// order. Returns `true` when this call folded the last stream, after
    /// which [`TrajectoryRun::finish`] may run.
    pub(crate) fn run_stream(&self, s: usize) -> bool {
        let lo = s * self.chunk;
        let hi = ((s + 1) * self.chunk).min(self.n_trajectories);
        let mut acc = vec![0.0f64; 1 << self.measured.len()];
        let mut n_ideal = 0u64;
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(s as u64 * 0x51ab_de37));
        for _ in lo..hi {
            if run_one(
                self.program,
                &self.resolved,
                &self.gate_classes,
                self.measured,
                self.stratify,
                &mut acc,
                &mut rng,
            ) {
                n_ideal += 1;
            }
        }
        let mut guard = self.fold.lock().expect("no stream panics while folding");
        let f = &mut *guard;
        f.waiting[s] = Some((acc, n_ideal));
        while let Some((acc, n_ideal)) = f.waiting.get_mut(f.next).and_then(Option::take) {
            for (d, a) in f.dist.iter_mut().zip(acc) {
                *d += a;
            }
            f.n_ideal += n_ideal;
            f.next += 1;
        }
        f.next == self.streams
    }

    /// The averaged distribution: the skipped trajectories' ideal mass
    /// added back, then normalised. Takes the fold's buffers, so it runs
    /// once, after every stream has folded.
    pub(crate) fn finish(&self) -> Distribution {
        let mut guard = self.fold.lock().expect("no stream panics while folding");
        let f = &mut *guard;
        debug_assert_eq!(f.next, self.streams, "finish before every stream folded");
        let mut dist = std::mem::take(&mut f.dist);
        if let Some(ideal) = f.ideal.take() {
            for (d, &p) in dist.iter_mut().zip(&ideal) {
                *d += p * f.n_ideal as f64;
            }
        }
        let norm = 1.0 / self.n_trajectories as f64;
        for d in &mut dist {
            *d *= norm;
        }
        Distribution::try_from_probs(self.measured.len(), dist)
            .expect("trajectory average fits its measured bit count")
    }
}

/// Simulates one trajectory into `acc`. Returns `true` if the trajectory was
/// skipped as an all-identity (ideal) pattern under stratification.
fn run_one(
    program: &Program,
    resolved: &[Vec<(Vec<usize>, &KrausChannel)>],
    gate_classes: &[Option<(KernelClass, &[usize])>],
    measured: &[usize],
    stratify: bool,
    acc: &mut [f64],
    rng: &mut StdRng,
) -> bool {
    if stratify {
        // Pre-sample the whole error pattern cheaply.
        let mut pattern: Vec<(usize, usize)> = Vec::new(); // (op index, flat channel choice)
        for (op_idx, chans) in resolved.iter().enumerate() {
            for (ch_idx, (_, ch)) in chans.iter().enumerate() {
                let probs = ch.mixture_probs().expect("stratified path");
                let r: f64 = rng.random();
                let mut cum = 0.0;
                let mut pick = probs.len() - 1;
                for (i, &p) in probs.iter().enumerate() {
                    cum += p;
                    if r < cum {
                        pick = i;
                        break;
                    }
                }
                if !is_identity_unitary(&ch.mixture_unitaries().expect("mixture")[pick]) {
                    pattern.push((op_idx * 1024 + ch_idx, pick));
                }
            }
        }
        if pattern.is_empty() {
            return true;
        }
        // Replay with the pre-sampled pattern.
        let mut sv = StateVector::zero(program.n_qubits());
        let mut cursor = 0usize;
        for (op_idx, op) in program.ops().iter().enumerate() {
            match (op, &gate_classes[op_idx]) {
                (_, Some((class, qs))) => sv.apply_class(class, qs),
                (Op::Reset { qubits, ket }, None) => sv.reset_to_ket(qubits, ket, rng),
                _ => unreachable!("gate ops always classify"),
            }
            for (ch_idx, (qs, ch)) in resolved[op_idx].iter().enumerate() {
                let key = op_idx * 1024 + ch_idx;
                if cursor < pattern.len() && pattern[cursor].0 == key {
                    let u = &ch.mixture_unitaries().expect("mixture")[pattern[cursor].1];
                    sv.apply_op(u, qs);
                    cursor += 1;
                }
            }
        }
        for (i, p) in sv.marginal_probabilities(measured).iter().enumerate() {
            acc[i] += p;
        }
        return false;
    }

    let mut sv = StateVector::zero(program.n_qubits());
    for (op_idx, op) in program.ops().iter().enumerate() {
        match (op, &gate_classes[op_idx]) {
            (_, Some((class, qs))) => sv.apply_class(class, qs),
            (Op::Reset { qubits, ket }, None) => sv.reset_to_ket(qubits, ket, rng),
            _ => unreachable!("gate ops always classify"),
        }
        for (qs, ch) in &resolved[op_idx] {
            sample_channel(&mut sv, ch, qs, rng);
        }
    }
    for (i, p) in sv.marginal_probabilities(measured).iter().enumerate() {
        acc[i] += p;
    }
    false
}

/// Samples one Kraus branch of `ch` on `qs` and applies it to `sv`.
fn sample_channel(sv: &mut StateVector, ch: &KrausChannel, qs: &[usize], rng: &mut StdRng) {
    if let (Some(probs), Some(units)) = (ch.mixture_probs(), ch.mixture_unitaries()) {
        let r: f64 = rng.random();
        let mut cum = 0.0;
        for (i, &p) in probs.iter().enumerate() {
            cum += p;
            if r < cum {
                if !is_identity_unitary(&units[i]) {
                    sv.apply_op(&units[i], qs);
                }
                return;
            }
        }
        // Numerical tail: apply the last branch.
        if let Some(u) = units.last() {
            if !is_identity_unitary(u) {
                sv.apply_op(u, qs);
            }
        }
        return;
    }
    // General (state-dependent) Kraus sampling via Gram expectations.
    let r: f64 = rng.random();
    let mut cum = 0.0;
    let grams = ch.grams();
    for (i, k) in ch.ops().iter().enumerate() {
        let p = sv.expectation_local(&grams[i], qs).re.max(0.0);
        cum += p;
        if r < cum || i + 1 == ch.ops().len() {
            sv.apply_op(k, qs);
            // Renormalize.
            let norm = sv.norm_sqr().sqrt();
            if norm > 1e-12 {
                for a in sv.amplitudes_mut() {
                    *a = a.scale(1.0 / norm);
                }
            }
            return;
        }
    }
}

/// The exact noiseless outcome distribution of a program, branching over
/// the projective collapse outcomes of every reset. Returns `None` when the
/// branch count would exceed 64 (fall back to sampling).
fn ideal_reset_branches(program: &Program, measured: &[usize]) -> Option<Vec<f64>> {
    let mut branch_bound = 1usize;
    for op in program.ops() {
        if let Op::Reset { qubits, .. } = op {
            branch_bound = branch_bound.saturating_mul(1 << qubits.len());
            if branch_bound > 64 {
                return None;
            }
        }
    }
    let dim = 1usize << measured.len();
    let mut dist = vec![0.0f64; dim];
    let ops = program.ops();
    let mut stack: Vec<(StateVector, usize, f64)> =
        vec![(StateVector::zero(program.n_qubits()), 0, 1.0)];
    while let Some((mut sv, start, weight)) = stack.pop() {
        let mut idx = start;
        let mut branched = false;
        while idx < ops.len() {
            match &ops[idx] {
                Op::Gate(i) | Op::IdealGate(i) => sv.apply_instruction(i),
                Op::Reset { qubits, ket } => {
                    let probs = sv.marginal_probabilities(qubits);
                    let prep = crate::statevector::unitary_with_first_column(ket);
                    for (m, &p) in probs.iter().enumerate() {
                        if p < 1e-15 {
                            continue;
                        }
                        let mut b = sv.clone();
                        for (pos, &q) in qubits.iter().enumerate() {
                            b.collapse(q, (m >> pos) & 1);
                            if (m >> pos) & 1 == 1 {
                                b.apply_op(&qt_math::pauli::x2(), &[q]);
                            }
                        }
                        b.apply_op(&prep, qubits);
                        stack.push((b, idx + 1, weight * p));
                    }
                    branched = true;
                    break;
                }
            }
            idx += 1;
        }
        if !branched {
            for (k, p) in sv.marginal_probabilities(measured).iter().enumerate() {
                dist[k] += weight * p;
            }
        }
    }
    Some(dist)
}

fn is_identity_unitary(u: &Matrix) -> bool {
    let n = u.rows();
    for i in 0..n {
        for j in 0..n {
            let want = if i == j {
                qt_math::Complex::ONE
            } else {
                qt_math::Complex::ZERO
            };
            if !u[(i, j)].approx_eq(want, 1e-12) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::DensityMatrix;
    use qt_circuit::Circuit;

    fn compare_with_dm(circ: &Circuit, noise: &NoiseModel, measured: &[usize], tol: f64) {
        let prog = Program::from_circuit(circ);
        let cfg = TrajectoryConfig {
            n_trajectories: 20_000,
            seed: 42,
            n_threads: Some(2),
        };
        let traj = run_distribution(&prog, noise, measured, &cfg)
            .densify()
            .expect("test measurement lists are narrow");
        let mut rho = DensityMatrix::zero(circ.n_qubits());
        for instr in circ.instructions() {
            rho.apply_instruction(instr);
            for (qs, ch) in noise.channels_for(instr) {
                rho.apply_kraus(ch.ops(), &qs);
            }
        }
        let exact = rho.marginal_probabilities(measured);
        for (a, b) in traj.iter().zip(&exact) {
            assert!((a - b).abs() < tol, "trajectory {a} vs exact {b}");
        }
    }

    #[test]
    fn trajectories_match_density_matrix_depolarizing() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).ry(2, 0.9).cz(1, 2);
        let noise = NoiseModel::depolarizing(0.02, 0.08);
        compare_with_dm(&c, &noise, &[0, 1, 2], 0.02);
    }

    #[test]
    fn trajectories_match_density_matrix_thermal() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut noise = NoiseModel::ideal();
        noise.one_qubit.per_operand = vec![KrausChannel::thermal_relaxation(100.0, 80.0, 30.0)];
        noise.two_qubit.per_operand = vec![KrausChannel::thermal_relaxation(100.0, 80.0, 60.0)];
        compare_with_dm(&c, &noise, &[0, 1], 0.02);
    }

    #[test]
    fn stratification_is_exact_with_zero_noise() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let prog = Program::from_circuit(&c);
        let cfg = TrajectoryConfig {
            n_trajectories: 10,
            seed: 1,
            n_threads: Some(1),
        };
        let dist = run_distribution(&prog, &NoiseModel::ideal(), &[0, 1], &cfg);
        assert!((dist.prob(0) - 0.5).abs() < 1e-12);
        assert!((dist.prob(3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn results_are_invariant_to_thread_count() {
        // Stream-based seeding: the distribution is a function of the seed
        // alone, so any worker count reproduces it bit-for-bit.
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).ry(2, 0.7).cz(1, 2);
        let prog = Program::from_circuit(&c);
        let noise = NoiseModel::depolarizing(0.02, 0.08);
        let base = TrajectoryConfig {
            n_trajectories: 3_000,
            seed: 123,
            n_threads: Some(1),
        };
        let serial = run_distribution(&prog, &noise, &[0, 1, 2], &base);
        for threads in [2, 3, 8] {
            let cfg = TrajectoryConfig {
                n_threads: Some(threads),
                ..base
            };
            let parallel = run_distribution(&prog, &noise, &[0, 1, 2], &cfg);
            assert_eq!(serial, parallel, "{threads} threads diverged");
        }
    }

    /// FNV-1a over every `(outcome, p.to_bits())` pair: a fingerprint of a
    /// distribution's exact bits.
    fn bits_hash(dist: &Distribution) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (outcome, p) in dist.iter() {
            for byte in outcome
                .to_le_bytes()
                .into_iter()
                .chain(p.to_bits().to_le_bytes())
            {
                h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// The constant of the 12-qubit ring: the hash of summing every
    /// stream's partial in stream order after all streams finish; the
    /// in-order fold must reproduce that sum bit for bit.
    const PINNED: u64 = 0x2fa0_dff7_e913_cd7e;

    /// A two-layer QAOA max-cut ring on 12 qubits, the trajectory global of
    /// the sampled QAOA workload, with its noise and measured qubits.
    fn twelve_qubit_qaoa_ring() -> (Program, NoiseModel, Vec<usize>) {
        let n = 12;
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        for (gamma, beta) in [(0.41, 0.33), (0.77, 0.21)] {
            for a in 0..n {
                let b = (a + 1) % n;
                c.p(a, 2.0 * gamma).p(b, 2.0 * gamma).cp(a, b, -4.0 * gamma);
            }
            for q in 0..n {
                c.rx(q, 2.0 * beta);
            }
        }
        let measured = (0..n).collect();
        (
            Program::from_circuit(&c),
            NoiseModel::depolarizing(0.002, 0.02),
            measured,
        )
    }

    #[test]
    fn twelve_qubit_qaoa_ring_bits_are_pinned_for_any_thread_count() {
        let (prog, noise, measured) = twelve_qubit_qaoa_ring();
        for threads in [1, 2, 3] {
            let cfg = TrajectoryConfig {
                n_trajectories: 320,
                seed: 2024,
                n_threads: Some(threads),
            };
            let dist = run_distribution(&prog, &noise, &measured, &cfg);
            assert_eq!(bits_hash(&dist), PINNED, "{threads} threads");
        }
    }

    #[test]
    fn prepared_run_streams_in_reverse_order_keep_the_pinned_bits() {
        // The batch pool may run a job's streams in any order: every
        // stream but the lowest waits for the fold, and the last call
        // completes it.
        let (prog, noise, measured) = twelve_qubit_qaoa_ring();
        let cfg = TrajectoryConfig {
            n_trajectories: 320,
            seed: 2024,
            n_threads: None,
        };
        let run = TrajectoryRun::new(&prog, &noise, &measured, &cfg);
        let completed: Vec<bool> = (0..run.streams).rev().map(|s| run.run_stream(s)).collect();
        assert_eq!(completed.iter().filter(|&&c| c).count(), 1);
        assert_eq!(completed.last(), Some(&true), "stream 0 completes the fold");
        assert_eq!(bits_hash(&run.finish()), PINNED);
    }

    #[test]
    fn resets_average_correctly() {
        // Bell state, then reset qubit 0 to |0⟩: qubit 1 stays mixed.
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let mut prog = Program::from_circuit(&c);
        prog.push_reset_state(&[0], qt_math::states::PrepState::Zero);
        let cfg = TrajectoryConfig {
            n_trajectories: 20_000,
            seed: 5,
            n_threads: Some(2),
        };
        let dist = run_distribution(&prog, &NoiseModel::ideal(), &[0, 1], &cfg);
        // q0 = 0 always; q1 uniform.
        assert!((dist.prob(0) - 0.5).abs() < 0.02);
        assert!((dist.prob(2) - 0.5).abs() < 0.02);
        assert!(dist.prob(1).abs() < 1e-12 && dist.prob(3).abs() < 1e-12);
    }
}
