//! Quantum-trajectory (Monte-Carlo wave function) simulation of noisy
//! programs.
//!
//! Each trajectory evolves a pure state; after every gate the attached Kraus
//! channels are sampled (state-independently for mixed-unitary channels,
//! by Born-weighted Gram expectations otherwise). The average over
//! trajectories converges to the density-matrix result.
//!
//! Three optimizations keep the paper's larger registers (15 qubits) cheap:
//!
//! * **No-error stratification** — for models whose channels are all
//!   probabilistic mixtures of unitaries, the per-trajectory error pattern is
//!   sampled *before* touching the state. All-identity patterns contribute
//!   the (precomputed) ideal distribution without simulating.
//! * **Ideal-prefix checkpoints** — every other stratified trajectory is
//!   error-free up to its first drawn error, so it starts from the latest
//!   ideal state kept at or before that op instead of from |0…0⟩. The
//!   walk that computes the ideal distribution keeps the states, evenly
//!   spaced inside the program's reset-free prefix and bounded by
//!   `MAX_CHECKPOINTS` and `CHECKPOINT_BYTES`; the skipped ops run no
//!   RNG draw, so the result is bit-identical to a full replay.
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
use qt_math::{Complex, Matrix};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Mutex;

/// Number of independently seeded trajectory streams. A fixed count keeps
/// results machine-independent while still saturating common core counts.
const STREAMS: usize = 64;

/// Most ideal-prefix checkpoints one stratified run keeps. With first
/// errors spread evenly over the prefix, `k` evenly spaced states skip
/// `k / (k + 1)` of what one state per op would (3/4 at 3, 16/17 at 16),
/// while each further state holds another copy of the register.
const MAX_CHECKPOINTS: usize = 3;

/// Bytes of ideal-prefix checkpoint states one stratified run keeps, the
/// binding bound from 15 qubits on: 2 states at 15, 1 at 16, none above.
/// The trie's live-state budget sizes fork points whose reuse spans whole
/// subtrees; it is not the bound for these.
const CHECKPOINT_BYTES: usize = 1 << 20;

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
    /// The channel applications of every op, resolved and prepared once.
    channels: Vec<Vec<Channel<'a>>>,
    /// Every gate classified once; each of the (potentially thousands of)
    /// trajectories replays the pre-classified kernels without
    /// re-inspecting gate matrices.
    gate_classes: Vec<Option<(KernelClass, &'a [usize])>>,
    /// `Some` when error patterns are pre-sampled (no-error
    /// stratification): the ideal-prefix checkpoints, ascending in op
    /// index, all inside the reset-free prefix.
    checkpoints: Option<Vec<Checkpoint>>,
    outcomes: OutcomeKeys,
    fold: Mutex<Fold>,
}

/// An ideal-prefix checkpoint `(p, state after ops [0, p))`.
type Checkpoint = (usize, StateVector);

/// One channel application after an op, prepared once per run.
struct Channel<'a> {
    qubits: Vec<usize>,
    kraus: &'a KrausChannel,
    /// For a mixture of unitaries, each branch's kernel, `None` for the
    /// identity: a stratified draw keeps only non-identity branches and
    /// replays them without re-classifying (empty for other channels).
    branches: Vec<Option<KernelClass>>,
}

/// One non-identity branch of a drawn error pattern: the op it follows,
/// the channel among that op's [`Channel`]s, and the mixture branch.
struct DrawnError {
    op: usize,
    channel: usize,
    branch: usize,
}

/// The outcome index over `measured` of every amplitude index, split into
/// two half tables: index `i` reads `high[i >> b] | low[i & (2^b − 1)]`
/// with `b = low.len().ilog2()`. The per-trajectory marginal then makes
/// no bit tests, and the tables hold `O(2^(n/2))` entries.
struct OutcomeKeys {
    low: Vec<usize>,
    high: Vec<usize>,
}

impl OutcomeKeys {
    fn new(n_qubits: usize, measured: &[usize]) -> Self {
        let low_bits = n_qubits / 2;
        let key = |i: usize| {
            measured
                .iter()
                .enumerate()
                .fold(0, |k, (pos, &q)| k | ((i >> q) & 1) << pos)
        };
        OutcomeKeys {
            low: (0..1usize << low_bits).map(key).collect(),
            high: (0..1usize << (n_qubits - low_bits))
                .map(|h| key(h << low_bits))
                .collect(),
        }
    }

    /// Writes the marginal of `amps` over the measured qubits into `out`.
    /// Sums in amplitude order and skips zero weights, as
    /// [`crate::kernel::marginal_probabilities`] does, so the bits match.
    fn marginal(&self, amps: &[Complex], out: &mut [f64]) {
        out.fill(0.0);
        for (block, &high) in amps.chunks(self.low.len()).zip(&self.high) {
            for (a, &low) in block.iter().zip(&self.low) {
                let p = a.norm_sqr();
                if p != 0.0 {
                    out[high | low] += p;
                }
            }
        }
    }
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
    /// ideal distribution and checkpoints, and lays out the streams.
    ///
    /// # Panics
    ///
    /// Panics if `measured` exceeds [`crate::executor::MAX_MEASURED_BITS`]
    /// or `cfg` asks for no trajectories.
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
        assert!(
            cfg.n_trajectories > 0,
            "a trajectory average needs at least one trajectory: {cfg:?}"
        );
        let channels: Vec<Vec<Channel>> = program
            .ops()
            .iter()
            .map(|op| match op {
                Op::Gate(i) => noise
                    .channels_for(i)
                    .into_iter()
                    .map(|(qubits, kraus)| Channel {
                        branches: kraus
                            .mixture_unitaries()
                            .unwrap_or_default()
                            .iter()
                            .map(|u| (!is_identity_unitary(u)).then(|| KernelClass::classify(u)))
                            .collect(),
                        qubits,
                        kraus,
                    })
                    .collect(),
                Op::IdealGate(_) | Op::Reset { .. } => Vec::new(),
            })
            .collect();
        let gate_classes: Vec<_> = program
            .ops()
            .iter()
            .map(|op| match op {
                Op::Gate(i) | Op::IdealGate(i) => {
                    Some((KernelClass::for_gate(&i.gate), i.qubits.as_slice()))
                }
                Op::Reset { .. } => None,
            })
            .collect();
        let all_mixtures = channels
            .iter()
            .flatten()
            .all(|ch| ch.kraus.mixture_probs().is_some());
        // Stratification needs the noiseless outcome distribution; resets
        // are handled exactly by branching over their collapse outcomes
        // (bounded branch count), falling back to plain sampling for
        // reset-heavy programs.
        let (ideal, checkpoints) = if all_mixtures {
            ideal_walk(
                program,
                &gate_classes,
                measured,
                &checkpoint_positions(program),
            )
        } else {
            None
        }
        .unzip();
        let (streams, chunk) = stream_layout(cfg.n_trajectories);
        TrajectoryRun {
            program,
            measured,
            n_trajectories: cfg.n_trajectories,
            seed: cfg.seed,
            streams,
            chunk,
            channels,
            gate_classes,
            checkpoints,
            outcomes: OutcomeKeys::new(program.n_qubits(), measured),
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
        let mut marginal = acc.clone();
        let mut pattern = Vec::new();
        let mut n_ideal = 0u64;
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(s as u64 * 0x51ab_de37));
        for _ in lo..hi {
            if self.run_one(&mut rng, &mut pattern, &mut marginal) {
                n_ideal += 1;
            } else {
                for (a, p) in acc.iter_mut().zip(&marginal) {
                    *a += p;
                }
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

    /// Simulates one trajectory and writes its outcome marginal into
    /// `marginal`. Returns `true`, leaving `marginal` as it was, if
    /// stratification skipped the trajectory as an all-identity pattern.
    fn run_one(
        &self,
        rng: &mut StdRng,
        pattern: &mut Vec<DrawnError>,
        marginal: &mut [f64],
    ) -> bool {
        let n_ops = self.program.ops().len();
        let sv = if let Some(checkpoints) = &self.checkpoints {
            // Pre-sample the whole error pattern cheaply.
            pattern.clear();
            for (op, chans) in self.channels.iter().enumerate() {
                for (channel, ch) in chans.iter().enumerate() {
                    let probs = ch.kraus.mixture_probs().expect("stratified path");
                    let r: f64 = rng.random();
                    let mut cum = 0.0;
                    let mut branch = probs.len() - 1;
                    for (i, &p) in probs.iter().enumerate() {
                        cum += p;
                        if r < cum {
                            branch = i;
                            break;
                        }
                    }
                    if ch.branches[branch].is_some() {
                        pattern.push(DrawnError {
                            op,
                            channel,
                            branch,
                        });
                    }
                }
            }
            let Some(first) = pattern.first() else {
                return true;
            };
            // Replay from the latest checkpoint at or before the first
            // error (op 0's is |0…0⟩). The ops it skips are error-free and
            // reset-free, so they draw nothing and the checkpoint holds
            // the state their replay would reach, bit for bit.
            let kept = checkpoints.partition_point(|&(p, _)| p <= first.op);
            let (start, mut sv) = match kept.checked_sub(1).map(|k| &checkpoints[k]) {
                Some((p, state)) => (*p, state.clone()),
                None => (0, StateVector::zero(self.program.n_qubits())),
            };
            let mut errors = pattern.iter().peekable();
            for op_idx in start..n_ops {
                self.apply_op(&mut sv, op_idx, rng);
                while let Some(e) = errors.next_if(|e| e.op == op_idx) {
                    let ch = &self.channels[e.op][e.channel];
                    let class = ch.branches[e.branch]
                        .as_ref()
                        .expect("patterns keep non-identity branches");
                    sv.apply_class(class, &ch.qubits);
                }
            }
            sv
        } else {
            let mut sv = StateVector::zero(self.program.n_qubits());
            for op_idx in 0..n_ops {
                self.apply_op(&mut sv, op_idx, rng);
                for ch in &self.channels[op_idx] {
                    sample_channel(&mut sv, ch.kraus, &ch.qubits, rng);
                }
            }
            sv
        };
        self.outcomes.marginal(sv.amplitudes(), marginal);
        false
    }

    /// Applies op `op_idx` (its pre-classified gate, or a reset, which
    /// draws its collapse outcomes from `rng`), without its channels.
    fn apply_op(&self, sv: &mut StateVector, op_idx: usize, rng: &mut StdRng) {
        match (&self.program.ops()[op_idx], &self.gate_classes[op_idx]) {
            (_, Some((class, qs))) => sv.apply_class(class, qs),
            (Op::Reset { qubits, ket }, None) => sv.reset_to_ket(qubits, ket, rng),
            _ => unreachable!("gate ops always classify"),
        }
    }
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

/// Where a stratified run keeps ideal-prefix checkpoints: up to
/// [`MAX_CHECKPOINTS`] op indices, as many as [`CHECKPOINT_BYTES`]
/// affords states of the program's register, evenly spaced inside its
/// reset-free prefix. Replay draws from the RNG at resets, so no
/// checkpoint may pass the first one. Op 0 is left out: its state is
/// |0…0⟩.
fn checkpoint_positions(program: &Program) -> Vec<usize> {
    let ops = program.ops();
    let prefix = ops
        .iter()
        .position(|op| matches!(op, Op::Reset { .. }))
        .unwrap_or(ops.len());
    let state_bytes = std::mem::size_of::<Complex>() << program.n_qubits();
    let count = (CHECKPOINT_BYTES / state_bytes)
        .min(MAX_CHECKPOINTS)
        .min(prefix.saturating_sub(1));
    (1..=count).map(|k| k * prefix / (count + 1)).collect()
}

/// The exact noiseless outcome distribution of a program, branching over
/// the projective collapse outcomes of every reset, and the ideal states
/// before the ops at the ascending `positions`. The positions lie inside
/// the reset-free prefix, which only the walk's first segment passes, so
/// they are taken in order by the same `gate_classes` kernels a
/// trajectory's replay runs. Returns `None` when the branch count would
/// exceed 64 (fall back to sampling).
fn ideal_walk(
    program: &Program,
    gate_classes: &[Option<(KernelClass, &[usize])>],
    measured: &[usize],
    positions: &[usize],
) -> Option<(Vec<f64>, Vec<Checkpoint>)> {
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
    let mut checkpoints = Vec::with_capacity(positions.len());
    let mut stack: Vec<(StateVector, usize, f64)> =
        vec![(StateVector::zero(program.n_qubits()), 0, 1.0)];
    while let Some((mut sv, start, weight)) = stack.pop() {
        let mut idx = start;
        let mut branched = false;
        while idx < ops.len() {
            if positions.get(checkpoints.len()) == Some(&idx) {
                checkpoints.push((idx, sv.clone()));
            }
            match (&ops[idx], &gate_classes[idx]) {
                (_, Some((class, qs))) => sv.apply_class(class, qs),
                (Op::Reset { qubits, ket }, None) => {
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
                _ => unreachable!("gate ops always classify"),
            }
            idx += 1;
        }
        if !branched {
            for (k, p) in sv.marginal_probabilities(measured).iter().enumerate() {
                dist[k] += weight * p;
            }
        }
    }
    debug_assert_eq!(checkpoints.len(), positions.len(), "every position passed");
    Some((dist, checkpoints))
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
        let mut c = hadamard_ring(12, 0.41, 0.33);
        ring_layer(&mut c, 0.77, 0.21);
        (
            Program::from_circuit(&c),
            NoiseModel::depolarizing(0.002, 0.02),
            (0..12).collect(),
        )
    }

    /// One QAOA max-cut layer on the ring of `c`'s qubits.
    fn ring_layer(c: &mut Circuit, gamma: f64, beta: f64) {
        let n = c.n_qubits();
        for a in 0..n {
            let b = (a + 1) % n;
            c.p(a, 2.0 * gamma).p(b, 2.0 * gamma).cp(a, b, -4.0 * gamma);
        }
        for q in 0..n {
            c.rx(q, 2.0 * beta);
        }
    }

    /// Hadamards on every qubit of an `n`-ring, then one QAOA layer.
    fn hadamard_ring(n: usize, gamma: f64, beta: f64) -> Circuit {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        ring_layer(&mut c, gamma, beta);
        c
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

    /// The constant of the 12-qubit ring with a reset between its layers,
    /// recorded on the engine that replayed every trajectory from |0…0⟩.
    const PINNED_RESET: u64 = 0xdd63_f238_c6be_6615;

    #[test]
    fn ring_with_a_mid_program_reset_keeps_its_pinned_bits() {
        // Checkpoints stop at the first reset: a trajectory started past it
        // would skip the reset's collapse draw, shifting every later draw
        // of its stream.
        let (_, noise, measured) = twelve_qubit_qaoa_ring();
        let mut second = Circuit::new(12);
        ring_layer(&mut second, 0.77, 0.21);
        let mut prog = Program::from_circuit(&hadamard_ring(12, 0.41, 0.33));
        prog.push_reset_state(&[5], qt_math::states::PrepState::Plus)
            .push_circuit(&second);
        for threads in [1, 2] {
            let cfg = TrajectoryConfig {
                n_trajectories: 320,
                seed: 2024,
                n_threads: Some(threads),
            };
            let dist = run_distribution(&prog, &noise, &measured, &cfg);
            assert_eq!(bits_hash(&dist), PINNED_RESET, "{threads} threads");
        }
    }

    /// The constant of a one-layer 15-qubit ring, recorded like
    /// [`PINNED_RESET`].
    const PINNED_FIFTEEN: u64 = 0x2e8f_a979_567a_a66a;

    #[test]
    fn fifteen_qubit_ring_keeps_its_pinned_bits() {
        // At 15 qubits the byte budget affords two states.
        let prog = Program::from_circuit(&hadamard_ring(15, 0.41, 0.33));
        let noise = NoiseModel::depolarizing(0.002, 0.02);
        let measured: Vec<usize> = (0..15).collect();
        for threads in [1, 2] {
            let cfg = TrajectoryConfig {
                n_trajectories: 48,
                seed: 2024,
                n_threads: Some(threads),
            };
            let dist = run_distribution(&prog, &noise, &measured, &cfg);
            assert_eq!(bits_hash(&dist), PINNED_FIFTEEN, "{threads} threads");
        }
    }

    #[test]
    fn checkpoints_stay_within_their_byte_budget() {
        let noise = NoiseModel::depolarizing(0.002, 0.02);
        let cfg = TrajectoryConfig::with_trajectories(1);
        // The count bound holds up to 14 qubits, the byte bound above.
        for (n, want) in [(5, MAX_CHECKPOINTS), (12, MAX_CHECKPOINTS), (15, 2)] {
            let prog = Program::from_circuit(&hadamard_ring(n, 0.41, 0.33));
            let measured: Vec<usize> = (0..n).collect();
            let run = TrajectoryRun::new(&prog, &noise, &measured, &cfg);
            let checkpoints = run.checkpoints.as_ref().expect("mixture noise stratifies");
            let bytes: usize = checkpoints
                .iter()
                .map(|(_, sv)| std::mem::size_of_val(sv.amplitudes()))
                .sum();
            assert_eq!(checkpoints.len(), want, "{n} qubits");
            assert!(bytes <= CHECKPOINT_BYTES, "{n} qubits hold {bytes} bytes");
            assert!(checkpoints.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }

    #[test]
    #[should_panic(expected = "n_trajectories: 0")]
    fn a_zero_trajectory_run_is_rejected_naming_its_config() {
        let mut bell = Circuit::new(2);
        bell.h(0).cx(0, 1);
        let cfg = TrajectoryConfig {
            n_trajectories: 0,
            ..TrajectoryConfig::default()
        };
        let exec = crate::Executor::with_backend(
            NoiseModel::depolarizing(0.01, 0.02),
            crate::Backend::Trajectory(cfg),
        );
        exec.noisy_distribution(&Program::from_circuit(&bell), &[0, 1]);
    }

    #[test]
    fn a_zero_trajectory_job_fails_typed_beside_a_served_cohabitant() {
        use crate::{Backend, BatchJob, Executor, RunErrorKind, Runner};
        let exec = Executor::with_backend(
            NoiseModel::depolarizing(0.01, 0.02),
            Backend::Auto {
                dm_max_qubits: 3,
                trajectories: TrajectoryConfig {
                    n_trajectories: 0,
                    ..TrajectoryConfig::default()
                },
            },
        );
        let mut small = Circuit::new(2);
        small.h(0).cx(0, 1).ry(1, 0.3);
        let wide = hadamard_ring(5, 0.41, 0.33);
        let jobs = [
            BatchJob::new(Program::from_circuit(&small), vec![0, 1]),
            BatchJob::new(Program::from_circuit(&wide), (0..5).collect::<Vec<_>>()),
        ];
        assert_eq!(
            exec.engine_mix_of(&jobs),
            [
                ("density-matrix".to_string(), 1),
                ("trajectory".to_string(), 1)
            ]
        );
        let (results, panics) = crate::try_run_batch_isolated(&exec, &jobs);
        assert_eq!(panics, 1);
        assert!(
            matches!(&results[1], Err(e) if e.kind == RunErrorKind::Panic
                && e.detail.contains("n_trajectories: 0")),
            "the zero-trajectory job fails with a typed error, got {:?}",
            results[1]
        );
        let served = results[0].as_ref().expect("the cohabitant is served");
        let alone = &exec.run_batch(&jobs[..1])[0];
        let bits = |d: &Distribution| d.iter().map(|(i, p)| (i, p.to_bits())).collect::<Vec<_>>();
        assert_eq!(bits(&served.dist), bits(&alone.dist));
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
