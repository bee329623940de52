//! The density matrix's one-pass tile kernel against the three-sweep
//! oracle, bit for bit.
//!
//! The oracle is the sequence the engine ran before the tile pass: a gate
//! as its class on the row bits, then the conjugate class on the column
//! bits, each a whole-register sweep of the state-vector kernels over the
//! vectorized `4^n` array (index `row | col << n`); then each attached
//! channel as a whole-register sweep of its own — the depolarizing twirl
//! loop, or the Kraus sum (one term in place, several accumulated from zero
//! in Kraus order). Every entry of the result is compared with `to_bits`.

use proptest::prelude::*;
use qt_circuit::{Gate, Instruction};
use qt_math::{Complex, Matrix};
use qt_sim::kernel::{apply_classified, KernelClass};
use qt_sim::noise::ChannelKind;
use qt_sim::{DensityMatrix, KrausChannel, NoiseModel, NoiseRule};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Inserts zero bits at the (ascending) positions `sorted`.
fn expand_index(mut i: usize, sorted: &[usize]) -> usize {
    for &q in sorted {
        let low = i & ((1usize << q) - 1);
        i = ((i >> q) << (q + 1)) | low;
    }
    i
}

/// `offsets[l]` sets local index `l`'s bits at the positions `qs + shift`.
fn local_offsets(qs: &[usize], shift: usize) -> Vec<usize> {
    (0..1usize << qs.len())
        .map(|l| {
            qs.iter()
                .enumerate()
                .filter(|&(pos, _)| (l >> pos) & 1 == 1)
                .map(|(_, &q)| 1usize << (q + shift))
                .sum()
        })
        .collect()
}

/// Oracle: `class` on the row bits, then its conjugate on the column bits.
fn oracle_two_sided(amps: &mut [Complex], n: usize, class: &KernelClass, qs: &[usize]) {
    let cols: Vec<usize> = qs.iter().map(|&q| q + n).collect();
    apply_classified(amps, 2 * n, class, qs);
    apply_classified(amps, 2 * n, &class.conj(), &cols);
}

/// Oracle: the whole-register depolarizing twirl loop.
fn oracle_depolarizing(amps: &mut [Complex], n: usize, qs: &[usize], p: f64) {
    if p <= 0.0 {
        return;
    }
    let k = qs.len();
    let dim_local = 1usize << k;
    let lambda = (dim_local * dim_local) as f64 * p / ((dim_local * dim_local - 1) as f64);
    let keep = 1.0 - lambda;
    let mix = lambda / dim_local as f64;
    let mut all: Vec<usize> = qs.iter().flat_map(|&q| [q, q + n]).collect();
    all.sort_unstable();
    let (rows, cols) = (local_offsets(qs, 0), local_offsets(qs, n));
    for o in 0..amps.len() >> (2 * k) {
        let base = expand_index(o, &all);
        let mut t = Complex::ZERO;
        for (ro, co) in rows.iter().zip(&cols) {
            t += amps[base | ro | co];
        }
        let tmix = t.scale(mix);
        for (xr, ro) in rows.iter().enumerate() {
            for (xc, co) in cols.iter().enumerate() {
                let idx = base | ro | co;
                let mut v = amps[idx].scale(keep);
                if xr == xc {
                    v += tmix;
                }
                amps[idx] = v;
            }
        }
    }
}

/// Oracle: `Σᵢ Kᵢ ρ Kᵢ†` — one term in place, several summed from zero over
/// whole-register copies.
fn oracle_kraus(amps: &mut Vec<Complex>, n: usize, kraus: &[Matrix], qs: &[usize]) {
    let classes: Vec<KernelClass> = kraus.iter().map(KernelClass::classify).collect();
    if let [class] = classes.as_slice() {
        oracle_two_sided(amps, n, class, qs);
        return;
    }
    let mut acc = vec![Complex::ZERO; amps.len()];
    for class in &classes {
        let mut term = amps.clone();
        oracle_two_sided(&mut term, n, class, qs);
        for (a, t) in acc.iter_mut().zip(&term) {
            *a += *t;
        }
    }
    *amps = acc;
}

fn oracle_channel(amps: &mut Vec<Complex>, n: usize, channel: &KrausChannel, qs: &[usize]) {
    match channel.kind() {
        ChannelKind::Depolarizing { p } => oracle_depolarizing(amps, n, qs, p),
        ChannelKind::General => oracle_kraus(amps, n, channel.ops(), qs),
    }
}

/// Oracle: the gate's two sweeps, then one sweep per attached channel.
fn oracle_noisy(amps: &mut Vec<Complex>, n: usize, instr: &Instruction, noise: &NoiseModel) {
    oracle_two_sided(amps, n, &KernelClass::for_gate(&instr.gate), &instr.qubits);
    for (qs, ch) in noise.channels_for(instr) {
        oracle_channel(amps, n, ch, &qs);
    }
}

fn dm(n: usize, amps: &[Complex]) -> DensityMatrix {
    let dim = 1usize << n;
    let mut m = Matrix::zeros(dim, dim);
    for r in 0..dim {
        for c in 0..dim {
            m[(r, c)] = amps[r | (c << n)];
        }
    }
    DensityMatrix::from_matrix(&m)
}

fn assert_bits(rho: &DensityMatrix, oracle: &[Complex], what: &str) -> TestCaseResult {
    let n = rho.n_qubits();
    let m = rho.to_matrix();
    for r in 0..1usize << n {
        for c in 0..1usize << n {
            let (a, b) = (m[(r, c)], oracle[r | (c << n)]);
            prop_assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "{what}: entry ({r}, {c}) is {a:?}, the oracle has {b:?}"
            );
        }
    }
    Ok(())
}

fn uniform(rng: &mut StdRng) -> f64 {
    rng.random::<f64>() * 2.0 - 1.0
}

/// A random (non-Hermitian) array with some exact and negative zeros, so
/// sign-of-zero differences between paths would show.
fn random_amps(n: usize, rng: &mut StdRng) -> Vec<Complex> {
    (0..1usize << (2 * n))
        .map(|_| match rng.random::<u32>() % 8 {
            0 => Complex::ZERO,
            1 => Complex::new(-0.0, -0.0),
            _ => Complex::new(uniform(rng), uniform(rng)),
        })
        .collect()
}

fn random_matrix(dim: usize, rng: &mut StdRng) -> Matrix {
    let mut m = Matrix::zeros(dim, dim);
    for r in 0..dim {
        for c in 0..dim {
            m[(r, c)] = Complex::new(uniform(rng), uniform(rng));
        }
    }
    m
}

/// `k` distinct operands of an `n`-qubit register, in random order.
fn operands(n: usize, k: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    (0..k)
        .map(|_| pool.swap_remove(rng.random::<usize>() % pool.len()))
        .collect()
}

/// A gate of every class `KernelClass::for_gate` yields, with its arity.
fn random_gate(n: usize, rng: &mut StdRng) -> Gate {
    let t = uniform(rng) * 3.2;
    let one = [
        Gate::H,
        Gate::X,
        Gate::Y,
        Gate::Z,
        Gate::S,
        Gate::Sdg,
        Gate::T,
        Gate::Tdg,
        Gate::Sx,
        Gate::Rx(t),
        Gate::Ry(t),
        Gate::Rz(t),
        Gate::Phase(t),
        Gate::Rz(0.0),
        Gate::U(t, 0.3 * t, -0.7),
    ];
    let two = [
        Gate::Cx,
        Gate::Cy,
        Gate::Cz,
        Gate::Swap,
        Gate::Cp(t),
        Gate::Crz(t),
        Gate::Crx(t),
        Gate::Cry(t),
    ];
    match (n, rng.random::<u32>() % 3) {
        (3.., 0) => Gate::Ccp(t),
        (2.., 1) => two[rng.random::<usize>() % two.len()].clone(),
        _ => one[rng.random::<usize>() % one.len()].clone(),
    }
}

/// A random channel on `k` qubits: depolarizing (sometimes `p = 0`), or a
/// one-term or multi-term Kraus channel.
fn random_channel(k: usize, rng: &mut StdRng) -> KrausChannel {
    let p = if rng.random::<bool>() {
        0.0
    } else {
        0.2 * rng.random::<f64>()
    };
    match rng.random::<u32>() % 4 {
        0 | 1 => KrausChannel::depolarizing(k, p),
        2 if k == 1 => KrausChannel::thermal_relaxation(90.0, 70.0, 40.0 * rng.random::<f64>()),
        2 => {
            // Two Pauli terms, summed like any general channel.
            let pauli = qt_math::pauli::z2().kron(&qt_math::pauli::x2());
            KrausChannel::new(vec![
                Matrix::identity(4).scale(Complex::real((1.0 - p).sqrt())),
                pauli.scale(Complex::real(p.sqrt())),
            ])
        }
        _ => {
            // One term: a unitary, which is complete on its own.
            let u = if k == 1 {
                Gate::Ry(uniform(rng))
            } else {
                Gate::Crx(uniform(rng))
            };
            KrausChannel::new(vec![u.matrix()])
        }
    }
}

/// A noise model whose rules each carry a random channel set: full
/// channels matching the rule's arity and per-operand one-qubit channels.
fn random_noise(rng: &mut StdRng) -> NoiseModel {
    let mut rule = |k: usize| {
        let mut full = Vec::new();
        let mut per_operand = Vec::new();
        for _ in 0..rng.random::<usize>() % 3 {
            full.push(random_channel(k, rng));
        }
        for _ in 0..rng.random::<usize>() % 3 {
            per_operand.push(random_channel(1, rng));
        }
        NoiseRule { full, per_operand }
    };
    NoiseModel {
        one_qubit: rule(1),
        two_qubit: rule(2),
        ..NoiseModel::ideal()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// A noisy gate in one tile pass equals its two sweeps plus one sweep
    /// per channel, for every gate class, operand order and register size
    /// 1–6: no channel, depolarizing (`p = 0` included), one-term and
    /// multi-term Kraus channels, per-operand channels on two- and
    /// three-qubit gates.
    #[test]
    fn noisy_gates_match_the_three_sweep_oracle(n in 1usize..7, seed in 0u64..1u64 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let gate = random_gate(n, &mut rng);
        let instr = Instruction::new(gate.clone(), operands(n, gate.n_qubits(), &mut rng));
        let noise = random_noise(&mut rng);
        let amps = random_amps(n, &mut rng);
        let what = format!("{} on {:?} of {n}", gate.name(), instr.qubits);

        let mut oracle = amps.clone();
        oracle_noisy(&mut oracle, n, &instr, &noise);
        let mut rho = dm(n, &amps);
        rho.apply_noisy_instruction(&instr, &noise);
        assert_bits(&rho, &oracle, &format!("noisy {what}"))?;

        let mut oracle = amps.clone();
        oracle_two_sided(&mut oracle, n, &KernelClass::for_gate(&gate), &instr.qubits);
        let mut rho = dm(n, &amps);
        rho.apply_instruction(&instr);
        assert_bits(&rho, &oracle, &format!("ideal {what}"))?;
    }

    /// Channels on their own — `apply_channel`, `apply_depolarizing` and
    /// `apply_kraus` — and `classify` of random dense matrices (dense 2×2,
    /// uncontrolled 4×4 and the `General` 8×8 class) as one-term and
    /// multi-term Kraus channels.
    #[test]
    fn channels_and_dense_classes_match_the_oracle(n in 1usize..7, seed in 0u64..1u64 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = 1 + rng.random::<usize>() % n.min(3);
        let qs = operands(n, k, &mut rng);
        let amps = random_amps(n, &mut rng);

        if k <= 2 {
            let channel = random_channel(k, &mut rng);
            let mut oracle = amps.clone();
            oracle_channel(&mut oracle, n, &channel, &qs);
            let mut rho = dm(n, &amps);
            rho.apply_channel(&channel, &qs);
            assert_bits(&rho, &oracle, &format!("channel on {qs:?} of {n}"))?;
        }

        let p = if rng.random::<bool>() { 0.0 } else { 0.3 * rng.random::<f64>() };
        let mut oracle = amps.clone();
        oracle_depolarizing(&mut oracle, n, &qs, p);
        let mut rho = dm(n, &amps);
        rho.apply_depolarizing(&qs, p);
        assert_bits(&rho, &oracle, &format!("depolarizing({p}) on {qs:?} of {n}"))?;

        let terms = 1 + rng.random::<usize>() % 3;
        let kraus: Vec<Matrix> = (0..terms).map(|_| random_matrix(1 << k, &mut rng)).collect();
        let expected = if k == 3 { "General" } else { "dense" };
        let class = KernelClass::classify(&kraus[0]);
        prop_assert!(
            matches!(
                (k, &class),
                (1, KernelClass::SingleQubitDense { .. })
                    | (2, KernelClass::TwoQubitDense { control: None, .. })
                    | (3, KernelClass::General(_))
            ),
            "a random {k}-qubit matrix is {expected}, not {class:?}"
        );
        let mut oracle = amps.clone();
        oracle_kraus(&mut oracle, n, &kraus, &qs);
        let mut rho = dm(n, &amps);
        rho.apply_kraus(&kraus, &qs);
        assert_bits(&rho, &oracle, &format!("{terms}-term Kraus on {qs:?} of {n}"))?;
    }
}
