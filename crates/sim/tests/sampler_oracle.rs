//! The finite-shot sampler must reproduce the binary-search reference
//! ([`legacy_sample`], inlined below) **bit for bit**: same `Counts` for
//! every distribution, shot count, seed and worker count — across both
//! `Mass` storage arms, degenerate masses (zero, subnormal, negative,
//! overflowing) and the stream-layout boundary at 2^14 shots. The batch
//! fan-out helpers must agree with a serial per-job loop.

use proptest::prelude::*;
use qt_dist::{Counts, Distribution};
use qt_sim::{
    backend, job_sample_seed, sample_batch, sample_counts_deterministic, try_sample_batch,
    RunError, RunErrorKind, RunOutput, SampledOutput, ShotPlan,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// The pre-guide-table sampler, preserved verbatim (streams run serially —
/// its result never depended on the worker count): per stream, each draw
/// binary-searches the cumulative table and lands in a `BTreeMap`.
fn legacy_sample(dist: &Distribution, shots: usize, seed: u64) -> Counts {
    let mut cdf: Vec<(u64, f64)> = Vec::with_capacity(dist.support_len());
    let mut acc = 0.0;
    for (idx, p) in dist.iter() {
        acc += p.max(0.0);
        cdf.push((idx, acc));
    }
    let total = acc;
    let streams = if shots >= 1 << 14 { 8 } else { 1 };
    let chunk = shots.div_ceil(streams);
    let mut merged: BTreeMap<u64, u64> = BTreeMap::new();
    for s in 0..streams {
        let lo = s * chunk;
        let hi = ((s + 1) * chunk).min(shots);
        let mut rng = StdRng::seed_from_u64(
            seed.wrapping_add((s as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        );
        if total > 0.0 {
            for _ in lo..hi {
                let r = rng.random::<f64>() * total;
                let k = cdf.partition_point(|&(_, c)| c <= r).min(cdf.len() - 1);
                *merged.entry(cdf[k].0).or_insert(0) += 1;
            }
        }
    }
    Counts::try_from_entries(dist.n_bits(), merged.into_iter().collect()).unwrap()
}

const SHOTS: [usize; 5] = [0, 1, 16_383, 16_384, 100_000];
const THREADS: [usize; 3] = [1, 2, 8];
/// `Mass` arms: threshold 0.0 forces the dense table, 2.0 the sparse map.
const ARMS: [f64; 2] = [0.0, 2.0];

/// How a generated distribution's masses are drawn.
#[derive(Debug, Clone, Copy)]
enum MassKind {
    Positive,
    /// Zeros, subnormals, negatives and ordinary masses mixed.
    Degenerate,
    /// One outcome carries nearly everything.
    Dominant,
    Subnormal,
    /// Large enough that the running total overflows to infinity.
    Overflowing,
    /// No positive mass at all: the sampler must record nothing.
    NonPositive,
}

const KINDS: [MassKind; 6] = [
    MassKind::Positive,
    MassKind::Degenerate,
    MassKind::Dominant,
    MassKind::Subnormal,
    MassKind::Overflowing,
    MassKind::NonPositive,
];

fn mass(kind: MassKind, slot: usize, rng: &mut StdRng) -> f64 {
    let x: f64 = rng.random();
    let tiny = f64::from_bits(1 + rng.random::<u64>() % (1 << 20));
    match kind {
        MassKind::Positive => x + 1e-3,
        MassKind::Degenerate => match rng.random::<u64>() % 4 {
            0 => 0.0,
            1 => tiny,
            2 => -x,
            _ => x,
        },
        MassKind::Dominant if slot == 0 => 1.0,
        MassKind::Dominant => 1e-12 * x,
        MassKind::Subnormal => tiny,
        MassKind::Overflowing => 1e308 * (1.0 + x),
        MassKind::NonPositive => -x,
    }
}

/// A random distribution over `width` bits: up to 3000 distinct outcomes
/// (the dominant one, if any, at a random position), stored on `arm`.
fn distribution(width: usize, arm: f64, kind: MassKind, rng: &mut StdRng) -> Distribution {
    let dim = 1u64 << width;
    let support = 1 + rng.random::<u64>() % dim.min(3000);
    let mut outcomes = BTreeSet::new();
    while (outcomes.len() as u64) < support {
        outcomes.insert(rng.random::<u64>() % dim);
    }
    let mut outcomes: Vec<u64> = outcomes.into_iter().collect();
    let pivot = rng.random::<u64>() as usize % outcomes.len();
    outcomes.swap(0, pivot);
    let entries = outcomes
        .into_iter()
        .enumerate()
        .map(|(slot, idx)| (idx, mass(kind, slot, rng)))
        .collect();
    Distribution::try_from_entries(width, entries)
        .unwrap()
        .with_density_threshold(arm)
}

fn assert_matches_legacy(dist: &Distribution, shots: usize, seed: u64, threads: usize) {
    let got = sample_counts_deterministic(dist, shots, seed, threads);
    let want = legacy_sample(dist, shots, seed);
    assert_eq!(
        got,
        want,
        "{} bits, dense {}, support {}, {shots} shots, seed {seed}, {threads} threads",
        dist.n_bits(),
        dist.is_dense(),
        dist.support_len()
    );
}

#[test]
fn every_width_arm_and_shot_count_matches_the_reference() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for width in 1..=20 {
        for (a, &arm) in ARMS.iter().enumerate() {
            let kind = KINDS[(width + a) % KINDS.len()];
            let dist = distribution(width, arm, kind, &mut rng);
            assert_eq!(dist.is_dense(), arm == 0.0, "{width} bits on arm {arm}");
            for (s, &shots) in SHOTS.iter().enumerate() {
                let threads = THREADS[(width + a + s) % THREADS.len()];
                assert_matches_legacy(&dist, shots, rng.random(), threads);
            }
        }
    }
}

#[test]
fn degenerate_masses_match_the_reference() {
    let cases: Vec<(usize, Vec<(u64, f64)>)> = vec![
        // Empty support, and support with no positive mass.
        (3, vec![]),
        (3, vec![(1, -0.5), (6, -2.0)]),
        // A single subnormal outcome, and subnormals around a zero gap.
        (2, vec![(2, f64::from_bits(1))]),
        (4, vec![(0, 5e-324), (3, 0.0), (7, 1e-320), (15, 2.5e-322)]),
        // Clamped negatives at both ends and in the middle.
        (
            4,
            vec![(0, -1.0), (1, 0.25), (5, -0.1), (9, 0.75), (15, -3.0)],
        ),
        // One dominant outcome among many tiny ones.
        (
            10,
            (0..1024u64)
                .map(|i| (i, if i == 700 { 1.0 } else { 1e-15 }))
                .collect(),
        ),
        // A total that overflows to infinity.
        (2, vec![(0, 1e308), (1, f64::MAX), (3, 1.0)]),
    ];
    for (width, entries) in cases {
        for arm in ARMS {
            let dist = Distribution::try_from_entries(width, entries.clone())
                .unwrap()
                .with_density_threshold(arm);
            for shots in SHOTS {
                for threads in THREADS {
                    assert_matches_legacy(&dist, shots, 42, threads);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_distributions_match_the_reference(
        width in 1usize..21,
        arm in prop::sample::select(ARMS.to_vec()),
        kind in prop::sample::select(KINDS.to_vec()),
        shots in prop::sample::select(SHOTS.to_vec()),
        threads in prop::sample::select(THREADS.to_vec()),
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = distribution(width, arm, kind, &mut rng);
        let got = sample_counts_deterministic(&dist, shots, seed, threads);
        prop_assert_eq!(got, legacy_sample(&dist, shots, seed));
    }
}

fn outputs() -> Vec<RunOutput> {
    let mut rng = StdRng::seed_from_u64(9);
    (0..12)
        .map(|i| RunOutput {
            dist: distribution(1 + i % 9, ARMS[i % 2], KINDS[i % 3], &mut rng),
            gates: i,
            two_qubit_gates: i / 2,
        })
        .collect()
}

fn shot_plan(n: usize) -> ShotPlan {
    ShotPlan::from_shots((0..n).map(|i| [1, 300, 16_384, 40_000][i % 4]).collect())
}

#[test]
fn batch_sampling_is_the_per_job_loop_for_any_worker_count() {
    let outs = outputs();
    let shots = shot_plan(outs.len());
    let serial: Vec<SampledOutput> = outs
        .iter()
        .enumerate()
        .map(|(i, out)| SampledOutput::from_run(out, shots.shots(i), job_sample_seed(77, i)))
        .collect();
    // Top level: the machine's workers; inside a worker: one.
    assert_eq!(sample_batch(&outs, &shots, 77), serial);
    let nested = backend::parallel_indexed(2, 2, |_| sample_batch(&outs, &shots, 77));
    for run in nested {
        assert_eq!(run, serial);
    }
}

#[test]
fn fallible_batch_sampling_keeps_errors_and_healthy_counts() {
    let outs = outputs();
    let shots = shot_plan(outs.len());
    let results: Vec<Result<RunOutput, RunError>> = outs
        .iter()
        .enumerate()
        .map(|(i, out)| match i % 5 {
            3 => Err(RunError::permanent(
                RunErrorKind::Backend,
                format!("job {i} failed"),
            )),
            _ => Ok(out.clone()),
        })
        .collect();
    let healthy = sample_batch(&outs, &shots, 5);
    for (i, (got, res)) in try_sample_batch(&results, &shots, 5)
        .into_iter()
        .zip(&results)
        .enumerate()
    {
        match (got, res) {
            (Ok(s), Ok(_)) => assert_eq!(s, healthy[i], "job {i}"),
            (Err(e), Err(want)) => assert_eq!(&e, want, "job {i}"),
            (got, _) => panic!("job {i}: outcome kind changed: {got:?}"),
        }
    }
}
