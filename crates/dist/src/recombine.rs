//! Bayesian local/global recombination (Jigsaw's update rule, reused by
//! QuTracer and SQEM).
//!
//! Given a noisy global distribution `G` and a higher-fidelity local
//! distribution `L` over a subset `S` of its bits, each global outcome is
//! reweighted by how much more (or less) likely its `S`-pattern is under
//! `L` than under `G`'s own marginal:
//!
//! ```text
//! G'(x) ∝ G(x) · L(x|S) / G_S(x|S)
//! ```
//!
//! The update leaves conditional correlations *within* the rest of the
//! register untouched while pinning the subset marginal to the trusted
//! local distribution; applying it for every subset folds all local
//! information into the global picture (Fig. 4, stage ❸ of the paper).
//!
//! Everything here *streams* over nonzero entries: likelihood ratios are
//! tabulated from the (small) subset marginal's support, and each global
//! outcome is reweighted in one sorted pass, so recombining a wide sparse
//! global never materializes a `2^n` table. The traversal order is the
//! canonical ascending order of [`Distribution::iter`], which keeps every
//! accumulation bit-reproducible across storage representations.

use crate::{Counts, DistError, Distribution};

/// Bin-mass floor below which a marginal bin is considered unobserved and
/// its ratio skipped (no information to redistribute).
const MARGINAL_FLOOR: f64 = 1e-15;

/// Applies one Bayesian subset update: reweights `global` so its marginal
/// on `positions` matches `local`, preserving conditionals elsewhere.
///
/// `local` must have exactly `positions.len()` bits, and `positions` index
/// bits of `global` (bit `j` of a local outcome corresponds to global bit
/// `positions[j]`).
///
/// Marginal bins at or below [`MARGINAL_FLOOR`] are treated as unobserved:
/// dividing by them would blow up a pattern the noisy global considers
/// (numerically) impossible, so their local mass is instead redistributed
/// over the observed patterns, keeping the update mass-conserving.
///
/// A single sorted pass over the global support — cost
/// `O(support(global) + 2^|S|)`, independent of `2^n_bits`.
///
/// # Errors
///
/// [`DistError::SubsetMismatch`] / [`DistError::PositionOutOfRange`] on
/// shape mismatches.
pub fn try_bayesian_update(
    global: &Distribution,
    local: &Distribution,
    positions: &[usize],
) -> Result<Distribution, DistError> {
    if local.n_bits() != positions.len() {
        return Err(DistError::SubsetMismatch {
            local_bits: local.n_bits(),
            positions: positions.len(),
        });
    }
    if let Some(&position) = positions.iter().find(|&&p| p >= global.n_bits()) {
        return Err(DistError::PositionOutOfRange {
            position,
            n_bits: global.n_bits(),
        });
    }
    let g_total = global.total();
    if g_total <= 0.0 {
        // Nothing to reweight; fall back to uniform like `normalized`.
        return Ok(Distribution::uniform(global.n_bits()));
    }

    let local = local.clone().normalized();
    let marginal = global.marginal(positions).normalized();

    // Likelihood ratios over the marginal's support. Patterns the noisy
    // global effectively never produces (marginal ≤ floor, or absent from
    // the support entirely) keep ratio 1.0: their local mass is instead
    // redistributed over the observed patterns via `scale`, so the update
    // conserves mass. Both sums run in ascending pattern order — the
    // shared iteration order of either storage representation.
    let mut observed_local = 0.0;
    let mut unobserved_mass = 0.0;
    for (s, m) in marginal.iter() {
        if m >= MARGINAL_FLOOR {
            observed_local += local.prob(s);
        } else {
            unobserved_mass += m;
        }
    }
    let mut ratios: Vec<(u64, f64)> = Vec::with_capacity(marginal.support_len());
    if observed_local > 0.0 {
        let scale = (1.0 - unobserved_mass) / observed_local;
        for (s, m) in marginal.iter() {
            if m >= MARGINAL_FLOOR {
                ratios.push((s, local.prob(s) * scale / m));
            }
        }
    }
    let ratio_of = |s: u64| match ratios.binary_search_by_key(&s, |&(i, _)| i) {
        Ok(pos) => ratios[pos].1,
        Err(_) => 1.0,
    };

    // Single streaming pass: reweight each nonzero global outcome by its
    // subset pattern's ratio (sorted input → sorted output, no re-sort).
    let entries: Vec<(u64, f64)> = global
        .iter()
        .map(|(x, p)| {
            let mut s = 0u64;
            for (j, &pos) in positions.iter().enumerate() {
                s |= ((x >> pos) & 1) << j;
            }
            (x, p.max(0.0) * ratio_of(s))
        })
        .collect();
    Ok(Distribution::try_from_entries(global.n_bits(), entries)
        .expect("reweighted outcomes stay in range")
        .normalized())
}

/// Applies [`try_bayesian_update`] for every `(local, positions)` pair in
/// sequence — the full recombination over all traced subsets. Later
/// updates can perturb earlier subsets' marginals when subsets overlap or
/// correlate; the paper's subsets are chosen small and near-independent so
/// the sequential pass converges in one sweep.
///
/// # Errors
///
/// Propagates the first shape error encountered.
pub fn try_bayesian_update_all<'a, I>(
    global: &Distribution,
    subsets: I,
) -> Result<Distribution, DistError>
where
    I: IntoIterator<Item = (&'a Distribution, &'a [usize])>,
{
    let mut acc = global.clone().normalized();
    for (local, positions) in subsets {
        acc = try_bayesian_update(&acc, local, positions)?;
    }
    Ok(acc)
}

/// Finite-shot variant of [`try_bayesian_update`]: both sides are sampled
/// count tables; the update runs on their plug-in distributions.
///
/// # Errors
///
/// Same shape errors as [`try_bayesian_update`].
pub fn try_bayesian_update_counts(
    global: &Counts,
    local: &Counts,
    positions: &[usize],
) -> Result<Distribution, DistError> {
    try_bayesian_update(
        &global.to_distribution(),
        &local.to_distribution(),
        positions,
    )
}

/// Finite-shot variant of [`try_bayesian_update_all`].
///
/// # Errors
///
/// Propagates the first shape error encountered.
pub fn try_bayesian_update_all_counts<'a, I>(
    global: &Counts,
    subsets: I,
) -> Result<Distribution, DistError>
where
    I: IntoIterator<Item = (&'a Counts, &'a [usize])>,
{
    let mut acc = global.to_distribution();
    for (local, positions) in subsets {
        acc = try_bayesian_update(&acc, &local.to_distribution(), positions)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(n_bits: usize, probs: Vec<f64>) -> Distribution {
        Distribution::try_from_probs(n_bits, probs).unwrap()
    }

    /// 2-bit product distribution with p(bit0=1)=a, p(bit1=1)=b.
    fn product_2q(a: f64, b: f64) -> Distribution {
        dist(
            2,
            vec![(1.0 - a) * (1.0 - b), a * (1.0 - b), (1.0 - a) * b, a * b],
        )
    }

    #[test]
    fn update_pins_the_subset_marginal() {
        let global = product_2q(0.3, 0.45);
        let local = dist(1, vec![0.1, 0.9]);
        let out = try_bayesian_update(&global, &local, &[0]).unwrap();
        let m = out.marginal(&[0]);
        assert!((m.prob(1) - 0.9).abs() < 1e-12, "marginal must match local");
        assert!((out.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn update_preserves_conditionals_elsewhere() {
        let global = product_2q(0.3, 0.45);
        let local = dist(1, vec![0.8, 0.2]);
        let out = try_bayesian_update(&global, &local, &[0]).unwrap();
        // Bit 1 was independent of bit 0, so its marginal must survive.
        let m1 = out.marginal(&[1]);
        assert!((m1.prob(1) - 0.45).abs() < 1e-12);
    }

    #[test]
    fn neutral_local_is_a_no_op() {
        let global = dist(2, vec![0.4, 0.1, 0.4, 0.1]).normalized();
        let marginal = global.marginal(&[1]);
        let out = try_bayesian_update(&global, &marginal, &[1]).unwrap();
        for x in 0..4u64 {
            assert!((out.prob(x) - global.prob(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_mass_patterns_stay_zero() {
        // Global gives zero mass to bit0=1; a local that also avoids it
        // keeps the update well-defined.
        let global = dist(2, vec![0.6, 0.0, 0.4, 0.0]);
        let local = dist(1, vec![1.0, 0.0]);
        let out = try_bayesian_update(&global, &local, &[0]).unwrap();
        assert_eq!(out.prob(1), 0.0);
        assert_eq!(out.prob(3), 0.0);
        assert!((out.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn update_all_round_trips_known_two_qubit_marginal() {
        let probs = vec![0.22, 0.03, 0.07, 0.18, 0.05, 0.15, 0.2, 0.1];
        let global = dist(3, probs).normalized();
        // Use the true marginals as "traced" locals: fixed point.
        let m01 = global.marginal(&[0, 1]);
        let m2 = global.marginal(&[2]);
        let subsets: Vec<(&Distribution, &[usize])> =
            vec![(&m01, &[0usize, 1][..]), (&m2, &[2usize][..])];
        let out = try_bayesian_update_all(&global, subsets).unwrap();
        for x in 0..8u64 {
            assert!(
                (out.prob(x) - global.prob(x)).abs() < 1e-10,
                "fixed point drifted at {x}"
            );
        }
    }

    #[test]
    fn under_floor_marginals_conserve_mass() {
        // Pattern bit0=1 has marginal below the floor: its local mass is
        // redistributed instead of divided by ~0.
        let tiny = 8e-16;
        let global = dist(2, vec![0.7 - tiny, tiny, 0.3, 0.0]);
        let local = dist(1, vec![0.6, 0.4]);
        let out = try_bayesian_update(&global, &local, &[0]).unwrap();
        assert!((out.total() - 1.0).abs() < 1e-9, "mass must be conserved");
        assert!(out.iter().all(|(_, p)| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn typed_errors_replace_shape_asserts() {
        let global = product_2q(0.5, 0.5);
        let local = dist(1, vec![0.5, 0.5]);
        assert_eq!(
            try_bayesian_update(&global, &local, &[0, 1]).unwrap_err(),
            DistError::SubsetMismatch {
                local_bits: 1,
                positions: 2
            }
        );
        assert_eq!(
            try_bayesian_update(&global, &local, &[2]).unwrap_err(),
            DistError::PositionOutOfRange {
                position: 2,
                n_bits: 2
            }
        );
    }

    #[test]
    fn streaming_update_handles_wide_sparse_globals() {
        // 40-bit global: densify() is impossible (allocation cap), but the
        // streaming update runs over the 2-outcome support just fine.
        let hi = 1u64 << 39;
        let global = Distribution::try_from_entries(40, vec![(0, 0.5), (hi | 1, 0.5)]).unwrap();
        assert!(matches!(
            global.densify(),
            Err(DistError::DenseCap { n_bits: 40, .. })
        ));
        let local = dist(1, vec![0.2, 0.8]);
        let out = try_bayesian_update(&global, &local, &[0]).unwrap();
        assert!((out.prob(0) - 0.2).abs() < 1e-12);
        assert!((out.prob(hi | 1) - 0.8).abs() < 1e-12);
        assert_eq!(out.support_len(), 2);
        assert!((out.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn counts_update_matches_plugin_frequencies() {
        let global = Counts::try_from_counts(2, vec![40, 10, 40, 10]).unwrap();
        let local = Counts::try_from_counts(1, vec![10, 90]).unwrap();
        let sampled = try_bayesian_update_counts(&global, &local, &[0]).unwrap();
        let exact =
            try_bayesian_update(&global.to_distribution(), &local.to_distribution(), &[0]).unwrap();
        for x in 0..4u64 {
            assert!((sampled.prob(x) - exact.prob(x)).abs() < 1e-12);
        }
        let all = try_bayesian_update_all_counts(&global, vec![(&local, &[0usize][..])]).unwrap();
        assert_eq!(all, sampled);
    }

    #[test]
    fn update_all_moves_toward_trusted_locals() {
        // Noisy global: uniform-ish. Trusted locals: strongly peaked.
        let global = dist(2, vec![0.3, 0.2, 0.3, 0.2]);
        let l0 = dist(1, vec![0.95, 0.05]);
        let l1 = dist(1, vec![0.95, 0.05]);
        let subsets: Vec<(&Distribution, &[usize])> =
            vec![(&l0, &[0usize][..]), (&l1, &[1usize][..])];
        let out = try_bayesian_update_all(&global, subsets).unwrap();
        assert!(
            out.prob(0) > 0.85,
            "both bits peaked at 0 → outcome 00 dominates, got {}",
            out.prob(0)
        );
    }
}
