//! Outcome distributions over measured qubits, Hellinger fidelity, and the
//! Bayesian local/global recombination QuTracer and its baselines share.
//!
//! Every mitigation method in this workspace ends the same way: a noisy
//! *global* distribution over all measured qubits is refined with one or
//! more high-fidelity *local* distributions over small subsets (Jigsaw's
//! measurement subsetting, QuTracer's traced subsets, SQEM's virtualized
//! checks). This crate owns that final, purely classical stage.
//!
//! # Sparse-by-default storage
//!
//! QuTracer's premise is that per-subset marginals are tiny even when the
//! global register is wide, and the engine tier (stabilizer tableaux,
//! sparse statevectors) simulates registers far past anything a dense
//! `Vec<f64>` of length `2^n` could index. [`Distribution`] and [`Counts`]
//! therefore store an index→mass map (`Mass`): a sorted
//! `Vec<(u64, mass)>` of the nonzero outcomes, with a dense table as a
//! *fallback representation* chosen only when the outcome space is narrow
//! ([`DEFAULT_DENSE_CAP_BITS`]) **and** at least half full
//! ([`DEFAULT_DENSE_THRESHOLD`]). Outcome indices are `u64`, so >26-qubit
//! registers are representable at all.
//!
//! The canonical invariant — sparse entries sorted ascending with exact
//! zeros dropped — makes every operation *bit-reproducible across
//! representations*: both storages iterate the same nonzero entries in the
//! same ascending order, and adding an exact `0.0` to an `f64` accumulator
//! is the identity, so sums, marginals, Hellinger terms and Bayesian
//! updates produce bitwise-identical floats either way (property-tested in
//! `tests/proptests.rs`).
//!
//! Exact simulators hand over probability maps ([`Distribution`]);
//! hardware — and the finite-shot execution mode mirroring it — hands over
//! sampled [`Counts`]. The count-based estimators here carry shot-noise
//! error bars ([`Estimate`]), because the paper's cost metric is *shots*
//! and every sampled quantity trades accuracy against that budget.
//!
//! # Example
//!
//! ```
//! use qt_dist::{hellinger_fidelity, recombine, Distribution};
//!
//! let global = Distribution::try_from_probs(2, vec![0.4, 0.1, 0.4, 0.1]).unwrap();
//! let local = Distribution::try_from_probs(1, vec![0.3, 0.7]).unwrap(); // bit 1
//! let refined = recombine::try_bayesian_update(&global, &local, &[1]).unwrap();
//! assert!((refined.total() - 1.0).abs() < 1e-12);
//! assert!((refined.marginal(&[1]).prob(1) - 0.7).abs() < 1e-12);
//! assert!(hellinger_fidelity(&refined, &refined) > 1.0 - 1e-12);
//! ```

pub mod recombine;

/// Ceiling on the outcome-space width a **dense** table may allocate:
/// `2^26` f64 entries is 512 MiB. Distributions over more bits stay in the
/// sparse representation unconditionally; [`Distribution::densify`] and
/// [`Distribution::uniform`] (the only operations that *require* a dense
/// table) fail past this cap instead of attempting an allocation of
/// hundreds of GiB.
pub const DEFAULT_DENSE_CAP_BITS: usize = 26;

/// Nonzero-entry fraction at which a cap-respecting outcome table switches
/// to the dense representation: at half density the sorted map is strictly
/// more work per traversal than a flat vector. Representation never
/// changes results — only cost (see `Mass`).
pub const DEFAULT_DENSE_THRESHOLD: f64 = 0.5;

/// Widest representable outcome space: indices are `u64` bit patterns.
pub const MAX_OUTCOME_BITS: usize = 64;

/// The error type of the distribution stage: shape mismatches and dense
/// allocation-cap violations, unified so the staged pipelines upstream
/// propagate one typed error instead of a mix of panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistError {
    /// A dense outcome table was requested over more bits than the
    /// allocation cap allows (the table would hold `2^n_bits` entries).
    DenseCap {
        /// The requested outcome-space width.
        n_bits: usize,
        /// The cap it exceeded.
        cap_bits: usize,
    },
    /// More raw entries were supplied than the outcome space holds.
    ExcessEntries {
        /// Number of entries supplied.
        len: usize,
        /// The outcome-space width they were supplied for.
        n_bits: usize,
    },
    /// A sparse entry's outcome index does not fit the outcome space.
    IndexOutOfRange {
        /// The offending outcome index.
        index: u64,
        /// The outcome-space width it was supplied for.
        n_bits: usize,
    },
    /// A local distribution's bit count does not match its subset size.
    SubsetMismatch {
        /// Bits of the local distribution.
        local_bits: usize,
        /// Positions the caller asked to update.
        positions: usize,
    },
    /// A subset position indexes a bit the global distribution lacks.
    PositionOutOfRange {
        /// The offending bit position.
        position: usize,
        /// Bits of the global distribution.
        n_bits: usize,
    },
    /// The outcome space is wider than a `u64` outcome index can address.
    TooManyBits {
        /// The requested outcome-space width.
        n_bits: usize,
        /// The widest representable space ([`MAX_OUTCOME_BITS`]).
        max_bits: usize,
    },
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::DenseCap { n_bits, cap_bits } => write!(
                f,
                "dense outcome table over {n_bits} bits exceeds the {cap_bits}-bit allocation cap \
                 (2^{n_bits} entries); keep the sparse representation or marginalize to fewer bits"
            ),
            DistError::ExcessEntries { len, n_bits } => {
                write!(f, "{len} entries do not fit {n_bits} bits")
            }
            DistError::IndexOutOfRange { index, n_bits } => {
                write!(f, "outcome index {index} does not fit {n_bits} bits")
            }
            DistError::SubsetMismatch {
                local_bits,
                positions,
            } => write!(
                f,
                "local distribution has {local_bits} bits but {positions} positions were given"
            ),
            DistError::PositionOutOfRange { position, n_bits } => {
                write!(f, "bit position {position} out of {n_bits} global bits")
            }
            DistError::TooManyBits { n_bits, max_bits } => write!(
                f,
                "{n_bits} outcome bits exceed the {max_bits}-bit outcome index"
            ),
        }
    }
}

impl std::error::Error for DistError {}

fn check_dense_cap(n_bits: usize) -> Result<(), DistError> {
    if n_bits > DEFAULT_DENSE_CAP_BITS {
        Err(DistError::DenseCap {
            n_bits,
            cap_bits: DEFAULT_DENSE_CAP_BITS,
        })
    } else {
        Ok(())
    }
}

/// Outcome indices are `u64` bit patterns: a wider space is not
/// representable.
fn check_outcome_bits(n_bits: usize) -> Result<(), DistError> {
    if n_bits > MAX_OUTCOME_BITS {
        Err(DistError::TooManyBits {
            n_bits,
            max_bits: MAX_OUTCOME_BITS,
        })
    } else {
        Ok(())
    }
}

/// Number of outcomes of an `n_bits`-bit space (`u128`: 64-bit spaces are
/// representable, so the count itself overflows `u64`).
fn dim_of(n_bits: usize) -> u128 {
    1u128 << n_bits
}

/// A value a `Mass` table can store: probability mass (`f64`) or shot
/// counts (`u64`). The zero element defines sparsity — exact zeros are
/// never stored in the sparse representation.
pub trait MassValue: Copy + PartialEq + std::fmt::Debug {
    /// The additive identity.
    const ZERO: Self;
    /// Whether this value is exactly zero (dropped from sparse storage).
    fn is_zero(self) -> bool;
}

impl MassValue for f64 {
    const ZERO: f64 = 0.0;
    fn is_zero(self) -> bool {
        self == 0.0
    }
}

impl MassValue for u64 {
    const ZERO: u64 = 0;
    fn is_zero(self) -> bool {
        self == 0
    }
}

/// Index→mass storage of an outcome table: sorted nonzero entries, with a
/// dense fallback for narrow, at-least-half-full spaces.
///
/// # Canonical form
///
/// * `Sparse` entries are sorted by outcome index, strictly ascending, and
///   never hold an exact zero.
/// * `Dense` is used iff the space fits the allocation cap
///   ([`DEFAULT_DENSE_CAP_BITS`]) **and** the nonzero fraction meets the
///   density threshold at construction time.
///
/// Both representations therefore iterate the same `(index, mass)` pairs
/// in the same ascending order, which is what keeps every float traversal
/// upstairs bit-reproducible across representations. Equality of the
/// containing types ([`Distribution`], [`Counts`]) compares those streams,
/// never the representation.
#[derive(Debug, Clone)]
enum Mass<T> {
    /// Flat table of `2^n_bits` values, indexed by outcome.
    Dense(Vec<T>),
    /// Sorted `(outcome, mass)` pairs of the nonzero outcomes.
    Sparse(Vec<(u64, T)>),
}

impl<T: MassValue> Mass<T> {
    /// Whether the canonical representation of a table with `nnz` nonzero
    /// entries over `n_bits` bits is dense under `threshold`.
    fn dense_eligible(n_bits: usize, nnz: usize, threshold: f64) -> bool {
        n_bits <= DEFAULT_DENSE_CAP_BITS && nnz as f64 >= dim_of(n_bits) as f64 * threshold
    }

    /// Canonicalizes a dense (or shorter, zero-padded) value vector.
    fn from_dense(n_bits: usize, mut values: Vec<T>, threshold: f64) -> Mass<T> {
        let nnz = values.iter().filter(|v| !v.is_zero()).count();
        if Self::dense_eligible(n_bits, nnz, threshold) {
            values.resize(dim_of(n_bits) as usize, T::ZERO);
            Mass::Dense(values)
        } else {
            Mass::Sparse(
                values
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| !v.is_zero())
                    .map(|(i, &v)| (i as u64, v))
                    .collect(),
            )
        }
    }

    /// Canonicalizes sorted, deduplicated `(index, mass)` pairs (zeros
    /// allowed; they are dropped).
    fn from_sorted(n_bits: usize, entries: Vec<(u64, T)>, threshold: f64) -> Mass<T> {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "unsorted mass");
        let nnz = entries.iter().filter(|(_, v)| !v.is_zero()).count();
        if Self::dense_eligible(n_bits, nnz, threshold) {
            let mut dense = vec![T::ZERO; dim_of(n_bits) as usize];
            for (i, v) in entries {
                dense[i as usize] = v;
            }
            Mass::Dense(dense)
        } else {
            let mut entries = entries;
            entries.retain(|(_, v)| !v.is_zero());
            Mass::Sparse(entries)
        }
    }

    /// Iterates the nonzero `(index, mass)` pairs in ascending index
    /// order — identically for both representations.
    fn iter(&self) -> impl Iterator<Item = (u64, T)> + '_ {
        let (dense, sparse) = match self {
            Mass::Dense(v) => (Some(v), None),
            Mass::Sparse(e) => (None, Some(e)),
        };
        dense
            .into_iter()
            .flatten()
            .enumerate()
            .filter(|(_, v)| !v.is_zero())
            .map(|(i, &v)| (i as u64, v))
            .chain(sparse.into_iter().flatten().copied())
    }

    /// The mass at `index` (zero when absent or out of range).
    fn get(&self, index: u64) -> T {
        match self {
            Mass::Dense(v) => usize::try_from(index)
                .ok()
                .and_then(|i| v.get(i).copied())
                .unwrap_or(T::ZERO),
            Mass::Sparse(e) => match e.binary_search_by_key(&index, |&(i, _)| i) {
                Ok(pos) => e[pos].1,
                Err(_) => T::ZERO,
            },
        }
    }

    /// Number of stored nonzero entries.
    fn support_len(&self) -> usize {
        match self {
            Mass::Dense(v) => v.iter().filter(|x| !x.is_zero()).count(),
            Mass::Sparse(e) => e.len(),
        }
    }

    fn is_dense(&self) -> bool {
        matches!(self, Mass::Dense(_))
    }
}

/// Validates, sorts and duplicate-merges raw `(index, mass)` pairs into
/// canonical sorted unique entries. Duplicate indices accumulate in their
/// input order (stable sort), so construction is deterministic.
fn sorted_entries<T>(
    n_bits: usize,
    entries: Vec<(u64, T)>,
    add: impl Fn(T, T) -> T,
) -> Result<Vec<(u64, T)>, DistError>
where
    T: MassValue,
{
    let dim = dim_of(n_bits);
    if let Some(&(index, _)) = entries.iter().find(|&&(i, _)| u128::from(i) >= dim) {
        return Err(DistError::IndexOutOfRange { index, n_bits });
    }
    let mut entries = entries;
    if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
        entries.sort_by_key(|&(i, _)| i);
        let mut merged: Vec<(u64, T)> = Vec::with_capacity(entries.len());
        for (i, v) in entries {
            match merged.last_mut() {
                Some((j, acc)) if *j == i => *acc = add(*acc, v),
                _ => merged.push((i, v)),
            }
        }
        entries = merged;
    }
    Ok(entries)
}

/// A (sub-)normalized probability distribution over `n_bits`-bit outcomes,
/// stored sparsely by default (see `Mass`).
///
/// Outcome index bit `i` corresponds to measured qubit `i` of whichever
/// measurement list produced the distribution (the convention used across
/// the workspace: bit `i` of the index = `measured[i]`).
///
/// Equality compares nonzero `(outcome, probability)` streams, so two
/// distributions with equal content are equal regardless of
/// representation.
#[derive(Debug, Clone)]
pub struct Distribution {
    n_bits: usize,
    mass: Mass<f64>,
}

impl PartialEq for Distribution {
    fn eq(&self, other: &Self) -> bool {
        self.n_bits == other.n_bits && self.mass.iter().eq(other.mass.iter())
    }
}

impl Distribution {
    /// Builds a distribution over `n_bits` outcomes from a raw probability
    /// vector (entry `i` is the probability of outcome `i`).
    ///
    /// `probs` shorter than `2^n_bits` is zero-padded (finite-shot runs may
    /// omit trailing never-observed outcomes). Values are *not* normalized;
    /// call [`Distribution::normalized`] for that. There is no width cap:
    /// the vector's *nonzero* entries define the storage, so a 40-bit
    /// distribution with three outcomes is three map entries.
    ///
    /// # Errors
    ///
    /// [`DistError::TooManyBits`] if `n_bits` exceeds [`MAX_OUTCOME_BITS`];
    /// [`DistError::ExcessEntries`] if `probs` is longer than `2^n_bits`.
    pub fn try_from_probs(n_bits: usize, probs: Vec<f64>) -> Result<Self, DistError> {
        check_outcome_bits(n_bits)?;
        if u128::try_from(probs.len()).unwrap_or(u128::MAX) > dim_of(n_bits) {
            return Err(DistError::ExcessEntries {
                len: probs.len(),
                n_bits,
            });
        }
        Ok(Distribution {
            n_bits,
            mass: Mass::from_dense(n_bits, probs, DEFAULT_DENSE_THRESHOLD),
        })
    }

    /// Builds a distribution from raw `(outcome, probability)` pairs — the
    /// native constructor for sparse producers (the sparse-statevector and
    /// stabilizer engines). Pairs need not be sorted; duplicate indices
    /// accumulate in input order.
    ///
    /// # Errors
    ///
    /// [`DistError::TooManyBits`] if `n_bits` exceeds [`MAX_OUTCOME_BITS`];
    /// [`DistError::IndexOutOfRange`] if any outcome does not fit
    /// `n_bits`.
    pub fn try_from_entries(n_bits: usize, entries: Vec<(u64, f64)>) -> Result<Self, DistError> {
        check_outcome_bits(n_bits)?;
        let entries = sorted_entries(n_bits, entries, |a, b| a + b)?;
        Ok(Distribution {
            n_bits,
            mass: Mass::from_sorted(n_bits, entries, DEFAULT_DENSE_THRESHOLD),
        })
    }

    /// The uniform distribution over `n_bits` outcomes — inherently dense
    /// (every outcome carries mass).
    ///
    /// # Panics
    ///
    /// Panics if `n_bits` exceeds [`DEFAULT_DENSE_CAP_BITS`]: a uniform
    /// table over a wide space has no sparse form. (This makes
    /// [`Distribution::normalized`] on a zero-mass wide distribution panic
    /// too — a zero-mass global over a >26-bit space has no meaningful
    /// uniform fallback.)
    pub fn uniform(n_bits: usize) -> Self {
        if let Err(e) = check_dense_cap(n_bits) {
            panic!("uniform distribution is inherently dense: {e}");
        }
        let dim = dim_of(n_bits) as usize;
        Distribution {
            n_bits,
            mass: Mass::Dense(vec![1.0 / dim as f64; dim]),
        }
    }

    /// Number of outcome bits.
    pub fn n_bits(&self) -> usize {
        self.n_bits
    }

    /// Number of outcomes (`2^n_bits`; `u128` because 64-bit outcome
    /// spaces are representable).
    pub fn dim(&self) -> u128 {
        dim_of(self.n_bits)
    }

    /// Number of outcomes carrying nonzero mass.
    pub fn support_len(&self) -> usize {
        self.mass.support_len()
    }

    /// Whether the current storage is the dense fallback (representation
    /// introspection for tests and benches; never affects results).
    pub fn is_dense(&self) -> bool {
        self.mass.is_dense()
    }

    /// Probability of `outcome`; 0.0 when absent or out of range.
    pub fn prob(&self, outcome: u64) -> f64 {
        self.mass.get(outcome)
    }

    /// Iterates the nonzero `(outcome, probability)` pairs in ascending
    /// outcome order — the same stream for either representation.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.mass.iter()
    }

    /// Total mass (1.0 for a normalized distribution).
    pub fn total(&self) -> f64 {
        self.iter().map(|(_, p)| p).sum()
    }

    /// The full dense probability vector, indexed by outcome — the
    /// compatibility escape hatch for consumers that genuinely need flat
    /// storage (readout-error convolution, plotting).
    ///
    /// # Errors
    ///
    /// [`DistError::DenseCap`] if the outcome space exceeds
    /// [`DEFAULT_DENSE_CAP_BITS`] (the table would hold `2^n_bits`
    /// entries).
    pub fn densify(&self) -> Result<Vec<f64>, DistError> {
        check_dense_cap(self.n_bits)?;
        let mut out = vec![0.0; self.dim() as usize];
        for (i, p) in self.iter() {
            out[i as usize] = p;
        }
        Ok(out)
    }

    /// Re-bins the storage under an explicit density threshold: `0.0`
    /// forces the dense representation (within the allocation cap), any
    /// value above `1.0` forces sparse. Content is unchanged — this is a
    /// representation conversion for benchmarks and equivalence tests;
    /// results of subsequent operations re-canonicalize under the default
    /// threshold.
    pub fn with_density_threshold(self, threshold: f64) -> Self {
        let entries: Vec<(u64, f64)> = self.mass.iter().collect();
        Distribution {
            n_bits: self.n_bits,
            mass: Mass::from_sorted(self.n_bits, entries, threshold),
        }
    }

    /// Clamps negatives to zero and rescales to unit mass. A distribution
    /// with no positive mass becomes uniform.
    ///
    /// # Panics
    ///
    /// Panics when a zero-mass distribution is wider than
    /// [`DEFAULT_DENSE_CAP_BITS`] — the uniform fallback is inherently
    /// dense (see [`Distribution::uniform`]).
    pub fn normalized(self) -> Self {
        let mut total = 0.0;
        for (_, p) in self.iter() {
            total += p.max(0.0);
        }
        if total <= 0.0 {
            return Distribution::uniform(self.n_bits);
        }
        let inv = 1.0 / total;
        let entries: Vec<(u64, f64)> = self
            .iter()
            .filter(|&(_, p)| p > 0.0)
            .map(|(i, p)| (i, p * inv))
            .collect();
        Distribution {
            n_bits: self.n_bits,
            mass: Mass::from_sorted(self.n_bits, entries, DEFAULT_DENSE_THRESHOLD),
        }
    }

    /// The marginal distribution over the given bit `positions`: bit `j` of
    /// the marginal index is bit `positions[j]` of the full index. A
    /// sorted traversal of the nonzero entries — cost scales with the
    /// support, never with `2^n_bits`.
    ///
    /// # Panics
    ///
    /// Panics if any position is out of range.
    pub fn marginal(&self, positions: &[usize]) -> Distribution {
        let project = marginal_projector(self.n_bits, positions);
        let k = positions.len();
        // Accumulate per marginal bin in ascending full-index order (the
        // shared iteration order of both representations), so bin sums are
        // bit-reproducible. Narrow targets use a flat accumulator; wide
        // ones a map — per-bin addition order is identical either way.
        if k <= DEFAULT_DENSE_CAP_BITS {
            let mut out = vec![0.0; dim_of(k) as usize];
            for (x, p) in self.iter() {
                out[project(x) as usize] += p;
            }
            Distribution {
                n_bits: k,
                mass: Mass::from_dense(k, out, DEFAULT_DENSE_THRESHOLD),
            }
        } else {
            let mut out: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
            for (x, p) in self.iter() {
                *out.entry(project(x)).or_insert(0.0) += p;
            }
            Distribution {
                n_bits: k,
                mass: Mass::from_sorted(k, out.into_iter().collect(), DEFAULT_DENSE_THRESHOLD),
            }
        }
    }
}

/// The bit-gather closure shared by the marginal traversals: maps a full
/// outcome index to its pattern over `positions`.
///
/// # Panics
///
/// Panics if any position is out of range (`>= n_bits`).
fn marginal_projector(n_bits: usize, positions: &[usize]) -> impl Fn(u64) -> u64 + '_ {
    for &p in positions {
        assert!(p < n_bits, "bit position {p} out of {n_bits} bits");
    }
    move |x: u64| {
        let mut y = 0u64;
        for (j, &pos) in positions.iter().enumerate() {
            y |= ((x >> pos) & 1) << j;
        }
        y
    }
}

/// Per-outcome measurement counts over `n_bits`-bit outcomes — the
/// finite-shot counterpart of [`Distribution`] (what hardware, and the
/// workspace's sampled execution mode, actually returns). Stored sparsely
/// by default, exactly like [`Distribution`].
///
/// Bit conventions match [`Distribution`]: outcome index bit `i`
/// corresponds to measured qubit `i`. Equality compares nonzero streams,
/// independent of representation.
#[derive(Debug, Clone)]
pub struct Counts {
    n_bits: usize,
    counts: Mass<u64>,
}

impl PartialEq for Counts {
    fn eq(&self, other: &Self) -> bool {
        self.n_bits == other.n_bits && self.counts.iter().eq(other.counts.iter())
    }
}

impl Eq for Counts {}

impl Counts {
    /// Builds a count table over `n_bits` outcomes from a raw count vector.
    /// `counts` shorter than `2^n_bits` is zero-padded (never-observed
    /// outcomes may be omitted). No width cap: nonzero entries define the
    /// storage.
    ///
    /// # Errors
    ///
    /// [`DistError::TooManyBits`] if `n_bits` exceeds [`MAX_OUTCOME_BITS`];
    /// [`DistError::ExcessEntries`] if `counts` is longer than `2^n_bits`.
    pub fn try_from_counts(n_bits: usize, counts: Vec<u64>) -> Result<Self, DistError> {
        check_outcome_bits(n_bits)?;
        if u128::try_from(counts.len()).unwrap_or(u128::MAX) > dim_of(n_bits) {
            return Err(DistError::ExcessEntries {
                len: counts.len(),
                n_bits,
            });
        }
        Ok(Counts {
            n_bits,
            counts: Mass::from_dense(n_bits, counts, DEFAULT_DENSE_THRESHOLD),
        })
    }

    /// Builds a count table from raw `(outcome, count)` pairs — the native
    /// constructor for sparse samplers. Pairs need not be sorted;
    /// duplicate indices accumulate.
    ///
    /// # Errors
    ///
    /// [`DistError::TooManyBits`] if `n_bits` exceeds [`MAX_OUTCOME_BITS`];
    /// [`DistError::IndexOutOfRange`] if any outcome does not fit
    /// `n_bits`.
    pub fn try_from_entries(n_bits: usize, entries: Vec<(u64, u64)>) -> Result<Self, DistError> {
        check_outcome_bits(n_bits)?;
        let entries = sorted_entries(n_bits, entries, |a: u64, b: u64| a + b)?;
        Ok(Counts {
            n_bits,
            counts: Mass::from_sorted(n_bits, entries, DEFAULT_DENSE_THRESHOLD),
        })
    }

    /// Number of outcome bits.
    pub fn n_bits(&self) -> usize {
        self.n_bits
    }

    /// Number of outcomes (`2^n_bits`).
    pub fn dim(&self) -> u128 {
        dim_of(self.n_bits)
    }

    /// Number of outcomes with at least one recorded shot.
    pub fn support_len(&self) -> usize {
        self.counts.support_len()
    }

    /// Whether the current storage is the dense fallback.
    pub fn is_dense(&self) -> bool {
        self.counts.is_dense()
    }

    /// Count of `outcome`; 0 when absent or out of range.
    pub fn count(&self, outcome: u64) -> u64 {
        self.counts.get(outcome)
    }

    /// Iterates the nonzero `(outcome, count)` pairs in ascending outcome
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter()
    }

    /// Total shots recorded.
    pub fn shots(&self) -> u64 {
        self.iter().map(|(_, c)| c).sum()
    }

    /// The empirical frequency of `outcome` (`count / shots`); 0.0 when no
    /// shots were recorded.
    pub fn frequency(&self, outcome: u64) -> f64 {
        let shots = self.shots();
        if shots == 0 {
            0.0
        } else {
            self.count(outcome) as f64 / shots as f64
        }
    }

    /// The full dense count vector, indexed by outcome.
    ///
    /// # Errors
    ///
    /// [`DistError::DenseCap`] if the outcome space exceeds
    /// [`DEFAULT_DENSE_CAP_BITS`].
    pub fn densify(&self) -> Result<Vec<u64>, DistError> {
        check_dense_cap(self.n_bits)?;
        let mut out = vec![0u64; self.dim() as usize];
        for (i, c) in self.iter() {
            out[i as usize] = c;
        }
        Ok(out)
    }

    /// Re-bins the storage under an explicit density threshold (see
    /// [`Distribution::with_density_threshold`]).
    pub fn with_density_threshold(self, threshold: f64) -> Self {
        let entries: Vec<(u64, u64)> = self.counts.iter().collect();
        Counts {
            n_bits: self.n_bits,
            counts: Mass::from_sorted(self.n_bits, entries, threshold),
        }
    }

    /// The plug-in estimator of the underlying distribution: empirical
    /// frequencies, normalized. Zero recorded shots yield the uniform
    /// distribution (consistent with [`Distribution::normalized`] on a
    /// zero-mass vector; like it, this panics for zero-shot tables wider
    /// than [`DEFAULT_DENSE_CAP_BITS`]).
    pub fn to_distribution(&self) -> Distribution {
        let entries: Vec<(u64, f64)> = self.iter().map(|(i, c)| (i, c as f64)).collect();
        Distribution::try_from_entries(self.n_bits, entries)
            .expect("count indices fit the same outcome space")
            .normalized()
    }

    /// Marginal counts over the given bit `positions` (bit `j` of the
    /// marginal index is bit `positions[j]` of the full index). Exact —
    /// marginalizing counts loses no shots.
    ///
    /// # Panics
    ///
    /// Panics if any position is out of range.
    pub fn marginal(&self, positions: &[usize]) -> Counts {
        let project = marginal_projector(self.n_bits, positions);
        let k = positions.len();
        if k <= DEFAULT_DENSE_CAP_BITS {
            let mut out = vec![0u64; dim_of(k) as usize];
            for (x, c) in self.iter() {
                out[project(x) as usize] += c;
            }
            Counts {
                n_bits: k,
                counts: Mass::from_dense(k, out, DEFAULT_DENSE_THRESHOLD),
            }
        } else {
            let mut out: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
            for (x, c) in self.iter() {
                *out.entry(project(x)).or_insert(0) += c;
            }
            Counts {
                n_bits: k,
                counts: Mass::from_sorted(k, out.into_iter().collect(), DEFAULT_DENSE_THRESHOLD),
            }
        }
    }

    /// The binomial standard error of the empirical frequency of `outcome`:
    /// `√(p̂(1−p̂)/N)`. Infinite when no shots were recorded.
    pub fn std_error(&self, outcome: u64) -> f64 {
        let shots = self.shots();
        if shots == 0 {
            return f64::INFINITY;
        }
        let p = self.count(outcome) as f64 / shots as f64;
        (p * (1.0 - p) / shots as f64).sqrt()
    }

    /// The per-shot sampling dispersion of the empirical distribution:
    /// the l2-pooled [`Counts::std_error`] over the observed outcomes,
    /// rescaled to a single shot — `√(Σ_o p̂_o(1−p̂_o)) = √(1 − Σ_o p̂_o²)`.
    ///
    /// This is the multinomial analogue of a per-shot standard deviation:
    /// the total shot-noise "size" of one additional measurement. A
    /// deterministic outcome yields 0; the spread is maximal for the
    /// uniform distribution. It is the variance signal Neyman allocation
    /// consumes (`n_i ∝ σ_i`): programs whose outcome distributions are
    /// nearly deterministic need few shots, spread-out ones need many.
    ///
    /// Returns `None` when no shots were recorded (every `std_error` is
    /// infinite, so there is no finite pooled value).
    pub fn sampling_dispersion(&self) -> Option<f64> {
        let shots = self.shots();
        if shots == 0 {
            return None;
        }
        // Σ_o std_error(o)² · N  =  Σ_o p̂_o(1−p̂_o)  =  1 − Σ_o p̂_o²,
        // accumulated over the support only (zero-count outcomes
        // contribute 0 to both forms).
        let pooled: f64 = self
            .iter()
            .map(|(o, _)| {
                let se = self.std_error(o);
                se * se * shots as f64
            })
            .sum();
        Some(pooled.max(0.0).sqrt())
    }

    /// Accumulates another count table over the same outcome space — a
    /// sorted two-pointer merge of the nonzero streams.
    ///
    /// # Panics
    ///
    /// Panics if the bit counts differ.
    pub fn absorb(&mut self, other: &Counts) {
        assert_eq!(
            self.n_bits, other.n_bits,
            "cannot merge counts over different outcome spaces"
        );
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.support_len());
        {
            let mut a = self.iter().peekable();
            let mut b = other.iter().peekable();
            loop {
                match (a.peek().copied(), b.peek().copied()) {
                    (Some((i, x)), Some((j, y))) => {
                        if i < j {
                            merged.push((i, x));
                            a.next();
                        } else if j < i {
                            merged.push((j, y));
                            b.next();
                        } else {
                            merged.push((i, x + y));
                            a.next();
                            b.next();
                        }
                    }
                    (Some(e), None) => {
                        merged.push(e);
                        a.next();
                    }
                    (None, Some(e)) => {
                        merged.push(e);
                        b.next();
                    }
                    (None, None) => break,
                }
            }
        }
        self.counts = Mass::from_sorted(self.n_bits, merged, DEFAULT_DENSE_THRESHOLD);
    }
}

/// A sampled scalar estimate with its one-sigma shot-noise error bar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The point estimate.
    pub value: f64,
    /// One standard error of the estimator under multinomial shot noise.
    pub std_error: f64,
}

impl Estimate {
    /// Whether `value` lies within `k` of *this* estimate's standard
    /// errors. To compare two noisy estimates, fold their bars together
    /// first (`√(σ₁² + σ₂²)`) — this check uses only `self.std_error`.
    pub fn consistent_with(&self, value: f64, k: f64) -> bool {
        (self.value - value).abs() <= k * self.std_error
    }
}

/// The Hellinger fidelity `(Σᵢ √(pᵢ qᵢ))²` between two distributions over
/// the same outcome space — the metric every table and figure of the paper
/// reports. Inputs are normalized internally, so sub-normalized
/// distributions compare by shape. Computed as a sorted-merge traversal of
/// the two supports' intersection — cost scales with the supports, never
/// with `2^n_bits`.
///
/// # Panics
///
/// Panics if the distributions have different bit counts.
pub fn hellinger_fidelity(p: &Distribution, q: &Distribution) -> f64 {
    assert_eq!(
        p.n_bits, q.n_bits,
        "fidelity requires matching outcome spaces"
    );
    let (tp, tq) = (p.total(), q.total());
    if tp <= 0.0 || tq <= 0.0 {
        return 0.0;
    }
    let scale = 1.0 / (tp * tq).sqrt();
    let mut bc = 0.0f64;
    let mut qs = q.iter().peekable();
    for (i, a) in p.iter() {
        while matches!(qs.peek(), Some(&(j, _)) if j < i) {
            qs.next();
        }
        if let Some(&(j, b)) = qs.peek() {
            if j == i {
                bc += (a.max(0.0) * b.max(0.0)).sqrt();
            }
        }
    }
    let f = (bc * scale).powi(2);
    f.min(1.0)
}

/// The plug-in Hellinger fidelity between two sampled count tables, with a
/// delta-method shot-noise error bar.
///
/// The point estimate is [`hellinger_fidelity`] of the empirical
/// frequencies. For the error bar, write `BC = Σᵢ √(p̂ᵢ q̂ᵢ)`; under
/// independent multinomial sampling the delta method gives
/// `Var(BC) ≈ (1 − BC²)/4 · (1/N_p + 1/N_q)`, and `F = BC²` propagates to
/// `σ_F ≈ 2·BC·σ_BC`. The bar is infinite when either side recorded zero
/// shots.
///
/// # Panics
///
/// Panics if the count tables have different bit counts.
pub fn hellinger_fidelity_sampled(p: &Counts, q: &Counts) -> Estimate {
    assert_eq!(
        p.n_bits, q.n_bits,
        "fidelity requires matching outcome spaces"
    );
    let value = hellinger_fidelity(&p.to_distribution(), &q.to_distribution());
    let (np, nq) = (p.shots() as f64, q.shots() as f64);
    if np == 0.0 || nq == 0.0 {
        return Estimate {
            value,
            std_error: f64::INFINITY,
        };
    }
    let bc = value.sqrt();
    let var_bc = (1.0 - value).max(0.0) / 4.0 * (1.0 / np + 1.0 / nq);
    Estimate {
        value,
        std_error: 2.0 * bc * var_bc.sqrt(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_probs_pads_and_rejects_overflow() {
        let d = Distribution::try_from_probs(2, vec![0.5, 0.5]).unwrap();
        assert_eq!(d.dim(), 4);
        assert_eq!(d.prob(2), 0.0);
        assert_eq!(d.prob(99), 0.0);
        assert_eq!(d.n_bits(), 2);
        assert_eq!(d.support_len(), 2);
    }

    #[test]
    fn from_probs_rejects_too_many_entries() {
        let err = Distribution::try_from_probs(1, vec![0.2; 3]).expect_err("3 entries, 1 bit");
        assert_eq!(err, DistError::ExcessEntries { len: 3, n_bits: 1 });
        assert!(err.to_string().contains("do not fit"));
    }

    #[test]
    fn constructors_reject_spaces_wider_than_the_outcome_index() {
        let wide = MAX_OUTCOME_BITS + 1;
        let want = DistError::TooManyBits {
            n_bits: wide,
            max_bits: MAX_OUTCOME_BITS,
        };
        assert_eq!(Distribution::try_from_probs(wide, vec![]), Err(want));
        assert_eq!(
            Distribution::try_from_entries(wide, vec![(0, 1.0)]),
            Err(want)
        );
        assert_eq!(Counts::try_from_counts(wide, vec![1]), Err(want));
        assert_eq!(Counts::try_from_entries(wide, vec![]), Err(want));
        assert!(want.to_string().contains("65 outcome bits"));
        // 64 bits is the widest representable space.
        let top = Distribution::try_from_entries(64, vec![(u64::MAX, 1.0)]).unwrap();
        assert_eq!(top.prob(u64::MAX), 1.0);
    }

    #[test]
    fn wide_sparse_tables_construct_but_refuse_densify() {
        // 40 bits is far past the dense cap; the sparse map holds it fine.
        let d = Distribution::try_from_entries(40, vec![(0, 0.5), (1 << 39, 0.5)]).unwrap();
        assert_eq!(d.n_bits(), 40);
        assert_eq!(d.support_len(), 2);
        assert!(!d.is_dense());
        assert!((d.prob(1 << 39) - 0.5).abs() < 1e-15);
        let err = d.densify().expect_err("40 bits exceeds the dense cap");
        assert_eq!(
            err,
            DistError::DenseCap {
                n_bits: 40,
                cap_bits: DEFAULT_DENSE_CAP_BITS
            }
        );
        assert!(err.to_string().contains("allocation cap"));
    }

    #[test]
    fn entry_constructor_sorts_merges_and_validates() {
        let d = Distribution::try_from_entries(2, vec![(3, 0.25), (0, 0.5), (3, 0.25), (1, 0.0)])
            .unwrap();
        assert_eq!(d.prob(3), 0.5);
        assert_eq!(d.prob(0), 0.5);
        assert_eq!(d.support_len(), 2);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![(0u64, 0.5), (3u64, 0.5)]);
        let err = Distribution::try_from_entries(2, vec![(4, 1.0)]).unwrap_err();
        assert_eq!(
            err,
            DistError::IndexOutOfRange {
                index: 4,
                n_bits: 2
            }
        );
        assert!(Counts::try_from_entries(1, vec![(2, 1)]).is_err());
    }

    #[test]
    fn equality_is_representation_independent() {
        let probs = vec![0.5, 0.0, 0.25, 0.25];
        let canonical = Distribution::try_from_probs(2, probs.clone()).unwrap();
        let dense = canonical.clone().with_density_threshold(0.0);
        let sparse = canonical.clone().with_density_threshold(2.0);
        assert!(dense.is_dense());
        assert!(!sparse.is_dense());
        assert_eq!(dense, sparse);
        assert_eq!(canonical, sparse);
        assert_eq!(dense.densify().unwrap(), sparse.densify().unwrap());
        // Content differences are still detected.
        let other = Distribution::try_from_probs(2, vec![0.5, 0.0, 0.25, 0.0]).unwrap();
        assert_ne!(canonical, other);
    }

    #[test]
    fn canonical_representation_follows_the_density_threshold() {
        // Half-full on 2 bits → dense; nearly empty on 10 bits → sparse.
        assert!(Distribution::try_from_probs(2, vec![0.5, 0.5])
            .unwrap()
            .is_dense());
        let sparse = Distribution::try_from_probs(10, vec![1.0]).unwrap();
        assert!(!sparse.is_dense());
        assert_eq!(sparse.support_len(), 1);
    }

    #[test]
    #[should_panic(expected = "allocation cap")]
    fn uniform_rejects_uncapped_width() {
        let _ = Distribution::uniform(DEFAULT_DENSE_CAP_BITS + 1);
    }

    #[test]
    fn normalized_is_a_probability_vector() {
        let d = Distribution::try_from_probs(2, vec![3.0, -1.0, 1.0, 0.0])
            .unwrap()
            .normalized();
        assert!((d.total() - 1.0).abs() < 1e-12);
        assert!(d.iter().all(|(_, p)| p >= 0.0));
        assert!((d.prob(0) - 0.75).abs() < 1e-12, "negatives clamp to zero");
        assert_eq!(d.prob(1), 0.0);
    }

    #[test]
    fn normalized_of_zero_mass_is_uniform() {
        let d = Distribution::try_from_probs(1, vec![0.0, 0.0])
            .unwrap()
            .normalized();
        assert!((d.prob(0) - 0.5).abs() < 1e-12);
        assert!((d.prob(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn marginal_reorders_bits() {
        // p(bit0=1) = 0.3, p(bit1=1) = 0.6, independent.
        let probs = vec![0.28, 0.12, 0.42, 0.18];
        let d = Distribution::try_from_probs(2, probs).unwrap();
        let m0 = d.marginal(&[0]);
        assert!((m0.prob(1) - 0.3).abs() < 1e-12);
        let m1 = d.marginal(&[1]);
        assert!((m1.prob(1) - 0.6).abs() < 1e-12);
        // Swapped pair marginal: bit 0 of the result is original bit 1.
        let swapped = d.marginal(&[1, 0]);
        assert!((swapped.prob(0b01) - d.prob(0b10)).abs() < 1e-12);
        assert!((swapped.prob(0b10) - d.prob(0b01)).abs() < 1e-12);
    }

    #[test]
    fn wide_marginal_never_allocates_the_outcome_space() {
        // A 48-bit distribution with two outcomes: marginals must come out
        // of a support traversal, not a 2^48 table.
        let hi = (1u64 << 47) | 1;
        let d = Distribution::try_from_entries(48, vec![(0, 0.5), (hi, 0.5)]).unwrap();
        let m = d.marginal(&[0, 47]);
        assert!((m.prob(0b00) - 0.5).abs() < 1e-15);
        assert!((m.prob(0b11) - 0.5).abs() < 1e-15);
        assert_eq!(m.support_len(), 2);
    }

    #[test]
    fn hellinger_bounds_identity_and_symmetry() {
        let p = Distribution::try_from_probs(3, (0..8).map(|i| (i + 1) as f64).collect())
            .unwrap()
            .normalized();
        let q = Distribution::try_from_probs(3, (0..8).map(|i| ((i * 3) % 7) as f64).collect())
            .unwrap()
            .normalized();
        let f = hellinger_fidelity(&p, &q);
        assert!((0.0..=1.0).contains(&f));
        assert!((hellinger_fidelity(&p, &p) - 1.0).abs() < 1e-12);
        assert!((f - hellinger_fidelity(&q, &p)).abs() < 1e-15);
        // Disjoint supports → 0.
        let a = Distribution::try_from_probs(1, vec![1.0, 0.0]).unwrap();
        let b = Distribution::try_from_probs(1, vec![0.0, 1.0]).unwrap();
        assert_eq!(hellinger_fidelity(&a, &b), 0.0);
    }

    #[test]
    fn hellinger_ignores_scale() {
        let p = Distribution::try_from_probs(2, vec![0.1, 0.2, 0.3, 0.4]).unwrap();
        let scaled = Distribution::try_from_probs(2, vec![0.2, 0.4, 0.6, 0.8]).unwrap();
        assert!((hellinger_fidelity(&p, &scaled) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hellinger_works_on_wide_sparse_supports() {
        let p = Distribution::try_from_entries(40, vec![(7, 0.5), (1 << 39, 0.5)]).unwrap();
        let q = Distribution::try_from_entries(40, vec![(7, 1.0)]).unwrap();
        assert!((hellinger_fidelity(&p, &p) - 1.0).abs() < 1e-12);
        assert!((hellinger_fidelity(&p, &q) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn counts_pad_total_and_frequencies() {
        let c = Counts::try_from_counts(2, vec![30, 10]).unwrap();
        assert_eq!(c.dim(), 4);
        assert_eq!(c.count(1), 10);
        assert_eq!(c.count(3), 0);
        assert_eq!(c.shots(), 40);
        assert!((c.frequency(0) - 0.75).abs() < 1e-12);
        let d = c.to_distribution();
        assert!((d.total() - 1.0).abs() < 1e-12);
        assert!((d.prob(0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn counts_reject_too_many_entries() {
        let err = Counts::try_from_counts(1, vec![1; 3]).expect_err("3 entries, 1 bit");
        assert_eq!(err, DistError::ExcessEntries { len: 3, n_bits: 1 });
        assert!(err.to_string().contains("do not fit"));
    }

    #[test]
    fn zero_shot_counts_yield_uniform_and_infinite_error() {
        let c = Counts::try_from_counts(1, vec![]).unwrap();
        let d = c.to_distribution();
        assert!((d.prob(0) - 0.5).abs() < 1e-12);
        assert!(c.std_error(0).is_infinite());
        assert_eq!(c.frequency(1), 0.0);
    }

    #[test]
    fn counts_marginal_loses_no_shots_and_reorders_bits() {
        let c = Counts::try_from_counts(2, vec![7, 3, 2, 8]).unwrap();
        let m0 = c.marginal(&[0]);
        assert_eq!(m0.densify().unwrap(), vec![9, 11]);
        assert_eq!(m0.shots(), c.shots());
        let swapped = c.marginal(&[1, 0]);
        assert_eq!(swapped.count(0b01), c.count(0b10));
        assert_eq!(swapped.count(0b10), c.count(0b01));
    }

    #[test]
    fn counts_absorb_merges_sorted_streams() {
        let mut a = Counts::try_from_counts(1, vec![1, 2]).unwrap();
        a.absorb(&Counts::try_from_counts(1, vec![10, 20]).unwrap());
        assert_eq!(a.densify().unwrap(), vec![11, 22]);
        // Disjoint supports merge too (and across representations).
        let mut p = Counts::try_from_entries(33, vec![(1 << 32, 5)]).unwrap();
        p.absorb(&Counts::try_from_entries(33, vec![(3, 2)]).unwrap());
        assert_eq!(p.count(3), 2);
        assert_eq!(p.count(1 << 32), 5);
        assert_eq!(p.shots(), 7);
    }

    #[test]
    fn std_error_shrinks_with_shots() {
        let small = Counts::try_from_counts(1, vec![50, 50]).unwrap();
        let large = Counts::try_from_counts(1, vec![5000, 5000]).unwrap();
        assert!(large.std_error(0) < small.std_error(0));
        // √(0.25/10000) = 0.005.
        assert!((large.std_error(0) - 0.005).abs() < 1e-12);
    }

    #[test]
    fn sampled_fidelity_matches_plugin_estimate_with_shrinking_bars() {
        let p = Counts::try_from_counts(1, vec![60, 40]).unwrap();
        let q = Counts::try_from_counts(1, vec![40, 60]).unwrap();
        let est = hellinger_fidelity_sampled(&p, &q);
        let exact = hellinger_fidelity(&p.to_distribution(), &q.to_distribution());
        assert!((est.value - exact).abs() < 1e-12);
        assert!(est.std_error > 0.0 && est.std_error < 0.2);
        // 100x the shots → ~10x tighter bar.
        let p10 = Counts::try_from_counts(1, vec![6000, 4000]).unwrap();
        let q10 = Counts::try_from_counts(1, vec![4000, 6000]).unwrap();
        let tight = hellinger_fidelity_sampled(&p10, &q10);
        assert!(tight.std_error < est.std_error / 5.0);
        assert!(est.consistent_with(exact, 1.0));
        // Identical tables → fidelity 1 with a vanishing bar.
        let same = hellinger_fidelity_sampled(&p, &p);
        assert!((same.value - 1.0).abs() < 1e-12);
        assert!(same.std_error < 1e-6);
        // Zero shots on either side → infinite bar.
        let empty = Counts::try_from_counts(1, vec![]).unwrap();
        assert!(hellinger_fidelity_sampled(&p, &empty)
            .std_error
            .is_infinite());
    }
}
