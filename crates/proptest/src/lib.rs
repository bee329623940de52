//! Vendored property-testing shim with the slice of the `proptest` API this
//! workspace uses: the [`proptest!`] macro, [`strategy::Strategy`] with
//! `prop_map`/`prop_filter`, [`prop_oneof!`], tuple/range strategies,
//! `prop::collection::vec`, `prop::sample::select`, and the
//! `prop_assert!`/`prop_assert_eq!`/`prop_assume!` assertion macros.
//!
//! The container this repository builds in has no crates.io access, so the
//! shim reimplements the surface in-tree. Differences from upstream worth
//! knowing:
//!
//! * **No shrinking.** A failing case reports its inputs (via the assertion
//!   message) but is not minimized.
//! * **Deterministic.** Each test derives its RNG seed from its own name,
//!   so failures reproduce exactly and CI runs are stable.
//! * Rejections (`prop_assume!`, `prop_filter`) are retried with a bounded
//!   budget; an over-restrictive filter panics instead of looping forever.

pub mod strategy {
    use rand::rngs::StdRng;
    use rand::RngExt;

    /// A generator of test values.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { source: self, f }
        }

        /// Discards generated values failing the predicate (bounded retry).
        fn prop_filter<F>(self, reason: impl Into<String>, f: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                source: self,
                reason: reason.into(),
                f,
            }
        }
    }

    impl<T> Strategy for Box<dyn Strategy<Value = T>> {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            (**self).generate(rng)
        }
    }

    /// Boxes a strategy for heterogeneous collections ([`crate::prop_oneof!`]).
    pub fn boxed<T, S>(s: S) -> Box<dyn Strategy<Value = T>>
    where
        S: Strategy<Value = T> + 'static,
    {
        Box::new(s)
    }

    /// Always yields a clone of the same value.
    #[derive(Clone, Debug)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut StdRng) -> O {
            (self.f)(self.source.generate(rng))
        }
    }

    /// See [`Strategy::prop_filter`].
    #[derive(Clone)]
    pub struct Filter<S, F> {
        source: S,
        reason: String,
        f: F,
    }

    impl<S, F> Strategy for Filter<S, F>
    where
        S: Strategy,
        F: Fn(&S::Value) -> bool,
    {
        type Value = S::Value;
        fn generate(&self, rng: &mut StdRng) -> S::Value {
            for _ in 0..1_000 {
                let v = self.source.generate(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!(
                "prop_filter '{}' rejected 1000 consecutive samples",
                self.reason
            );
        }
    }

    /// Uniform choice between boxed alternatives ([`crate::prop_oneof!`]).
    pub struct Union<T> {
        arms: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> Union<T> {
        /// Builds a union of the given arms.
        ///
        /// # Panics
        ///
        /// Panics if `arms` is empty.
        pub fn new(arms: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            let idx = (rng.random::<u64>() % self.arms.len() as u64) as usize;
            self.arms[idx].generate(rng)
        }
    }

    macro_rules! impl_int_range {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + (rng.random::<u64>() % span) as $t
                }
            }
        )*};
    }
    impl_int_range!(usize, u64, u32, u16, u8);

    macro_rules! impl_signed_range {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i64 - self.start as i64) as u64;
                    (self.start as i64 + (rng.random::<u64>() % span) as i64) as $t
                }
            }
        )*};
    }
    impl_signed_range!(i64, i32, i16, i8);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut StdRng) -> f64 {
            self.start + rng.random::<f64>() * (self.end - self.start)
        }
    }

    impl Strategy for core::ops::Range<f32> {
        type Value = f32;
        fn generate(&self, rng: &mut StdRng) -> f32 {
            self.start + rng.random::<f64>() as f32 * (self.end - self.start)
        }
    }

    macro_rules! impl_tuple {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }
    impl_tuple! {
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::RngExt;

    /// Element-count bound for [`vec`](fn@vec): an exact count or a half-open range.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        min: usize,
        max_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                min: n,
                max_exclusive: n + 1,
            }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max_exclusive: r.end,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max_exclusive: *r.end() + 1,
            }
        }
    }

    /// Generates `Vec`s whose elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec`](fn@vec).
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let span = (self.size.max_exclusive - self.size.min) as u64;
            let len = self.size.min + (rng.random::<u64>() % span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod bool {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::RngExt;

    /// Uniform boolean strategy (`prop::bool::ANY`).
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    /// Generates `true` or `false` with equal probability.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut StdRng) -> bool {
            rng.random::<u64>() & 1 == 1
        }
    }
}

pub mod sample {
    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::RngExt;

    /// Uniformly selects one of the given options.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select needs at least one option");
        Select { options }
    }

    /// See [`select`].
    #[derive(Clone)]
    pub struct Select<T> {
        options: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut StdRng) -> T {
            let idx = (rng.random::<u64>() % self.options.len() as u64) as usize;
            self.options[idx].clone()
        }
    }
}

pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Per-block configuration (`#![proptest_config(...)]`).
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of accepted cases to run.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    impl ProptestConfig {
        /// A configuration running `cases` accepted cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// Why a test case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// The case was vetoed (`prop_assume!`); it is retried, not failed.
        Reject(String),
        /// A property assertion failed.
        Fail(String),
    }

    impl TestCaseError {
        /// A failure with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// A rejection with the given reason.
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    /// Outcome of one generated case.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Runs `body` until `config.cases` cases are accepted, panicking on the
    /// first failure. `name` seeds the (deterministic) generator.
    pub fn run<F>(config: ProptestConfig, name: &str, mut body: F)
    where
        F: FnMut(&mut StdRng) -> TestCaseResult,
    {
        let mut seed = 0xcbf2_9ce4_8422_2325u64; // FNV-1a over the name.
        for b in name.bytes() {
            seed ^= b as u64;
            seed = seed.wrapping_mul(0x100_0000_01b3);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut accepted = 0u32;
        let mut rejected = 0u32;
        let reject_budget = config.cases.saturating_mul(64).max(1024);
        while accepted < config.cases {
            match body(&mut rng) {
                Ok(()) => accepted += 1,
                Err(TestCaseError::Reject(why)) => {
                    rejected += 1;
                    if rejected > reject_budget {
                        panic!("proptest '{name}': too many rejections ({rejected}), last: {why}");
                    }
                }
                Err(TestCaseError::Fail(msg)) => {
                    panic!("proptest '{name}' failed at case {accepted}: {msg}")
                }
            }
        }
    }
}

pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};

    /// The `prop::` namespace (`prop::collection::vec`, `prop::sample::select`).
    pub mod prop {
        pub use crate::bool;
        pub use crate::collection;
        pub use crate::sample;
    }
}

/// Fails the current case with a formatted message unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case unless the two expressions compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` != `{:?}` ({} vs {})",
            l,
            r,
            stringify!($left),
            stringify!($right)
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)+);
    }};
}

/// Vetoes the current case (retried with fresh inputs) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::boxed($arm)),+])
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            config = $crate::test_runner::ProptestConfig::default(); $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (config = $cfg:expr; $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                $crate::test_runner::run(config, stringify!($name), |rng| {
                    $(let $pat = $crate::strategy::Strategy::generate(&($strat), rng);)*
                    $body
                    ::core::result::Result::Ok(())
                });
            }
        )*
    };
}
