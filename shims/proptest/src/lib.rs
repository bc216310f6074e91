//! Offline drop-in subset of the `proptest` API.
//!
//! The build container has no network access and no vendored registry, so
//! the workspace replaces its `proptest` dev-dependency with this shim
//! (see `[workspace.dependencies]` in the root manifest). It provides the
//! surface the property tests use:
//!
//! * the [`Strategy`] trait with `prop_map` / `prop_flat_map`, implemented
//!   for integer and float ranges, tuples of strategies, and [`Just`];
//! * [`collection::vec`] with exact or ranged lengths;
//! * the [`proptest!`] macro with optional
//!   `#![proptest_config(ProptestConfig::with_cases(n))]`;
//! * [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assume!`].
//!
//! Differences from upstream: inputs are drawn from a deterministic
//! per-test RNG (seeded from the test name, overridable with
//! `PROPTEST_SEED`) and failing cases are **not shrunk** — the failure
//! message reports the case number and seed so a run is reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Per-run configuration (subset of upstream's `ProptestConfig`).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of successful cases required for the test to pass.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config that runs `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// The test-runner internals used by the [`proptest!`] macro expansion.
pub mod test_runner {
    pub use super::ProptestConfig;

    /// Why a generated case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// A `prop_assert*!` failed; the case (and test) fails.
        Fail(String),
        /// A `prop_assume!` rejected the inputs; the case is skipped.
        Reject(String),
    }

    /// Deterministic xorshift* RNG driving input generation.
    ///
    /// Seeded from the test's name so every test draws an independent,
    /// stable stream; `PROPTEST_SEED` perturbs all streams at once for
    /// exploring alternative inputs.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// RNG for the named test, honoring `PROPTEST_SEED`.
        pub fn for_test(name: &str) -> Self {
            // FNV-1a over the name, mixed with the optional env seed.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            if let Some(s) = std::env::var("PROPTEST_SEED").ok().and_then(|v| v.parse::<u64>().ok())
            {
                h ^= s.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            }
            TestRng { state: h | 1 }
        }

        /// The current seed, reported on failure for reproduction.
        pub fn seed(&self) -> u64 {
            self.state
        }

        /// Next 64 uniform bits (xorshift64*).
        pub fn next_u64(&mut self) -> u64 {
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        /// Uniform draw from `[0, span)`, `span > 0`.
        pub fn below(&mut self, span: u64) -> u64 {
            debug_assert!(span > 0);
            ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64
        }

        /// Uniform draw from `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

/// Strategies: how to generate random values of a type.
pub mod strategy {
    use super::test_runner::TestRng;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    /// A generator of random values (subset of upstream's `Strategy`;
    /// there is no value tree / shrinking — `new_value` samples directly).
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { source: self, f }
        }

        /// Builds a second strategy from each generated value and samples
        /// it (dependent generation).
        fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S2: Strategy,
            F: Fn(Self::Value) -> S2,
        {
            FlatMap { source: self, f }
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S, U, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;
        fn new_value(&self, rng: &mut TestRng) -> U {
            (self.f)(self.source.new_value(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        source: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;
        fn new_value(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.source.new_value(rng)).new_value(rng)
        }
    }

    macro_rules! impl_int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = self.end.wrapping_sub(self.start) as u64;
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = hi.wrapping_sub(lo) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo.wrapping_add(rng.below(span + 1) as $t)
                }
            }
        )*};
    }

    impl_int_strategy!(usize, u64, u32, i64, i32, u8);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn new_value(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    impl Strategy for RangeInclusive<f64> {
        type Value = f64;
        fn new_value(&self, rng: &mut TestRng) -> f64 {
            let (lo, hi) = (*self.start(), *self.end());
            assert!(lo <= hi, "empty range strategy");
            lo + rng.unit_f64() * (hi - lo)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.new_value(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
    }

    /// A boxed strategy placeholder kept for signature familiarity.
    pub struct BoxedStrategy<T> {
        inner: Box<dyn Fn(&mut TestRng) -> T>,
        _marker: PhantomData<T>,
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            (self.inner)(rng)
        }
    }

    /// Boxing adapter mirroring upstream's `Strategy::boxed`.
    pub fn boxed<S>(s: S) -> BoxedStrategy<S::Value>
    where
        S: Strategy + 'static,
    {
        BoxedStrategy { inner: Box::new(move |rng| s.new_value(rng)), _marker: PhantomData }
    }
}

/// Collection strategies (subset of upstream's `proptest::collection`).
pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Lengths accepted by [`vec`]: an exact `usize` or a range.
    pub trait IntoSizeRange {
        /// Inclusive `(min, max)` length bounds.
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty vec length range");
            (self.start, self.end - 1)
        }
    }

    impl IntoSizeRange for RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start() <= self.end(), "empty vec length range");
            (*self.start(), *self.end())
        }
    }

    /// Strategy yielding vectors of `element`-generated values.
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.min == self.max {
                self.min
            } else {
                self.min + rng.below((self.max - self.min + 1) as u64) as usize
            };
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }

    /// Vector of values from `element`, with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }
}

pub use strategy::{Just, Strategy};

/// Everything a `use proptest::prelude::*` import expects.
pub mod prelude {
    pub use super::strategy::{Just, Strategy};
    pub use super::test_runner::TestCaseError;
    pub use super::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
}

/// Fails the current case unless `cond` holds; with a format string the
/// message is used verbatim, otherwise the condition's source is shown.
#[macro_export]
macro_rules! prop_assert {
    // `if cond {} else` (not `if !cond`) so comparisons on partially
    // ordered operands don't trip clippy::neg_cmp_op_on_partial_ord at
    // every call site.
    ($cond:expr $(,)?) => {
        if $cond {
        } else {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                ::std::string::String::from(concat!("assertion failed: ", stringify!($cond))),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if $cond {
        } else {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case unless the operands compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        // `match` (not `let`) so temporaries in the operands live through
        // the comparison, mirroring std's `assert_eq!` expansion.
        match (&$left, &$right) {
            (left, right) => {
                if !(left == right) {
                    return ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                        ::std::format!(
                            concat!(
                                "assertion failed: `",
                                stringify!($left),
                                " == ",
                                stringify!($right),
                                "`\n  left: `{:?}`\n right: `{:?}`"
                            ),
                            left,
                            right
                        ),
                    ));
                }
            }
        }
    };
}

/// Skips the current case (drawing a fresh one) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                ::std::string::String::from(stringify!($cond)),
            ));
        }
    };
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(48))]
///     #[test]
///     fn sum_commutes(a in 0u64..100, b in 0u64..100) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            $(let $arg = $strat;)+
            let mut __rng = $crate::test_runner::TestRng::for_test(stringify!($name));
            let mut __passed: u32 = 0;
            let mut __rejected: u32 = 0;
            while __passed < __config.cases {
                let __seed = __rng.seed();
                $(let $arg = $crate::strategy::Strategy::new_value(&$arg, &mut __rng);)+
                let __outcome: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                    (move || {
                        $body;
                        ::core::result::Result::Ok(())
                    })();
                match __outcome {
                    ::core::result::Result::Ok(()) => __passed += 1,
                    ::core::result::Result::Err(
                        $crate::test_runner::TestCaseError::Reject(__why),
                    ) => {
                        __rejected += 1;
                        assert!(
                            __rejected < __config.cases.saturating_mul(16).saturating_add(256),
                            "too many prop_assume rejections ({}): {}",
                            __rejected, __why
                        );
                    }
                    ::core::result::Result::Err(
                        $crate::test_runner::TestCaseError::Fail(__msg),
                    ) => {
                        panic!(
                            "property failed after {} passing case(s) \
                             (rng state {:#x}):\n{}",
                            __passed, __seed, __msg
                        );
                    }
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use super::collection;
    use super::prelude::*;
    use super::test_runner::TestRng;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::for_test("ranges_respect_bounds");
        for _ in 0..500 {
            let a = (3usize..9).new_value(&mut rng);
            assert!((3..9).contains(&a));
            let b = (2usize..=5).new_value(&mut rng);
            assert!((2..=5).contains(&b));
            let c = (-2.0f64..2.0).new_value(&mut rng);
            assert!((-2.0..2.0).contains(&c));
            let _ = (0u64..u64::MAX).new_value(&mut rng);
        }
    }

    #[test]
    fn vec_lengths_obey_size_spec() {
        let mut rng = TestRng::for_test("vec_lengths_obey_size_spec");
        let exact = collection::vec(0u64..10, 4usize);
        let ranged = collection::vec(0u64..10, 1..=6usize);
        for _ in 0..200 {
            assert_eq!(exact.new_value(&mut rng).len(), 4);
            let n = ranged.new_value(&mut rng).len();
            assert!((1..=6).contains(&n));
        }
    }

    #[test]
    fn flat_map_threads_dependent_values() {
        let strat = (1usize..5).prop_flat_map(|n| (Just(n), collection::vec(0usize..100, n)));
        let mut rng = TestRng::for_test("flat_map_threads_dependent_values");
        for _ in 0..100 {
            let (n, v) = strat.new_value(&mut rng);
            assert_eq!(v.len(), n);
        }
    }

    #[test]
    fn deterministic_per_test_name() {
        let mut a = TestRng::for_test("same");
        let mut b = TestRng::for_test("same");
        for _ in 0..50 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_runs_and_assertions_pass(a in 0u64..100, b in 0u64..100) {
            prop_assume!(a != 99);
            prop_assert!(a + b < 200, "sum {} out of range", a + b);
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn macro_tuple_and_map_strategies(
            pair in (0usize..10, -1.0f64..1.0),
            doubled in (0usize..50).prop_map(|x| x * 2),
        ) {
            prop_assert!(pair.0 < 10);
            prop_assert!(pair.1.abs() <= 1.0);
            prop_assert_eq!(doubled % 2, 0);
        }
    }

    #[test]
    #[should_panic(expected = "property failed")]
    fn failing_property_panics() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            fn always_fails(x in 0u64..10) {
                prop_assert!(x > 100);
            }
        }
        always_fails();
    }
}
