//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate.
//!
//! The build environment has no registry access, so this workspace-local
//! crate reimplements the slice of proptest the fhp workspace uses:
//!
//! - the [`proptest!`] and [`prop_compose!`] macros with `var in strategy`
//!   bindings and an optional `#![proptest_config(..)]` attribute;
//! - [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`];
//! - integer-range strategies, [`any`](crate::arbitrary::any),
//!   [`collection::vec`], and [`option::of`].
//!
//! Test cases are drawn from a [SplitMix64](rand::rngs::SplitMix64)
//! stream seeded from the test's name, so every run of a given test
//! binary explores the same cases — failures reproduce without a
//! persistence file. There is **no shrinking**: a failing case reports
//! its case number and message and panics immediately. That trades
//! minimal counterexamples for zero dependencies, which is the right
//! trade for an offline CI gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod strategy;
pub mod test_runner;

pub mod arbitrary {
    //! The `any::<T>()` entry point.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Draws an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.gen::<u64>() as $t
                }
            }
        )*};
    }

    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.gen::<bool>()
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.gen::<f64>()
        }
    }

    /// Strategy producing arbitrary values of `T`.
    #[derive(Clone, Copy, Debug)]
    pub struct Any<T> {
        _marker: std::marker::PhantomData<T>,
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn sample_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The strategy for "any value of `T`" — `any::<bool>()` et al.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any {
            _marker: std::marker::PhantomData,
        }
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Sizes accepted by [`vec()`]: an exact length or a range of lengths.
    pub trait IntoSizeRange {
        /// Chooses a concrete length.
        fn choose_len(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn choose_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for std::ops::Range<usize> {
        fn choose_len(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl IntoSizeRange for std::ops::RangeInclusive<usize> {
        fn choose_len(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    /// Strategy for vectors of `element` values.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    impl<S: Strategy, L: IntoSizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;

        fn sample_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.choose_len(rng);
            (0..n).map(|_| self.element.sample_value(rng)).collect()
        }
    }

    /// A vector whose length is drawn from `len` and whose elements are
    /// drawn from `element`.
    pub fn vec<S: Strategy, L: IntoSizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }
}

pub mod option {
    //! `Option` strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Strategy for optional values.
    #[derive(Clone, Debug)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn sample_value(&self, rng: &mut TestRng) -> Option<S::Value> {
            // `None` one case in four, like upstream's default weighting.
            if rng.gen_range(0u32..4) == 0 {
                None
            } else {
                Some(self.inner.sample_value(rng))
            }
        }
    }

    /// `None` sometimes, `Some(value from the inner strategy)` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

pub mod sample {
    //! Strategies drawing from explicit value lists, mirroring upstream
    //! `proptest::sample`.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Strategy choosing uniformly from a fixed list of values.
    #[derive(Clone, Debug)]
    pub struct Select<T> {
        values: Vec<T>,
    }

    impl<T: Clone + std::fmt::Debug> Strategy for Select<T> {
        type Value = T;

        fn sample_value(&self, rng: &mut TestRng) -> T {
            let i = rng.gen_range(0..self.values.len());
            self.values[i].clone()
        }
    }

    /// Uniform choice among the given values (a `Vec`, an array, or a
    /// cloned slice).
    ///
    /// # Panics
    ///
    /// Panics immediately if `values` is empty — there is nothing to
    /// select.
    pub fn select<T, I>(values: I) -> Select<T>
    where
        T: Clone + std::fmt::Debug,
        I: Into<Vec<T>>,
    {
        let values = values.into();
        assert!(
            !values.is_empty(),
            "sample::select needs at least one value"
        );
        Select { values }
    }
}

pub mod prelude {
    //! Everything a `proptest!` test file needs.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_compose, proptest};
}

/// Runs each embedded `#[test] fn name(bindings) { body }` over many
/// sampled cases. Supports a leading
/// `#![proptest_config(ProptestConfig::with_cases(n))]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! { ($crate::test_runner::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (($cfg:expr); $($(#[$meta:meta])* fn $name:ident($($var:pat in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::TestRng::for_test(stringify!($name));
                for case in 0..config.cases {
                    $(let $var = $crate::strategy::Strategy::sample_value(&($strat), &mut rng);)*
                    let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(e) = outcome {
                        ::std::panic!(
                            "proptest {}: case {}/{} failed: {}",
                            stringify!($name), case + 1, config.cases, e
                        );
                    }
                }
            }
        )*
    };
}

/// Defines `fn $name(args) -> impl Strategy<Value = $ret>` from component
/// strategies, mirroring proptest's two-argument-list form.
#[macro_export]
macro_rules! prop_compose {
    ($(#[$meta:meta])* $vis:vis fn $name:ident($($arg:ident: $argty:ty),* $(,)?)
        ($($var:pat in $strat:expr),* $(,)?) -> $ret:ty $body:block) => {
        $(#[$meta])*
        $vis fn $name($($arg: $argty),*) -> impl $crate::strategy::Strategy<Value = $ret> {
            $crate::strategy::FnStrategy::new(move |rng| {
                $(let $var = $crate::strategy::Strategy::sample_value(&($strat), rng);)*
                $body
            })
        }
    };
}

/// Fails the current test case with a message unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!($($fmt)*),
            ));
        }
    };
}

/// Fails the current test case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{:?}` == `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(left == right, $($fmt)*);
    }};
}

/// Fails the current test case unless the two expressions differ.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left != right,
            "assertion failed: `{:?}` != `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(left != right, $($fmt)*);
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    prop_compose! {
        /// A pair (n, n + delta) exercising composed strategies.
        fn arb_pair()(n in 1usize..50, delta in 0usize..10) -> (usize, usize) {
            (n, n + delta)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_hold(x in 3u64..17, y in -5i32..=5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-5..=5).contains(&y));
        }

        #[test]
        fn composed_pairs_ordered((a, b) in arb_pair()) {
            prop_assert!(a <= b);
            prop_assert_eq!(b - a, b - a);
        }

        #[test]
        fn vec_lengths_exact(v in crate::collection::vec(any::<bool>(), 7usize)) {
            prop_assert_eq!(v.len(), 7);
        }

        #[test]
        fn vec_lengths_ranged(v in crate::collection::vec(0u8..10, 2usize..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            for x in &v {
                prop_assert!(*x < 10);
            }
        }

        #[test]
        fn option_of_produces_both(o in crate::option::of(0usize..5)) {
            if let Some(x) = o {
                prop_assert!(x < 5);
            }
        }

        #[test]
        fn select_draws_only_listed_values(x in crate::sample::select(vec![2u32, 3, 5, 7])) {
            prop_assert!([2, 3, 5, 7].contains(&x));
        }
    }

    #[test]
    fn select_covers_every_value() {
        use crate::strategy::Strategy;
        let s = crate::sample::select(["a", "b", "c"]);
        let mut rng = TestRng::for_test("select_covers_every_value");
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..64 {
            seen.insert(s.sample_value(&mut rng));
        }
        assert_eq!(seen.len(), 3, "all three values drawn: {seen:?}");
    }

    #[test]
    fn failing_case_panics_with_message() {
        let result = std::panic::catch_unwind(|| {
            proptest! {
                #![proptest_config(ProptestConfig::with_cases(8))]
                #[allow(unused)]
                fn always_fails(x in 0u32..4) {
                    prop_assert!(x > 100, "x was {}", x);
                }
            }
            always_fails();
        });
        let err = result.expect_err("must fail");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("always_fails"), "message was {msg}");
        assert!(msg.contains("x was"), "message was {msg}");
    }

    #[test]
    fn cases_are_reproducible() {
        use crate::strategy::Strategy;
        let draw = |label: &str| -> Vec<u64> {
            let mut rng = TestRng::for_test(label);
            (0..20)
                .map(|_| (0u64..1000).sample_value(&mut rng))
                .collect()
        };
        assert_eq!(draw("alpha"), draw("alpha"));
        assert_ne!(draw("alpha"), draw("beta"));
    }
}
