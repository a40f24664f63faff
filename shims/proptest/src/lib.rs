//! Minimal stand-in for the `proptest` crate.
//!
//! Supports the subset the workspace's property tests use: the
//! [`strategy::Strategy`] trait with `prop_map`/`prop_flat_map`, integer and
//! float range strategies, tuple strategies, [`arbitrary::any`],
//! [`collection::vec`], the [`proptest!`] macro (including
//! `#![proptest_config(...)]` and `name: Type` shorthand parameters), and
//! the `prop_assert*` / `prop_assume!` macros. Cases are generated from a
//! deterministic seed (override with `PROPTEST_SEED`); there is no
//! shrinking, so a failing case reports that seed and the `Debug` of the
//! inputs it drew.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;
    use rand::SampleRange;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then samples from the strategy `f` builds
        /// from it.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Strategy returned by [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn sample(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.sample(rng)).sample(rng)
        }
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<T>(Box<dyn DynStrategy<Value = T>>);

    trait DynStrategy {
        type Value;
        fn dyn_sample(&self, rng: &mut TestRng) -> Self::Value;
    }

    impl<S: Strategy> DynStrategy for S {
        type Value = S::Value;
        fn dyn_sample(&self, rng: &mut TestRng) -> S::Value {
            self.sample(rng)
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            self.0.dyn_sample(rng)
        }
    }

    /// A strategy that always yields a clone of the same value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    self.clone().sample_from(rng)
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    self.clone().sample_from(rng)
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

    macro_rules! impl_tuple_strategy {
        ($(($($n:tt $t:ident),+))*) => {$(
            impl<$($t: Strategy),+> Strategy for ($($t,)+) {
                type Value = ($($t::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$n.sample(rng),)+)
                }
            }
        )*};
    }
    impl_tuple_strategy! {
        (0 A)
        (0 A, 1 B)
        (0 A, 1 B, 2 C)
        (0 A, 1 B, 2 C, 3 D)
        (0 A, 1 B, 2 C, 3 D, 4 E)
        (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
    }
}

pub mod arbitrary {
    //! Full-domain value generation.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Random;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws one value from the type's full domain.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    <$t as Random>::random(rng)
                }
            }
        )*};
    }
    impl_arbitrary!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, isize, bool, f64, f32);

    /// Strategy returned by [`any`].
    pub struct Any<T>(core::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The full-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(core::marker::PhantomData)
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::RngExt;

    /// A collection length specification: an exact length or a half-open
    /// range of lengths.
    #[derive(Clone, Debug)]
    pub struct SizeRange(core::ops::Range<usize>);

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange(n..n + 1)
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            SizeRange(r)
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        len: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let range = self.len.0.clone();
            let n = if range.is_empty() {
                range.start
            } else {
                rng.random_range(range)
            };
            (0..n).map(|_| self.elem.sample(rng)).collect()
        }
    }

    /// A strategy for `Vec`s whose length is drawn from `len` and whose
    /// elements are drawn from `elem`.
    pub fn vec<S: Strategy>(elem: S, len: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            len: len.into(),
        }
    }
}

pub mod test_runner {
    //! Case-count configuration and the error type threaded through
    //! `prop_assert*`.

    /// The generator driving all strategies (the shimmed `StdRng`).
    pub type TestRng = rand::rngs::StdRng;

    /// Runner configuration; only `cases` is honoured by the shim.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of successful (non-rejected) cases required per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(256);
            ProptestConfig { cases }
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// An assertion failed; the case is a genuine failure.
        Fail(String),
        /// `prop_assume!` rejected the inputs; draw a fresh case.
        Reject,
    }

    impl TestCaseError {
        /// Creates a failure with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// Creates a rejection.
        pub fn reject() -> Self {
            TestCaseError::Reject
        }
    }

    /// The seed every test's generator starts from: `PROPTEST_SEED` if
    /// set, a fixed default otherwise. A failing case reports it.
    pub fn seed() -> u64 {
        std::env::var("PROPTEST_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0x5EED_CA5E_u64)
    }

    /// Creates the deterministic per-test generator from [`seed`].
    pub fn new_rng() -> TestRng {
        use rand::SeedableRng;
        TestRng::seed_from_u64(seed())
    }
}

/// The commonly imported names, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Defines property tests: `proptest! { #[test] fn f(x in strat) {...} }`.
///
/// Supports an optional leading `#![proptest_config(expr)]`, multiple test
/// functions per invocation, `pat in strategy` parameters, and `name: Type`
/// shorthand for `name in any::<Type>()`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            cfg = (<$crate::test_runner::ProptestConfig as ::core::default::Default>::default());
            $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`]: expands each test fn.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident ($($params:tt)*) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::__proptest_body! { cfg = ($cfg); body = $body; [$($params)*] -> [] }
        }
        $crate::__proptest_fns! { cfg = ($cfg); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`]: munches the parameter list into
/// `(pattern, strategy)` pairs, then emits the case loop.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    // `name: Type` shorthand.
    (cfg = $cfg:tt; body = $body:block;
     [$fname:ident : $ty:ty , $($rest:tt)*] -> [$($acc:tt)*]) => {
        $crate::__proptest_body! { cfg = $cfg; body = $body;
            [$($rest)*] -> [$($acc)* ($fname, $crate::arbitrary::any::<$ty>())] }
    };
    (cfg = $cfg:tt; body = $body:block;
     [$fname:ident : $ty:ty] -> [$($acc:tt)*]) => {
        $crate::__proptest_body! { cfg = $cfg; body = $body;
            [] -> [$($acc)* ($fname, $crate::arbitrary::any::<$ty>())] }
    };
    // `pat in strategy`.
    (cfg = $cfg:tt; body = $body:block;
     [$pat:pat_param in $strat:expr , $($rest:tt)*] -> [$($acc:tt)*]) => {
        $crate::__proptest_body! { cfg = $cfg; body = $body;
            [$($rest)*] -> [$($acc)* ($pat, $strat)] }
    };
    (cfg = $cfg:tt; body = $body:block;
     [$pat:pat_param in $strat:expr] -> [$($acc:tt)*]) => {
        $crate::__proptest_body! { cfg = $cfg; body = $body;
            [] -> [$($acc)* ($pat, $strat)] }
    };
    // All parameters munched: emit the loop.
    (cfg = ($cfg:expr); body = $body:block;
     [] -> [$(($pat:pat_param, $strat:expr))*]) => {{
        let __cfg: $crate::test_runner::ProptestConfig = $cfg;
        let mut __rng = $crate::test_runner::new_rng();
        let mut __done: u32 = 0;
        let mut __attempts: u64 = 0;
        while __done < __cfg.cases {
            __attempts += 1;
            if __attempts > u64::from(__cfg.cases) * 100 + 100 {
                assert!(
                    __done > 0,
                    "proptest: every generated case was rejected by prop_assume!"
                );
                break;
            }
            // Kept so a failure can draw the same inputs again to show
            // them (the body consumes the first draw).
            let mut __rng_at_case = __rng.clone();
            let ($($pat,)*) = ($( $crate::strategy::Strategy::sample(&($strat), &mut __rng), )*);
            let __result: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                (|| {
                    $body
                    ::core::result::Result::Ok(())
                })();
            match __result {
                ::core::result::Result::Ok(()) => {
                    __done += 1;
                }
                ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject) => {}
                ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(__msg)) => {
                    let __inputs =
                        ($( $crate::strategy::Strategy::sample(&($strat), &mut __rng_at_case), )*);
                    panic!(
                        "proptest case #{} failed (PROPTEST_SEED={}): {}\n inputs: {:?}",
                        __done + 1,
                        $crate::test_runner::seed(),
                        __msg,
                        __inputs
                    );
                }
            }
        }
    }};
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                    stringify!($left), stringify!($right), __l, __r
                ),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    }};
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                __l
            )));
        }
    }};
}

/// Rejects the current case, drawing a fresh one, unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject());
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_in_bounds(x in 3u64..10, y in 0.0f64..1.0, z: u8) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((0.0..1.0).contains(&y));
            let _ = z;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(17))]
        #[test]
        fn config_and_collections(v in crate::collection::vec(0u32..5, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&e| e < 5));
        }

        #[test]
        fn maps_and_tuples(p in (0u32..4, 10u32..14).prop_map(|(a, b)| (b, a))) {
            prop_assert!(p.0 >= 10 && p.1 < 4);
        }
    }

    proptest! {
        #[test]
        fn assume_rejects(x in 0u32..10) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }

    #[test]
    fn failure_reports_seed_and_inputs() {
        proptest! {
            fn always_fails(x in 40u32..41, v in crate::collection::vec(7u8..8, 2)) {
                prop_assert!(x + u32::from(v[0]) == 0, "never holds");
            }
        }
        let panic = std::panic::catch_unwind(always_fails).expect_err("the property fails");
        let message = panic
            .downcast_ref::<String>()
            .expect("panic! with a format string");
        let seed = format!("PROPTEST_SEED={}", crate::test_runner::seed());
        assert!(message.contains(&seed), "{message}");
        assert!(message.contains("never holds"), "{message}");
        assert!(message.contains("inputs: (40, [7, 7])"), "{message}");
    }

    #[test]
    fn flat_map_composes() {
        let strat = (1usize..4).prop_flat_map(|n| crate::collection::vec(0u32..10, n..n + 1));
        let mut rng = crate::test_runner::new_rng();
        for _ in 0..100 {
            let v = strat.sample(&mut rng);
            assert!((1..4).contains(&v.len()));
        }
    }
}
