//! In-workspace shim for the subset of the `proptest` API used by this
//! workspace's property tests: the [`proptest!`], [`prop_compose!`],
//! [`prop_oneof!`], and `prop_assert*` macros, range / tuple / `Just` /
//! [`collection::vec`] / [`option::of`] strategies, and `any::<bool>()`.
//!
//! The workspace builds offline (no registry), so the real crate cannot
//! be fetched; test sources stay source-compatible with it. Differences
//! from upstream, by design:
//!
//! * cases are generated from a deterministic per-test seed (FNV of the
//!   test's module path and name + case index), so every run and every
//!   machine sees the same inputs;
//! * there is no shrinking — the failure message reports the case number,
//!   and the deterministic seeding means the case reproduces exactly;
//! * `PROPTEST_CASES` overrides the per-test case count (default 64).

#![forbid(unsafe_code)]

use rand::rngs::SmallRng;
use rand::SeedableRng;

pub use strategy::{Just, Strategy};

/// The RNG handed to strategies.
pub type TestRng = SmallRng;

/// Number of cases per property (env `PROPTEST_CASES`, default 64).
#[expect(
    clippy::disallowed_methods,
    reason = "PROPTEST_CASES sets how many cases a test draws, not what a run computes"
)]
pub fn cases() -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(64)
}

/// Deterministic per-case RNG: FNV-1a of the test identifier mixed with
/// the case index.
pub fn test_rng(test_id: &str, case: u64) -> TestRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_id.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    SmallRng::seed_from_u64(h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A failed property-test assertion.
#[derive(Debug)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Builds a failure from a rendered message.
    pub fn fail(message: String) -> Self {
        TestCaseError { message }
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Strategy combinators and implementations.
pub mod strategy {
    use super::TestRng;
    use rand::Rng;

    /// Generates values of [`Strategy::Value`] from a seeded RNG.
    ///
    /// Object-safe so [`prop_oneof!`](crate::prop_oneof) can erase
    /// alternatives.
    pub trait Strategy {
        /// The generated type.
        type Value;
        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            (**self).generate(rng)
        }
    }

    /// Always yields a clone of the wrapped value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($($s:ident/$v:ident),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($v,)+) = self;
                    ($($v.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A / a);
    impl_tuple_strategy!(A / a, B / b);
    impl_tuple_strategy!(A / a, B / b, C / c);
    impl_tuple_strategy!(A / a, B / b, C / c, D / d);
    impl_tuple_strategy!(A / a, B / b, C / c, D / d, E / e);
    impl_tuple_strategy!(A / a, B / b, C / c, D / d, E / e, F / f);

    /// Strategy backed by a plain generation closure (used by
    /// [`prop_compose!`](crate::prop_compose)).
    pub struct FnStrategy<T, F: Fn(&mut TestRng) -> T> {
        f: F,
    }

    impl<T, F: Fn(&mut TestRng) -> T> Strategy for FnStrategy<T, F> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.f)(rng)
        }
    }

    /// Wraps a closure as a strategy.
    pub fn fn_strategy<T, F: Fn(&mut TestRng) -> T>(f: F) -> FnStrategy<T, F> {
        FnStrategy { f }
    }

    /// Uniform choice between boxed alternatives.
    pub struct OneOf<T> {
        alts: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.gen_range(0..self.alts.len());
            self.alts[i].generate(rng)
        }
    }

    /// Builds a [`OneOf`] (target of [`prop_oneof!`](crate::prop_oneof)).
    ///
    /// # Panics
    ///
    /// Panics if `alts` is empty.
    pub fn one_of<T>(alts: Vec<Box<dyn Strategy<Value = T>>>) -> OneOf<T> {
        assert!(
            !alts.is_empty(),
            "prop_oneof! needs at least one alternative"
        );
        OneOf { alts }
    }
}

/// `any::<T>()` support.
pub mod arbitrary {
    use super::strategy::{fn_strategy, Strategy};
    use super::TestRng;
    use rand::Rng;

    /// Types with a canonical strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.gen_bool(0.5)
        }
    }

    macro_rules! impl_arbitrary_uint {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.gen_range(0..=<$t>::MAX)
                }
            }
        )*};
    }

    impl_arbitrary_uint!(u8, u16, u32, u64, usize);

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> impl Strategy<Value = T> {
        fn_strategy(|rng| T::arbitrary(rng))
    }
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;
    use rand::Rng;

    /// Vector of `element` values with length drawn from `size`.
    pub struct VecStrategy<S: Strategy> {
        element: S,
        size: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.start >= self.size.end {
                self.size.start
            } else {
                rng.gen_range(self.size.clone())
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Builds a [`VecStrategy`].
    pub fn vec<S: Strategy>(element: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }
}

/// Option strategies (`proptest::option`).
pub mod option {
    use super::strategy::{fn_strategy, Strategy};
    use rand::Rng;

    /// `None` a quarter of the time, `Some(inner)` otherwise (matching
    /// upstream's default weighting).
    pub fn of<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
        fn_strategy(move |rng| {
            if rng.gen_bool(0.75) {
                Some(inner.generate(rng))
            } else {
                None
            }
        })
    }
}

/// The usual wildcard import surface.
pub mod prelude {
    pub use crate as prop;
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_compose, prop_oneof, proptest,
    };
}

/// Defines deterministic property tests.
#[macro_export]
macro_rules! proptest {
    ($($(#[$attr:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$attr])*
            fn $name() {
                let cases = $crate::cases();
                for case in 0..cases {
                    let mut rng = $crate::test_rng(
                        concat!(module_path!(), "::", stringify!($name)),
                        case,
                    );
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)*
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (move || { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!(
                            "property {} failed at case {}/{}: {}",
                            stringify!($name), case, cases, e
                        );
                    }
                }
            }
        )*
    };
}

/// Composes named strategies into a derived-value strategy.
#[macro_export]
macro_rules! prop_compose {
    ($(#[$attr:meta])* fn $name:ident($($oarg:tt)*)($($arg:ident in $strat:expr),* $(,)?) -> $ret:ty $body:block) => {
        $(#[$attr])*
        fn $name($($oarg)*) -> impl $crate::Strategy<Value = $ret> {
            $crate::strategy::fn_strategy(move |rng: &mut $crate::TestRng| -> $ret {
                $(let $arg = $crate::Strategy::generate(&($strat), rng);)*
                $body
            })
        }
    };
}

/// Uniform choice between strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::one_of(::std::vec![$(::std::boxed::Box::new($s)),+])
    };
}

/// Fallible assertion inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                ::std::format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Fallible equality assertion inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                ::std::format!("assert_eq failed: {:?} != {:?}", left, right),
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                ::std::format!(
                    "assert_eq failed: {:?} != {:?}: {}",
                    left, right, ::std::format!($($fmt)+),
                ),
            ));
        }
    }};
}

/// Fallible inequality assertion inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (left, right) = (&$a, &$b);
        if left == right {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                ::std::format!("assert_ne failed: both {:?}", left),
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        if left == right {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                ::std::format!(
                    "assert_ne failed: both {:?}: {}",
                    left, ::std::format!($($fmt)+),
                ),
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    prop_compose! {
        fn pair()(a in 0u64..10, b in 0u64..10) -> (u64, u64) {
            (a, b)
        }
    }

    proptest! {
        #[test]
        fn ranges_in_bounds(x in 3u64..17, v in prop::collection::vec(0u8..4, 0..50)) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(v.len() < 50);
            prop_assert!(v.iter().all(|&b| b < 4));
        }

        #[test]
        fn oneof_and_option(
            k in prop_oneof![Just(1u32), Just(2), Just(3)],
            o in prop::option::of(0u64..5),
        ) {
            prop_assert!((1..=3).contains(&k));
            if let Some(x) = o {
                prop_assert!(x < 5, "x={}", x);
            }
        }

        #[test]
        fn composed_pairs(p in pair()) {
            prop_assert_eq!(p.0 < 10, true);
            prop_assert_ne!(p.0 + 100, p.1);
        }
    }

    #[test]
    fn determinism_across_runs() {
        let mut a = crate::test_rng("t", 3);
        let mut b = crate::test_rng("t", 3);
        let sa = crate::collection::vec(0u64..100, 1..20).generate(&mut a);
        let sb = crate::collection::vec(0u64..100, 1..20).generate(&mut b);
        assert_eq!(sa, sb);
    }
}
