//! Offline stand-in for the `proptest` crate.
//!
//! The build environment is hermetic (no crates.io access), so this local
//! package re-implements the slice of proptest the workspace's property
//! tests use: the [`Strategy`] trait with `prop_map` / `prop_filter` /
//! `prop_recursive` / `boxed`, range and tuple strategies, regex-subset
//! string strategies, [`collection::vec()`], [`option::of`], [`Just`],
//! [`any`], and the [`proptest!`] / [`prop_oneof!`] / [`prop_assert!`]
//! macros.
//!
//! Differences from the real crate, deliberately accepted:
//!
//! * no shrinking — a failing case reports its assertion message only;
//! * generation is driven by a deterministic per-test RNG (seeded from
//!   the test name), so failures are reproducible by re-running the test;
//! * string strategies support the regex subset the tests use
//!   (`.`/char-class atoms with `{a,b}`-style quantifiers), generating
//!   printable ASCII.
//!
//! [`Strategy`]: strategy::Strategy
//! [`Just`]: strategy::Just
//! [`any`]: arbitrary::any

pub mod strategy;

pub mod test_runner;

/// `proptest::collection` — strategies over containers.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Size specification accepted by [`vec()`]: a fixed length or a range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end - 1 }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange { lo: *r.start(), hi: *r.end() }
        }
    }

    /// Strategy producing `Vec`s of values from an element strategy.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `proptest::collection::vec(element, size)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.usize_in(self.size.lo, self.size.hi);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// `proptest::option` — strategies over `Option`.
pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy producing `Option`s of an inner strategy's values.
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S>(S);

    /// `proptest::option::of(inner)`: `None` about a quarter of the time,
    /// like the real crate's default weighting.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64().is_multiple_of(4) {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }
}

/// `proptest::arbitrary` — the [`any`](crate::arbitrary::any) entry point.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use core::marker::PhantomData;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Sized {
        /// Draw one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            // Finite full-range-ish doubles; tests use these as data, not
            // as bit-pattern fuzz.
            let mag = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let scale = 10f64.powi((rng.next_u64() % 13) as i32 - 6);
            let sign = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
            sign * mag * scale
        }
    }

    /// The strategy returned by [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(PhantomData<T>);

    /// `any::<T>()` — the canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

/// Everything the tests import with `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// `prop_oneof![a, b, c]` — uniform choice among strategies with a common
/// value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( $crate::strategy::Strategy::boxed($strat) ),+
        ])
    };
}

/// `prop_assert!(cond, ...)` — asserts within a property body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// `prop_assert_eq!(a, b, ...)`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// `prop_assert_ne!(a, b, ...)`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// The `proptest! { ... }` block: an optional
/// `#![proptest_config(expr)]` header followed by `#[test]` functions
/// whose arguments are drawn from strategies (`name in strategy`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

/// Internal muncher for [`proptest!`] items.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::Config = $cfg;
            let mut __rng =
                $crate::test_runner::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__config.cases {
                $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(x in 1u64..10, y in -4i64..=4, f in -1.5f64..1.5) {
            prop_assert!((1..10).contains(&x));
            prop_assert!((-4..=4).contains(&y));
            prop_assert!((-1.5..1.5).contains(&f), "{f}");
        }

        #[test]
        fn oneof_maps_and_filters(
            v in prop_oneof![
                Just(0i64),
                (1i64..5).prop_filter("nonzero", |x| *x != 0).prop_map(|x| x * 10),
            ],
        ) {
            prop_assert!(v == 0 || (10..50).contains(&v));
        }

        #[test]
        fn vec_and_option(
            xs in crate::collection::vec(0u32..7, 2..5),
            o in crate::option::of(Just(9u8)),
        ) {
            prop_assert!(xs.len() >= 2 && xs.len() < 5);
            prop_assert!(xs.iter().all(|&x| x < 7));
            prop_assert!(o.is_none() || o == Some(9));
        }

        #[test]
        fn regex_subset_strings(s in "[a-c0-1]{2,4}", t in ".{0,10}") {
            prop_assert!((2..=4).contains(&s.len()));
            prop_assert!(s.chars().all(|c| "abc01".contains(c)), "{s}");
            prop_assert!(t.len() <= 10);
        }

        #[test]
        fn tuples_compose(
            (a, b) in (0u8..4, crate::collection::vec(any::<bool>(), 1..3)),
        ) {
            prop_assert!(a < 4 && !b.is_empty());
        }
    }

    #[test]
    fn recursion_is_bounded() {
        #[derive(Clone, Debug)]
        enum T {
            Leaf,
            Node(Box<T>, Box<T>),
        }
        fn depth(t: &T) -> u32 {
            match t {
                T::Leaf => 0,
                T::Node(a, b) => 1 + depth(a).max(depth(b)),
            }
        }
        let strat = Just(T::Leaf).prop_recursive(4, 16, 2, |inner| {
            (inner.clone(), inner).prop_map(|(a, b)| T::Node(Box::new(a), Box::new(b)))
        });
        let mut rng = crate::test_runner::TestRng::for_test("recursion");
        for _ in 0..200 {
            let t = crate::strategy::Strategy::generate(&strat, &mut rng);
            assert!(depth(&t) <= 4, "depth {}", depth(&t));
        }
    }

    #[test]
    fn generation_is_deterministic_per_test_name() {
        let strat = crate::collection::vec(0u64..1000, 3..9);
        let mut a = crate::test_runner::TestRng::for_test("same");
        let mut b = crate::test_runner::TestRng::for_test("same");
        for _ in 0..50 {
            assert_eq!(
                crate::strategy::Strategy::generate(&strat, &mut a),
                crate::strategy::Strategy::generate(&strat, &mut b)
            );
        }
    }
}
