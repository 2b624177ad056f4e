//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors this minimal API-compatible subset.  It keeps the property-test
//! *sources* unchanged: the [`proptest!`] macro, `prop_assert*` macros,
//! [`prop_oneof!`], ranges / tuples / [`collection::vec`] as strategies,
//! [`any`], `prop_map`, and [`ProptestConfig::with_cases`].
//!
//! Differences from real proptest, by design:
//!
//! * **Deterministic**: cases derive from a fixed seed (per test name and
//!   case index), so failures reproduce exactly; `PROPTEST_CASES` still
//!   overrides the case count.
//! * **No shrinking**: a failing case reports its inputs' case number but
//!   is not minimized.

#![forbid(unsafe_code)]

use std::fmt;

/// Deterministic splitmix64 generator driving all sampling.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> TestRng {
        TestRng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Seeds deterministically from a test name and case index.
    pub fn for_case(name: &str, case: u64) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        TestRng::new(h.wrapping_add(case.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }

    /// Next 64 random bits (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// The error carried out of a failing `prop_assert*`.
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// How a generated value is produced.  The shim's `Strategy` is eager:
/// `sample` directly yields a value (no value tree, no shrinking).
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f` (proptest's `prop_map`).
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The [`Strategy::prop_map`] combinator.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// A strategy always yielding clones of one value (proptest's `Just`).
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a default "any value" strategy (proptest's `Arbitrary`).
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arb_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// The strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Strategy producing any value of `T` (proptest's `any::<T>()`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (s, e) = (*self.start(), *self.end());
                assert!(s <= e, "empty range strategy");
                let span = (e as u64).wrapping_sub(s as u64).wrapping_add(1);
                if span == 0 {
                    // Full-width inclusive range.
                    return rng.next_u64() as $t;
                }
                s.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize);

macro_rules! tuple_strategy {
    ($(($($n:tt $s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$n.sample(rng),)+)
            }
        }
    )*};
}
tuple_strategy! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
}

/// One boxed alternative of a [`Union`].
pub type UnionArm<V> = Box<dyn Fn(&mut TestRng) -> V>;

/// A uniform choice among boxed alternatives (behind [`prop_oneof!`]).
pub struct Union<V> {
    /// The sampled alternatives.
    pub arms: Vec<UnionArm<V>>,
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        assert!(!self.arms.is_empty(), "empty prop_oneof");
        let i = rng.below(self.arms.len() as u64) as usize;
        (self.arms[i])(rng)
    }
}

/// Collection strategies (proptest's `proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Strategy for `Vec`s of `element` with length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: std::ops::Range<usize>,
    }

    /// Generates vectors whose length is drawn from `size` and whose
    /// elements come from `element` (proptest's `collection::vec`).
    pub fn vec<S: Strategy>(element: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.sample(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Per-block configuration (`#![proptest_config(...)]`).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

/// Resolves the effective case count (`PROPTEST_CASES` overrides).
pub fn effective_cases(config: &ProptestConfig) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(config.cases)
}

/// Common imports, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

/// Declares property tests.  Each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running the body over sampled inputs.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $( $(#[$meta:meta])* fn $name:ident ( $( $arg:pat_param in $strat:expr ),+ $(,)? ) $body:block )+
    ) => {
        $( $crate::proptest!(@one ($cfg) $(#[$meta])* fn $name ( $( $arg in $strat ),+ ) $body ); )+
    };
    (
        $( $(#[$meta:meta])* fn $name:ident ( $( $arg:pat_param in $strat:expr ),+ $(,)? ) $body:block )+
    ) => {
        $( $crate::proptest!(@one ($crate::ProptestConfig::default())
            $(#[$meta])* fn $name ( $( $arg in $strat ),+ ) $body ); )+
    };
    (@one ($cfg:expr)
        $(#[$meta:meta])* fn $name:ident ( $( $arg:pat_param in $strat:expr ),+ ) $body:block
    ) => {
        $(#[$meta])*
        fn $name() {
            let cases = $crate::effective_cases(&$cfg);
            for case in 0..u64::from(cases) {
                let mut rng = $crate::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)), case);
                let ( $( $arg, )+ ) = ( $( $crate::Strategy::sample(&($strat), &mut rng), )+ );
                let result: ::std::result::Result<(), $crate::TestCaseError> =
                    (move || { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(e) = result {
                    panic!(
                        "proptest property '{}' failed at case {}/{}: {}",
                        stringify!($name), case, cases, e.0
                    );
                }
            }
        }
    };
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "assertion failed: {:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, $($fmt)*);
    }};
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "assertion failed: {:?} == {:?}", a, b);
    }};
}

/// A uniform choice among strategies yielding one value type.
#[macro_export]
macro_rules! prop_oneof {
    ( $( $strat:expr ),+ $(,)? ) => {
        $crate::Union {
            arms: vec![
                $( {
                    let s = $strat;
                    ::std::boxed::Box::new(move |rng: &mut $crate::TestRng| {
                        $crate::Strategy::sample(&s, rng)
                    }) as ::std::boxed::Box<dyn Fn(&mut $crate::TestRng) -> _>
                } ),+
            ],
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::new(42);
        for _ in 0..1000 {
            let v = crate::Strategy::sample(&(10u64..20), &mut rng);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn determinism_per_name_and_case() {
        let mut a = crate::TestRng::for_case("x", 3);
        let mut b = crate::TestRng::for_case("x", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::TestRng::for_case("x", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn macro_end_to_end(
            v in crate::collection::vec(any::<u8>(), 0..10),
            (a, b) in (0u32..5, 0u32..5),
        ) {
            prop_assert!(v.len() < 10);
            prop_assert!(a < 5 && b < 5);
            prop_assert_eq!(a + b, b + a);
        }
    }

    proptest! {
        #[test]
        fn oneof_and_map(x in prop_oneof![
            (0u32..10).prop_map(|v| v * 2),
            Just(99u32),
        ]) {
            prop_assert!(x == 99u32 || (x % 2u32 == 0u32 && x < 20u32));
        }
    }
}
