//! Offline drop-in for the subset of `proptest` 1.x the `ppfts` test
//! suites use.
//!
//! The build environment has no access to crates.io, so this crate
//! re-implements the pieces the workspace's property tests need:
//!
//! * the [`Strategy`] trait, with implementations for integer ranges,
//!   tuples, [`Just`], [`collection::vec`], and [`arbitrary::any`];
//! * the [`proptest!`] macro (`name(pat in strategy, ...) { body }`);
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assume!`], and
//!   [`prop_oneof!`].
//!
//! Failing cases are shrunk. A case fails when an assertion fails or
//! the body panics (an `unwrap` on an error, say). [`proptest!`] then
//! minimizes the case one argument at a time: it tries the argument's
//! [`Strategy::shrink`] candidates in order, keeps the first one that
//! still fails, and repeats until no candidate fails or a budget of
//! runs is spent. The panic names the failing case, the minimal inputs
//! (by `Debug`) and their failure message. Integers shrink toward the
//! low end of their range (zero for [`arbitrary::any`]), `bool`s
//! toward `false`, and vectors by dropping elements (never below the
//! size range's minimum) and then by shrinking elements. [`Just`] and
//! [`prop_oneof!`] values stay as drawn.
//!
//! Case generation is deterministic per test name, so failures
//! reproduce; set `PROPTEST_CASES` to change the case count (default
//! 64).

#![forbid(unsafe_code)]

use std::fmt;

pub mod test_runner {
    //! Deterministic case driver used by the [`proptest!`](crate::proptest) macro.

    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    use crate::Strategy;

    /// Number of generated cases per property (override: `PROPTEST_CASES`).
    pub fn cases() -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64)
    }

    /// Why a single generated case did not pass.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` filtered the case out; try another.
        Reject(String),
        /// An assertion failed; the whole property fails.
        Fail(String),
    }

    /// SplitMix64: deterministic, seeded per test name so failures
    /// reproduce run-to-run.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds from the test's name (stable across runs).
        pub fn for_test(name: &str) -> Self {
            let mut h = DefaultHasher::new();
            name.hash(&mut h);
            TestRng {
                state: h.finish() ^ 0x5DEE_CE66_D1CE_4E5B,
            }
        }

        /// Next raw 64-bit word.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            // Widening-multiply trick; bias is irrelevant at test scale.
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }
    }

    /// Test runs a failing property may spend on shrinking.
    const SHRINK_RUNS: usize = 4096;

    /// A failed property: the first failing case, its minimized input,
    /// the shrink steps that led there, and why that input fails.
    #[derive(Clone, Debug)]
    pub struct Failure<V> {
        pub case: u32,
        pub input: V,
        pub shrinks: u32,
        pub message: String,
    }

    /// Runs `test` on `cases()` values of `strategy`, drawn from an RNG
    /// seeded by `name`. The first failing value is then shrunk: the
    /// first [`Strategy::shrink`] candidate that still fails replaces
    /// it, until none does or 4096 runs are spent.
    ///
    /// # Errors
    ///
    /// The minimized failure, if a case failed.
    ///
    /// # Panics
    ///
    /// If [`prop_assume!`](crate::prop_assume) rejects ten times as
    /// many cases as are asked for.
    pub fn check<S, F>(name: &str, strategy: &S, test: F) -> Result<(), Failure<S::Value>>
    where
        S: Strategy,
        S::Value: Clone,
        F: Fn(S::Value) -> Result<(), TestCaseError>,
    {
        let mut rng = TestRng::for_test(name);
        let (cases, mut case, mut rejects) = (cases(), 0, 0);
        let (mut input, mut message) = loop {
            if case == cases {
                return Ok(());
            }
            let value = strategy.generate(&mut rng);
            match run_case(&test, value.clone()) {
                Ok(()) => case += 1,
                Err(TestCaseError::Reject(_)) => {
                    rejects += 1;
                    let too_many = format!("property `{name}` rejected {rejects} cases");
                    assert!(rejects < 10 * cases, "proptest: {too_many}");
                }
                Err(TestCaseError::Fail(message)) => break (value, message),
            }
        };
        let (mut runs, mut shrinks) = (0, 0);
        'shrink: while runs < SHRINK_RUNS {
            for candidate in strategy.shrink(&input).into_iter().take(SHRINK_RUNS - runs) {
                runs += 1;
                if let Err(TestCaseError::Fail(m)) = run_case(&test, candidate.clone()) {
                    (input, message, shrinks) = (candidate, m, shrinks + 1);
                    continue 'shrink;
                }
            }
            break;
        }
        Err(Failure {
            case,
            input,
            shrinks,
            message,
        })
    }

    /// Runs one case; a panic in the body is a failure.
    fn run_case<V, F>(test: &F, value: V) -> Result<(), TestCaseError>
    where
        F: Fn(V) -> Result<(), TestCaseError>,
    {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| test(value))).unwrap_or_else(
            |payload| {
                let what = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                Err(TestCaseError::Fail(format!("panicked: {what}")))
            },
        )
    }
}

/// Shrink candidates for `x` toward `target`: `target` itself, then
/// ever closer halving steps up to one away from `x`. Integer shrinks
/// go through here, widened to `i128`.
fn toward(target: i128, x: i128) -> impl Iterator<Item = i128> {
    std::iter::successors(Some(x - target), |d| Some(d / 2))
        .take_while(|&d| d != 0)
        .map(move |d| x - d)
}

/// A recipe for generating values of `Self::Value`.
pub trait Strategy {
    /// The type this strategy produces.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut test_runner::TestRng) -> Self::Value;

    /// Simpler values than `value` that this strategy could also have
    /// drawn, in the order the shrinker tries them. The default offers
    /// none.
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let _ = value;
        Vec::new()
    }
}

/// Always produces a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut test_runner::TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut test_runner::TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.below(span) as $t)
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                toward(self.start as i128, *value as i128).map(|x| x as $t).collect()
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut test_runner::TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.below(span) as $t)
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                toward(*self.start() as i128, *value as i128).map(|x| x as $t).collect()
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

/// Tuples shrink one component at a time, the first component's
/// candidates first.
macro_rules! impl_tuple_strategy {
    ($(($($s:ident $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+)
        where
            $($s::Value: Clone),+
        {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut test_runner::TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for c in self.$idx.shrink(&value.$idx) {
                        let mut v = value.clone();
                        v.$idx = c;
                        out.push(v);
                    }
                )+
                out
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6)
    (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7)
}

/// Uniform choice among boxed alternatives ([`prop_oneof!`]).
pub struct Union<T> {
    options: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> Union<T> {
    /// Builds a union; `options` must be nonempty.
    pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut test_runner::TestRng) -> T {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].generate(rng)
    }
}

pub mod arbitrary {
    //! `any::<T>()` — the canonical whole-domain strategy for a type.

    use super::{test_runner::TestRng, Strategy};
    use std::marker::PhantomData;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary: Sized {
        /// Generates an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;

        /// Simpler values, as [`Strategy::shrink`] (default: none).
        fn shrink(&self) -> Vec<Self> {
            Vec::new()
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
        fn shrink(&self) -> Vec<bool> {
            if *self {
                vec![false]
            } else {
                Vec::new()
            }
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
                fn shrink(&self) -> Vec<$t> {
                    crate::toward(0, *self as i128).map(|x| x as $t).collect()
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// Strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
        fn shrink(&self, value: &T) -> Vec<T> {
            value.shrink()
        }
    }

    /// The whole-domain strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies (`prop::collection::vec`).

    use super::{test_runner::TestRng, Strategy};
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with lengths drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Vectors shrink first by length (to the minimum, then by dropping
    /// one element), then element by element.
    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Clone,
    {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
        fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
            let mut out = Vec::new();
            let min = self.size.start;
            if value.len() > min {
                out.push(value[..min].to_vec());
                for i in 0..value.len() {
                    let mut v = value.clone();
                    v.remove(i);
                    out.push(v);
                }
            }
            for (i, x) in value.iter().enumerate() {
                for c in self.element.shrink(x) {
                    let mut v = value.clone();
                    v[i] = c;
                    out.push(v);
                }
            }
            out
        }
    }

    /// Vectors of `element` with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }
}

/// Formats a failed-property report: `args` names the arguments of
/// the minimal input in `failure`.
pub fn format_failure<V: fmt::Debug>(
    test: &str,
    args: &str,
    failure: &test_runner::Failure<V>,
) -> String {
    format!(
        "proptest: property `{test}` failed on case #{}; minimal input after {} shrinks:\n  \
         ({args}) = {:?}\n{}",
        failure.case, failure.shrinks, failure.input, failure.message
    )
}

impl fmt::Display for test_runner::TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            test_runner::TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
            test_runner::TestCaseError::Fail(m) => write!(f, "{m}"),
        }
    }
}

/// Defines property tests: `proptest! { #[test] fn name(x in strat, ...) { body } }`.
#[macro_export]
macro_rules! proptest {
    ($(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strategy:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __strategy = ($($strategy,)*);
            let __result =
                $crate::test_runner::check(stringify!($name), &__strategy, |($($arg,)*)| {
                    $body
                    Ok(())
                });
            if let Err(failure) = __result {
                panic!(
                    "{}",
                    $crate::format_failure(stringify!($name), stringify!($($arg),*), &failure)
                );
            }
        }
    )*};
}

/// Asserts a condition inside a property, failing the case (not panicking
/// directly) so the harness can attach case context.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(format!($($fmt)*)),
            );
        }
    };
}

/// [`prop_assert!`] for equality, printing both operands.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`: {}\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            format!($($fmt)*),
            l,
            r
        );
    }};
}

/// Discards the current case when `cond` is false; the harness draws a
/// fresh one instead (bounded by a global reject budget).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(::std::boxed::Box::new($strategy) as ::std::boxed::Box<dyn $crate::Strategy<Value = _>>,)+
        ])
    };
}

pub mod prelude {
    //! One-stop import, mirroring `proptest::prelude`.

    pub use crate::arbitrary::any;
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, Just, Strategy,
    };

    /// The crate itself, addressable as `prop::` (e.g. `prop::collection::vec`).
    pub use crate as prop;
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::test_runner::TestRng::for_test("ranges");
        for _ in 0..500 {
            let v = (3u32..9).generate(&mut rng);
            assert!((3..9).contains(&v));
        }
    }

    #[test]
    fn vec_strategy_obeys_size() {
        let mut rng = crate::test_runner::TestRng::for_test("vec");
        for _ in 0..100 {
            let v = prop::collection::vec(0u8..5, 2..20).generate(&mut rng);
            assert!((2..20).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        }
    }

    #[test]
    fn oneof_hits_every_arm() {
        let mut rng = crate::test_runner::TestRng::for_test("oneof");
        let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[s.generate(&mut rng) as usize] = true;
        }
        assert_eq!(&seen[1..], &[true, true, true]);
    }

    proptest! {
        #[test]
        fn macro_binds_patterns(mut xs in prop::collection::vec(0u8..10, 1..5), flag in any::<bool>()) {
            xs.push(0);
            prop_assert!(xs.len() >= 2);
            if flag {
                prop_assert_eq!(*xs.last().unwrap(), 0);
            }
        }

        #[test]
        fn assume_rejects_without_failing(n in 0u32..10) {
            prop_assume!(n % 2 == 0);
            prop_assert!(n % 2 == 0);
        }
    }

    use crate::test_runner::{check, Failure, TestCaseError};

    fn fail_if(cond: bool) -> Result<(), TestCaseError> {
        if cond {
            Err(TestCaseError::Fail("boom".into()))
        } else {
            Ok(())
        }
    }

    #[test]
    fn integers_shrink_to_the_smallest_failing_value() {
        let failure = check("ints", &(0u32..1000,), |(x,)| fail_if(x >= 17)).unwrap_err();
        assert_eq!(failure.input, (17,));
        assert!(failure.shrinks > 0);
        assert_eq!(failure.message, "boom");
    }

    #[test]
    fn vecs_shrink_to_the_shortest_failing_length() {
        let strategy = (prop::collection::vec(any::<bool>(), 0..20),);
        let failure = check("vecs", &strategy, |(v,)| fail_if(v.len() >= 3)).unwrap_err();
        assert_eq!(failure.input, (vec![false; 3],));
    }

    #[test]
    fn panicking_bodies_are_shrunk_and_reported() {
        let strategy = (0u64..1_000_000, any::<bool>());
        let failure: Failure<(u64, bool)> = check("panics", &strategy, |(x, _)| {
            let parsed: Result<u8, _> = u8::try_from(x);
            parsed.unwrap();
            Ok(())
        })
        .unwrap_err();
        assert_eq!(failure.input, (256, false));
        assert!(
            failure.message.starts_with("panicked: "),
            "{}",
            failure.message
        );
        let report = crate::format_failure("panics", "x, flag", &failure);
        assert!(report.contains("(x, flag) = (256, false)"), "{report}");
    }
}
