//! Offline stand-in for the `proptest` crate: the subset this workspace's
//! property tests use — the `proptest!` macro, `ProptestConfig`,
//! range/tuple/`prop::collection::vec` strategies, and the `prop_assert*`
//! macros. Cases are generated from a deterministic per-test seed (derived
//! from the test name and case index), so failures are reproducible; there
//! is no shrinking.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-block configuration, set via `#![proptest_config(...)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` generated inputs.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 256 }
    }
}

/// A failed property, carrying the formatted assertion message.
#[derive(Debug)]
pub struct TestCaseError {
    /// Human-readable failure description.
    pub message: String,
}

impl TestCaseError {
    /// Builds a failure from any message.
    pub fn fail(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

/// Generates values of `Value` from the test RNG.
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`. There is no shrinking in this
    /// stand-in, so the combinator is plain composition.
    fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut StdRng) -> f64 {
        rng.gen_range(self.start..self.end)
    }
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.start..self.end)
            }
        }
    )*};
}
int_strategy!(usize, u64, u32, u8, i64, i32);

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        (
            self.0.generate(rng),
            self.1.generate(rng),
            self.2.generate(rng),
        )
    }
}

impl<A: Strategy, B: Strategy, C: Strategy, D: Strategy> Strategy for (A, B, C, D) {
    type Value = (A::Value, B::Value, C::Value, D::Value);
    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        (
            self.0.generate(rng),
            self.1.generate(rng),
            self.2.generate(rng),
            self.3.generate(rng),
        )
    }
}

/// Strategy namespace mirroring `proptest::prop`.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::Strategy;
        use rand::rngs::StdRng;
        use rand::Rng;

        /// Vectors of `element` with length drawn from `len`.
        pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, len }
        }

        /// Strategy produced by [`vec()`].
        pub struct VecStrategy<S> {
            element: S,
            len: std::ops::Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                let n = if self.len.start < self.len.end {
                    rng.gen_range(self.len.start..self.len.end)
                } else {
                    self.len.start
                };
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }
    }
}

/// Deterministic per-(test, case) RNG seed.
pub fn case_rng(test_name: &str, case: u32) -> StdRng {
    // FNV-1a over the test name, mixed with the case index.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    StdRng::seed_from_u64(h ^ ((case as u64) << 32 | 0x9E37))
}

/// Declares property tests: each listed function body runs for every
/// generated case; `prop_assert*` failures abort with the offending seed.
#[macro_export]
macro_rules! proptest {
    ( #![proptest_config($cfg:expr)] $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (
        ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let mut rng = $crate::case_rng(stringify!($name), case);
                    $(
                        let $arg = $crate::Strategy::generate(&($strat), &mut rng);
                    )+
                    let outcome = (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        Ok(())
                    })();
                    if let Err(e) = outcome {
                        panic!(
                            "proptest {} failed at case {}: {}",
                            stringify!($name), case, e
                        );
                    }
                }
            }
        )*
    };
}

/// Asserts a property inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if left != right {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?})",
                stringify!($a),
                stringify!($b),
                left,
                right
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        if left != right {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{} (left: {:?}, right: {:?})",
                format!($($fmt)+),
                left,
                right
            )));
        }
    }};
}

/// The usual glob-import surface.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
    pub use crate::{ProptestConfig, Strategy, TestCaseError};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respected(
            x in 1usize..10,
            y in -2.0f64..2.0,
            v in prop::collection::vec(0u64..5, 2..6),
        ) {
            prop_assert!((1..10).contains(&x));
            prop_assert!((-2.0..2.0).contains(&y));
            prop_assert!((2..6).contains(&v.len()), "len was {}", v.len());
            for e in &v {
                prop_assert!(*e < 5);
            }
        }

        #[test]
        fn tuples_generate(p in (0usize..3, 0.5f64..1.5)) {
            prop_assert!(p.0 < 3);
            prop_assert_eq!(p.0, p.0);
            prop_assert!(p.1 >= 0.5 && p.1 < 1.5);
        }

        #[test]
        fn four_tuples_and_prop_map_compose(
            q in (0u8..4, 0usize..7, 0usize..7, -1.0f64..1.0).prop_map(|(k, a, b, t)| {
                (k as usize + a + b, t)
            }),
        ) {
            prop_assert!(q.0 < 16);
            prop_assert!(q.1 >= -1.0 && q.1 < 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_panic() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            fn inner(x in 0usize..10) {
                prop_assert!(x > 100);
            }
        }
        inner();
    }

    #[test]
    fn rng_is_deterministic_per_case() {
        use rand::Rng;
        let a: f64 = crate::case_rng("t", 3).gen();
        let b: f64 = crate::case_rng("t", 3).gen();
        let c: f64 = crate::case_rng("t", 4).gen();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
