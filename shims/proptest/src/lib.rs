//! Offline shim for `proptest`.
//!
//! Provides the subset of proptest's API that the workspace's property
//! tests use: the `proptest!` macro, `prop_assert*`/`prop_assume!`,
//! strategies for primitive types and ranges, tuple composition,
//! `prop::collection::vec`, `prop::bool::weighted` and `prop_map`.
//!
//! Unlike real proptest there is no shrinking: each test runs a fixed
//! number of randomized cases (default 64, `PROPTEST_CASES` overrides,
//! `ProptestConfig::with_cases` pins). Failures report the panicking
//! assertion directly — cases are reproducible because the RNG is seeded
//! from the test name.

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of randomized cases to execute.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running exactly `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        ProptestConfig { cases }
    }
}

/// Test-case level control flow.
pub mod test_runner {
    /// Why a case ended without completing its body.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// The case's inputs were rejected via `prop_assume!`.
        Reject,
    }

    /// Deterministic per-test RNG (splitmix64 over a name-derived seed).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds from a test name so every run draws the same cases.
        pub fn from_name(name: &str) -> TestRng {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            TestRng { state: h }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform draw in `[0, 1)`.
        pub fn f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform draw in `[0, n)`.
        pub fn below(&mut self, n: u64) -> u64 {
            ((self.next_u64() as u128 * n as u128) >> 64) as u64
        }
    }
}

/// Strategies: composable random value generators.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// A generator of random values of type [`Strategy::Value`].
    pub trait Strategy {
        /// The generated type.
        type Value;
        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy producing a fixed value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Whole-domain strategy for primitives; see [`any`].
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    /// Uniform strategy over a primitive type's whole domain.
    pub fn any<T>() -> Any<T>
    where
        Any<T>: Strategy<Value = T>,
    {
        Any(std::marker::PhantomData)
    }

    macro_rules! impl_any_int {
        ($($t:ty),*) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Any<bool> {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Strategy for Any<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            rng.f64()
        }
    }

    macro_rules! impl_range_int {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty strategy range");
                    let span = (hi - lo) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo + rng.below(span + 1) as $t
                }
            }
        )*};
    }
    impl_range_int!(u8, u16, u32, u64, usize, i64);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty strategy range");
            self.start + rng.f64() * (self.end - self.start)
        }
    }

    macro_rules! impl_tuple {
        ($($name:ident : $idx:tt),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }
    impl_tuple!(A: 0);
    impl_tuple!(A: 0, B: 1);
    impl_tuple!(A: 0, B: 1, C: 2);
    impl_tuple!(A: 0, B: 1, C: 2, D: 3);
    impl_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
    impl_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
}

/// Namespaced strategy constructors (`prop::collection::vec`, ...).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;

        /// Strategy for `Vec`s with random length in `len` and elements
        /// drawn from `element`.
        pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, len }
        }

        /// See [`vec()`].
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S> {
            element: S,
            len: std::ops::Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                assert!(self.len.start < self.len.end, "empty length range");
                let span = (self.len.end - self.len.start) as u64;
                let n = self.len.start + rng.below(span) as usize;
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }
    }

    /// Boolean strategies.
    pub mod bool {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;

        /// Strategy drawing `true` with probability `p`.
        pub fn weighted(p: f64) -> Weighted {
            Weighted { p }
        }

        /// See [`weighted`].
        #[derive(Debug, Clone, Copy)]
        pub struct Weighted {
            p: f64,
        }

        impl Strategy for Weighted {
            type Value = bool;
            fn generate(&self, rng: &mut TestRng) -> bool {
                rng.f64() < self.p
            }
        }
    }
}

/// Everything a property test file needs.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::TestCaseError;
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Asserts a condition inside a property test case.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property test case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a property test case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Skips the current case when its inputs are uninteresting.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

/// Declares `#[test]` functions that run their body over randomized inputs.
///
/// Supports the same surface the workspace uses:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(32))]
///
///     /// Doc comments are allowed.
///     fn my_property(x in 0u64..100, v in prop::collection::vec(any::<u8>(), 0..16)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($cfg:expr);
     $($(#[$meta:meta])*
       fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block)*
    ) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng =
                    $crate::test_runner::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
                for __case in 0..config.cases {
                    let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    match outcome {
                        ::std::result::Result::Ok(()) => {}
                        ::std::result::Result::Err(
                            $crate::test_runner::TestCaseError::Reject,
                        ) => continue,
                    }
                }
            }
        )*
    };
}
