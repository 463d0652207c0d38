//! Offline stand-in for `proptest`.
//!
//! The build environment has no access to crates.io, so this vendors the
//! subset of the proptest API the workspace's property tests use:
//!
//! * the `proptest!` macro (with `#![proptest_config(...)]`),
//! * [`strategy::Strategy`] with `prop_map`/`boxed`, integer ranges, tuples,
//!   [`strategy::Just`], `prop_oneof!` (weighted and unweighted),
//!   `prop::collection::{vec, btree_set}`, `any::<bool>()`,
//!   `any::<prop::sample::Index>()`,
//! * `prop_assert!`/`prop_assert_eq!`/`prop_assert_ne!`.
//!
//! Semantics: each test runs `cases` deterministic pseudo-random cases
//! (seeded from the test's name, so failures reproduce across runs).
//! There is **no shrinking** — a failing case panics with the values'
//! `Debug` rendering left to the assertion message. That trades minimal
//! counterexamples for zero dependencies; the property tests here assert
//! against brute-force oracles whose failures are readable regardless.

pub mod test_runner {
    /// Deterministic xoshiro256++ generator used by the case runner.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl TestRng {
        pub fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            TestRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }

        /// Seeded from the test's name: deterministic across runs and
        /// independent across tests.
        pub fn from_name(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            Self::seed_from_u64(h)
        }

        pub fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        /// Uniform in `[0, bound)`.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }
    }

    /// Runner configuration; only `cases` is honored.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: env_cases().unwrap_or(64),
            }
        }
    }

    impl ProptestConfig {
        /// Like real proptest, `PROPTEST_CASES` overrides any in-source
        /// count — CI uses it to trim expensive suites (e.g. under TSAN).
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig {
                cases: env_cases().unwrap_or(cases),
            }
        }
    }

    fn env_cases() -> Option<u32> {
        std::env::var("PROPTEST_CASES").ok()?.parse().ok()
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;
    use std::ops::Range;

    /// A generator of values of one type. Unlike real proptest there is no
    /// value tree: `generate` draws a fresh sample (no shrinking).
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// A type-erased strategy (`prop_oneof!` arms).
    pub struct BoxedStrategy<V>(Box<dyn Strategy<Value = V>>);

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            self.0.generate(rng)
        }
    }

    /// Always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// `strategy.prop_map(f)`.
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Weighted choice among type-erased strategies (`prop_oneof!`).
    pub struct Union<V> {
        arms: Vec<(u32, BoxedStrategy<V>)>,
        total: u64,
    }

    impl<V> Union<V> {
        pub fn new(arms: Vec<(u32, BoxedStrategy<V>)>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            let total = arms.iter().map(|(w, _)| *w as u64).sum();
            assert!(total > 0, "prop_oneof! weights must not all be zero");
            Union { arms, total }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let mut pick = rng.below(self.total);
            for (w, arm) in &self.arms {
                if pick < *w as u64 {
                    return arm.generate(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("weighted pick out of range")
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty => $u:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = self.end.wrapping_sub(self.start) as $u as u64;
                    let off = rng.below(span) as $u;
                    self.start.wrapping_add(off as $t)
                }
            }
        )*};
    }

    impl_range_strategy!(
        u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
        i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize
    );

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);

    /// Strategy for a primitive drawn uniformly from its whole domain
    /// (`any::<bool>()`, `any::<Index>()`).
    pub struct AnyOf<T>(pub(crate) PhantomData<T>);

    impl Strategy for AnyOf<bool> {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Strategy for AnyOf<crate::prop::sample::Index> {
        type Value = crate::prop::sample::Index;
        fn generate(&self, rng: &mut TestRng) -> crate::prop::sample::Index {
            crate::prop::sample::Index(rng.next_u64())
        }
    }
}

pub mod arbitrary {
    use crate::strategy::AnyOf;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        fn arbitrary() -> AnyOf<Self>;
    }

    impl Arbitrary for bool {
        fn arbitrary() -> AnyOf<bool> {
            AnyOf(PhantomData)
        }
    }

    impl Arbitrary for crate::prop::sample::Index {
        fn arbitrary() -> AnyOf<Self> {
            AnyOf(PhantomData)
        }
    }

    /// `any::<T>()` — the canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> AnyOf<T> {
        T::arbitrary()
    }
}

pub mod prop {
    pub mod collection {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        use std::collections::BTreeSet;
        use std::ops::Range;

        /// Collection size: a half-open range or an exact count.
        #[derive(Clone, Debug)]
        pub struct SizeRange {
            lo: usize,
            hi: usize, // exclusive
        }

        impl From<Range<usize>> for SizeRange {
            fn from(r: Range<usize>) -> Self {
                assert!(r.start < r.end, "empty size range");
                SizeRange {
                    lo: r.start,
                    hi: r.end,
                }
            }
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange { lo: n, hi: n + 1 }
            }
        }

        impl SizeRange {
            fn pick(&self, rng: &mut TestRng) -> usize {
                self.lo + rng.below((self.hi - self.lo) as u64) as usize
            }
        }

        /// `prop::collection::vec(element, size)`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = self.size.pick(rng);
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// `prop::collection::btree_set(element, size)`. As in proptest,
        /// `size` counts *draws*; duplicates collapse, so the set can come
        /// out smaller.
        pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
        where
            S: Strategy,
            S::Value: Ord,
        {
            BTreeSetStrategy {
                element,
                size: size.into(),
            }
        }

        pub struct BTreeSetStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for BTreeSetStrategy<S>
        where
            S::Value: Ord,
        {
            type Value = BTreeSet<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
                let n = self.size.pick(rng);
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }
    }

    pub mod sample {
        /// An index into a not-yet-known-length collection: resolved with
        /// [`Index::index`] against the live length at use time.
        #[derive(Copy, Clone, Debug, PartialEq, Eq)]
        pub struct Index(pub(crate) u64);

        impl Index {
            /// An index uniform in `[0, len)`. Panics if `len == 0`.
            pub fn index(&self, len: usize) -> usize {
                assert!(len > 0, "Index::index on empty collection");
                ((self.0 as u128 * len as u128) >> 64) as usize
            }
        }
    }
}

/// The assertion macros simply panic (no rejection bookkeeping): with no
/// shrinking there is nothing else to do with a failure.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( ($weight as u32, $crate::strategy::Strategy::boxed($strat)) ),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( (1u32, $crate::strategy::Strategy::boxed($strat)) ),+
        ])
    };
}

/// The test-defining macro: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` (the attribute is written by the caller, exactly as
/// with real proptest) running `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!{ ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!{
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($config:expr) ) => {};
    ( ($config:expr)
      $(#[$meta:meta])*
      fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $config;
            let mut __rng = $crate::test_runner::TestRng::from_name(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for __case in 0..__config.cases {
                let ($($arg,)+) =
                    ($( $crate::strategy::Strategy::generate(&($strat), &mut __rng), )+);
                $body
            }
        }
        $crate::__proptest_items!{ ($config) $($rest)* }
    };
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Kind {
        A(usize),
        B,
    }

    fn kind() -> impl Strategy<Value = Kind> {
        prop_oneof![
            3 => (0..10usize).prop_map(Kind::A),
            1 => Just(Kind::B),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn ranges_and_tuples_in_bounds(
            a in 0i64..50,
            pair in (10u32..20, -5i8..5),
        ) {
            prop_assert!((0..50).contains(&a));
            prop_assert!((10..20).contains(&pair.0));
            prop_assert!((-5..5).contains(&pair.1));
        }

        #[test]
        fn collections_respect_sizes(
            v in prop::collection::vec(0u8..4, 2..6),
            s in prop::collection::btree_set(0i64..100, 0..10),
            exact in prop::collection::vec(0u32..2, 3),
        ) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(s.len() < 10);
            prop_assert_eq!(exact.len(), 3);
        }

        #[test]
        fn oneof_weights_hit_all_arms(ks in prop::collection::vec(kind(), 64)) {
            // With weight 3:1 over 64 draws both arms appear with
            // overwhelming probability (checked deterministically: the seed
            // is fixed by the test name).
            prop_assert!(ks.iter().any(|k| matches!(k, Kind::A(_))));
            prop_assert!(ks.contains(&Kind::B));
        }

        #[test]
        fn index_resolves_in_bounds(idx in any::<prop::sample::Index>(), flag in any::<bool>()) {
            let len = if flag { 7 } else { 1 };
            prop_assert!(idx.index(len) < len);
        }
    }

    #[test]
    fn cases_are_deterministic_per_name() {
        let mut a = crate::test_runner::TestRng::from_name("x");
        let mut b = crate::test_runner::TestRng::from_name("x");
        let mut c = crate::test_runner::TestRng::from_name("y");
        let (va, vb, vc) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }
}
