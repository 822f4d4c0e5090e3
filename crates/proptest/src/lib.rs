//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no network access, so the real `proptest`
//! cannot be fetched. This workspace member implements the subset the
//! repository's tests use: the [`Strategy`](strategy::Strategy)
//! abstraction (ranges, tuples, [`Just`](strategy::Just),
//! [`any`](strategy::any), `prop_map`, `prop_oneof!`, `collection::vec`)
//! and the [`proptest!`] / `prop_assert*!` / `prop_assume!` macros.
//!
//! Differences from the real crate, deliberately accepted:
//!
//! * **no shrinking** — a failing case reports the assertion message only;
//! * **deterministic seeding** — each test's RNG is seeded from a hash of
//!   the test name (override with the `PROPTEST_SEED` environment variable),
//!   so a failure always reproduces;
//! * `proptest-regressions` files are ignored.

pub mod strategy;
pub mod test_runner;

pub mod collection {
    //! Strategies for collections (`vec`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// The accepted size arguments of [`vec`](fn@vec): an exact count or a
    /// range.
    pub trait SizeRange {
        /// Draws a concrete length.
        fn draw_len(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn draw_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for std::ops::Range<usize> {
        fn draw_len(&self, rng: &mut TestRng) -> usize {
            if self.start >= self.end {
                self.start
            } else {
                rng.gen_range(self.start..self.end)
            }
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn draw_len(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(*self.start()..self.end().saturating_add(1))
        }
    }

    /// A strategy producing `Vec`s of values drawn from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    /// `vec(element, len)`: a vector whose length is drawn from `len` and
    /// whose elements are drawn from `element`.
    pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;

        fn pick(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.draw_len(rng);
            (0..n).map(|_| self.element.pick(rng)).collect()
        }
    }
}

pub mod prelude {
    //! The glob-import surface, mirroring `proptest::prelude`.

    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume};
    pub use crate::{prop_oneof, proptest};

    /// `prop::collection::…` paths, as re-exported by the real prelude.
    pub mod prop {
        pub use crate::collection;
    }
}
