//! Lightweight deterministic property-testing harness.
//!
//! The offline build environment cannot fetch `proptest`, so the
//! workspace's property tests run on this self-contained kit instead: a
//! seeded [`Gen`] produces random inputs, and [`check`] runs a property
//! over a fixed number of generated cases, reporting the failing case
//! seed so a failure reproduces exactly with `Gen::new(seed)`.
//!
//! There is no shrinking — cases are small by construction, and the
//! printed seed pins the exact failing input.
//!
//! The kit also keeps [`SlotPool`], the closure-driven FIFO counted
//! resource that `engine_parity.rs` holds the cluster engine's `run_phase`
//! against: a reference implementation, so it lives with the test tooling
//! rather than in the `hhsim-des` kernel.
//!
//! And it keeps the one counting allocator of the allocation ratchets:
//! [`Counting`], installed by each such test binary, and [`counted`],
//! which reads what the thread running a closure allocated.
//!
//! # Examples
//!
//! ```
//! hhsim_testkit::check(64, |g| {
//!     let a = g.u64(0..1_000);
//!     let b = g.u64(0..1_000);
//!     assert_eq!(a + b, b + a);
//! });
//! ```

mod alloc;
mod resource;

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub use alloc::{counted, Allocs, Counting};
pub use resource::{PoolStats, SharedSlotPool, SlotGuard, SlotPool};

/// A deterministic random-input generator for one test case.
#[derive(Debug, Clone)]
pub struct Gen {
    rng: StdRng,
}

impl Gen {
    /// Creates a generator for the given case seed.
    pub fn new(seed: u64) -> Self {
        Gen {
            // Offset the stream from plain `seed_from_u64(seed)` so test
            // inputs don't collide with simulation streams seeded 0, 1, ….
            rng: StdRng::seed_from_u64(seed ^ 0x7e57_c0de_5eed_0001),
        }
    }

    /// Uniform `u64` in `[range.start, range.end)`.
    pub fn u64(&mut self, range: std::ops::Range<u64>) -> u64 {
        self.rng.random_range(range)
    }

    /// Uniform `usize` in `[range.start, range.end)`.
    pub fn usize(&mut self, range: std::ops::Range<usize>) -> usize {
        self.rng.random_range(range)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.rng.random()
    }

    /// `true` with probability `p`.
    pub fn bool(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Uniformly picks one element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.usize(0..items.len())]
    }

    /// Vector of `len ∈ [range.start, range.end)` elements drawn by `f`.
    pub fn vec<T>(
        &mut self,
        range: std::ops::Range<usize>,
        mut f: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.usize(range);
        (0..n).map(|_| f(self)).collect()
    }

    /// Vector of uniformly random bytes with `len ∈ [range.start, range.end)`.
    pub fn bytes(&mut self, range: std::ops::Range<usize>) -> Vec<u8> {
        self.vec(range, |g| g.rng.random_range(0..=u8::MAX))
    }

    /// String of `len ∈ [min, max]` characters drawn uniformly from
    /// `alphabet` (covers simple regex-class strategies like `[a-d]{1,3}`).
    ///
    /// # Panics
    ///
    /// Panics if `alphabet` is empty.
    pub fn string(&mut self, len: std::ops::RangeInclusive<usize>, alphabet: &[char]) -> String {
        let n = self.rng.random_range(len);
        (0..n).map(|_| *self.pick(alphabet)).collect()
    }
}

/// Runs `property` over `cases` generated inputs (case seeds `0..cases`).
///
/// # Panics
///
/// Re-raises the property's panic after printing the failing case seed.
pub fn check(cases: u64, mut property: impl FnMut(&mut Gen)) {
    for seed in 0..cases {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut g = Gen::new(seed);
            property(&mut g);
        }));
        if let Err(payload) = result {
            eprintln!(
                "property failed at case seed={seed} (reproduce with hhsim_testkit::Gen::new({seed}))"
            );
            resume_unwind(payload);
        }
    }
}

/// Runs a streaming exporter into memory and returns its text, so tests
/// compare an export as one `String`:
/// `streamed(|w| timeline.write_chrome_trace(w))`. Generic over the
/// closure because this crate sits below `hhsim-core` and cannot name its
/// timeline.
///
/// # Panics
///
/// Panics if the writer fails or emits bytes that are not UTF-8.
pub fn streamed(write: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>) -> String {
    let mut buf = Vec::new();
    write(&mut buf).expect("writing into a Vec cannot fail");
    String::from_utf8(buf).expect("exports are UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic() {
        let mut a = Gen::new(3);
        let mut b = Gen::new(3);
        assert_eq!(a.u64(0..1_000_000), b.u64(0..1_000_000));
        assert_eq!(a.bytes(0..64), b.bytes(0..64));
    }

    #[test]
    fn string_respects_alphabet_and_len() {
        let mut g = Gen::new(1);
        for _ in 0..200 {
            let s = g.string(1..=3, &['a', 'b', 'c', 'd']);
            assert!((1..=3).contains(&s.len()));
            assert!(s.chars().all(|c| ('a'..='d').contains(&c)));
        }
    }

    #[test]
    fn check_runs_all_cases() {
        let mut n = 0u64;
        check(17, |_| n += 1);
        assert_eq!(n, 17);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn check_propagates_failures() {
        check(5, |g| {
            if g.u64(0..10) < 100 {
                panic!("boom");
            }
        });
    }
}
