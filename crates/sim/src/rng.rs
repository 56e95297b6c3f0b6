//! Deterministic random numbers for workloads and policies.
//!
//! The paper seeded `random()` with time-of-day plus pid (§7.1); for a
//! reproducible simulation we use fixed seeds instead. [`DetRng`] is a thin
//! façade over a small-state PRNG so that the rest of the repository does
//! not depend on the `rand` API surface directly.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// A deterministic, seedable random number generator.
///
/// # Examples
///
/// ```
/// let mut a = hl_sim::DetRng::new(42);
/// let mut b = hl_sim::DetRng::new(42);
/// assert_eq!(a.below(1000), b.below(1000));
/// ```
#[derive(Clone, Debug)]
pub struct DetRng {
    inner: SmallRng,
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Returns a uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "DetRng::below(0)");
        self.inner.random_range(0..n)
    }

    /// Returns a uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "DetRng::range({lo}, {hi})");
        self.inner.random_range(lo..hi)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.inner.random::<f64>() < p
    }

    /// Returns a uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.below(1 << 30), b.below(1 << 30));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64)
            .filter(|_| a.below(1 << 20) == b.below(1 << 20))
            .count();
        assert!(same < 4);
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = DetRng::new(3);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = DetRng::new(4);
        for _ in 0..1000 {
            let x = r.range(5, 8);
            assert!((5..8).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.1));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = DetRng::new(6);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn eighty_twenty_split_approximates() {
        // Sanity check for the 80/20 locality workloads built on `chance`.
        let mut r = DetRng::new(8);
        let hits = (0..10_000).filter(|_| r.chance(0.8)).count();
        assert!((7_500..8_500).contains(&hits), "{hits}");
    }
}
