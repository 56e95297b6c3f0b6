//! Seeded Zipfian popularity and the flash-crowd object store.
//!
//! The adversarial suite (DESIGN.md §6g) and the tiering/caching survey
//! in PAPERS.md motivate skewed-popularity access as the canonical
//! stress for a storage hierarchy: a handful of objects absorb most of
//! the traffic (the cache's best case) until a *flash crowd* turns a
//! cold object hot and a storm of concurrent demand fetches lands on one
//! tertiary segment (the coalescing path's worst case).
//!
//! Two pieces:
//!
//! - [`Zipfian`]: a seeded rank sampler over `n` items with exponent
//!   `s` (rank `k` drawn with probability ∝ `1/k^s`), via inverse-CDF
//!   lookup so draws are exact and deterministic;
//! - [`ZipfStore`]: an object store whose popularity ranks are decoupled
//!   from object ids by a seeded shuffle, with an optional scripted
//!   flash crowd that redirects a bias fraction of a request window onto
//!   the store's *coldest* object.

use hl_sim::DetRng;

/// A seeded Zipfian rank sampler: rank 0 is the most popular of `n`
/// items, and rank `k` is drawn with probability proportional to
/// `1/(k+1)^s`.
#[derive(Clone, Debug)]
pub struct Zipfian {
    rng: DetRng,
    /// Cumulative distribution over ranks, normalized to 1.0.
    cdf: Vec<f64>,
}

impl Zipfian {
    /// A sampler over `n` items with exponent `s` (`s = 0` is uniform;
    /// the classic web/workload skew sits near `s = 1`).
    pub fn new(seed: u64, n: usize, s: f64) -> Zipfian {
        assert!(n > 0, "a Zipfian needs at least one item");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipfian {
            rng: DetRng::new(seed),
            cdf,
        }
    }

    /// Draws the next rank (0 = most popular).
    pub fn draw(&mut self) -> usize {
        let u = self.rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The scripted flash crowd of a [`ZipfStore`]: within the request-index
/// window `[from, until)`, each request hits the store's coldest object
/// with probability `bias` instead of following the Zipfian draw.
#[derive(Clone, Copy, Debug)]
pub struct FlashCrowd {
    /// First request index of the crowd window.
    pub from: u64,
    /// One-past-last request index of the window.
    pub until: u64,
    /// Probability an in-window request targets the crowd object.
    pub bias: f64,
}

/// A seeded object store with Zipfian popularity and an optional
/// scripted flash crowd. Object ids are `0..objects`; popularity ranks
/// are mapped onto ids through a seeded shuffle so "object 0 is hottest"
/// never holds by construction.
#[derive(Clone, Debug)]
pub struct ZipfStore {
    zipf: Zipfian,
    crowd_rng: DetRng,
    /// `by_rank[r]` = the object id holding popularity rank `r`.
    by_rank: Vec<u32>,
    crowd: Option<FlashCrowd>,
    issued: u64,
}

impl ZipfStore {
    /// A store of `objects` ids with exponent `exponent`, no crowd.
    pub fn new(seed: u64, objects: u32, exponent: f64) -> ZipfStore {
        let mut perm_rng = DetRng::new(seed ^ 0x5eed_0bec_7a11_c0de);
        let mut by_rank: Vec<u32> = (0..objects).collect();
        perm_rng.shuffle(&mut by_rank);
        ZipfStore {
            zipf: Zipfian::new(seed, objects as usize, exponent),
            crowd_rng: DetRng::new(seed.rotate_left(17) ^ 0xc07d_0b1e),
            by_rank,
            crowd: None,
            issued: 0,
        }
    }

    /// Scripts a flash crowd over the request-index window
    /// `[from, until)` with hit probability `bias`.
    pub fn with_flash_crowd(mut self, from: u64, until: u64, bias: f64) -> ZipfStore {
        self.crowd = Some(FlashCrowd { from, until, bias });
        self
    }

    /// Number of objects in the store.
    pub fn objects(&self) -> u32 {
        self.by_rank.len() as u32
    }

    /// The flash crowd's target: the store's coldest object (last
    /// popularity rank). With a crowd scripted, the object is
    /// *unpublished* until the window opens — the stream never serves
    /// it organically before the crowd arrives, so the storm is
    /// guaranteed to land on a stone-cold segment.
    pub fn crowd_object(&self) -> u32 {
        *self.by_rank.last().expect("store is non-empty")
    }

    /// The object id of the next request.
    pub fn next_object(&mut self) -> u32 {
        let i = self.issued;
        self.issued += 1;
        if let Some(c) = self.crowd {
            if i >= c.from && i < c.until && self.crowd_rng.chance(c.bias) {
                return self.crowd_object();
            }
        }
        let obj = self.by_rank[self.zipf.draw()];
        if self.crowd.is_some_and(|c| i < c.from) && obj == self.crowd_object() {
            // Unpublished before the window: redirect the stray draw to
            // the hottest object instead of leaking an early warm-up.
            return self.by_rank[0];
        }
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_per_seed() {
        let mut a = Zipfian::new(7, 100, 1.0);
        let mut b = Zipfian::new(7, 100, 1.0);
        let xs: Vec<usize> = (0..1000).map(|_| a.draw()).collect();
        let ys: Vec<usize> = (0..1000).map(|_| b.draw()).collect();
        assert_eq!(xs, ys, "same seed must replay the same draw sequence");
        let mut c = Zipfian::new(8, 100, 1.0);
        let zs: Vec<usize> = (0..1000).map(|_| c.draw()).collect();
        assert_ne!(xs, zs, "a different seed should diverge");
    }

    #[test]
    fn rank_frequency_follows_the_zipf_shape() {
        // s = 1: rank k is drawn ∝ 1/(k+1), so rank 0 should appear
        // about twice as often as rank 1 and five times as often as
        // rank 4.
        let mut z = Zipfian::new(3, 50, 1.0);
        let mut counts = [0u32; 50];
        for _ in 0..40_000 {
            counts[z.draw()] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[4]);
        let r01 = counts[0] as f64 / counts[1] as f64;
        assert!((1.6..2.5).contains(&r01), "rank0/rank1 ratio {r01:.2}");
        let r04 = counts[0] as f64 / counts[4] as f64;
        assert!((3.5..6.5).contains(&r04), "rank0/rank4 ratio {r04:.2}");
    }

    #[test]
    fn exponent_zero_is_roughly_uniform() {
        let mut z = Zipfian::new(11, 10, 0.0);
        let mut counts = [0u32; 10];
        for _ in 0..20_000 {
            counts[z.draw()] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min < 1.5, "uniform draw skewed: {counts:?}");
    }

    #[test]
    fn store_decouples_rank_from_object_id() {
        let s = ZipfStore::new(5, 64, 1.1);
        let mut sorted = s.by_rank.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<u32>>());
        assert_ne!(
            s.by_rank,
            (0..64).collect::<Vec<u32>>(),
            "the rank permutation should not be the identity"
        );
    }

    #[test]
    fn flash_crowd_turns_the_cold_object_hot() {
        let mut s = ZipfStore::new(9, 32, 1.1).with_flash_crowd(1000, 2000, 0.9);
        let cold = s.crowd_object();
        let before = (0..1000).filter(|_| s.next_object() == cold).count();
        let during = (0..1000).filter(|_| s.next_object() == cold).count();
        assert_eq!(
            before, 0,
            "the crowd object is unpublished before the window opens"
        );
        assert!(
            during > 700,
            "the crowd never materialized: {during}/1000 hits in-window"
        );
    }

    #[test]
    fn store_is_deterministic_per_seed() {
        let mut a = ZipfStore::new(42, 48, 1.0).with_flash_crowd(10, 60, 0.8);
        let mut b = ZipfStore::new(42, 48, 1.0).with_flash_crowd(10, 60, 0.8);
        let xs: Vec<u32> = (0..200).map(|_| a.next_object()).collect();
        let ys: Vec<u32> = (0..200).map(|_| b.next_object()).collect();
        assert_eq!(xs, ys);
    }
}
