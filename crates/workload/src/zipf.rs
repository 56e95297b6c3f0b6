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
//!   lookup so draws are exact and deterministic; a Chen–Asau guide
//!   table starts each lookup next to its answer, so a draw costs a step
//!   or two instead of a binary search;
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
    /// Chen–Asau guide table over [`GUIDE_PER_RANK`]` * n` equal
    /// buckets of `[0, 1]`: `guide[j]` is the first rank whose CDF value
    /// falls in bucket `j` or later ([`bucket`]), so a draw `u` in bucket
    /// `j` starts at or before its rank, and the ranks between are the
    /// CDF values in that bucket below `u`.
    guide: Vec<u32>,
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
        // `guide[j]` is `cdf.partition_point(|&c| bucket(buckets, c) < j)`;
        // the buckets of the CDF values only grow, so one merge of the
        // bucket indices with the ranks finds every entry.
        let buckets = GUIDE_PER_RANK * n;
        let mut guide = Vec::with_capacity(buckets + 1);
        let mut rank = 0;
        for j in 0..=buckets {
            while rank < n && bucket(buckets, cdf[rank]) < j {
                rank += 1;
            }
            guide.push(rank as u32);
        }
        Zipfian {
            rng: DetRng::new(seed),
            cdf,
            guide,
        }
    }

    /// Draws the next rank (0 = most popular).
    pub fn draw(&mut self) -> usize {
        let u = self.rng.unit();
        self.rank(u)
    }

    /// The rank `u` falls on: the first whose CDF value reaches `u`, the
    /// last if none does — `cdf.partition_point(|&c| c < u)`, capped.
    /// The bucket of a CDF value never exceeds the bucket of a `u` it is
    /// below (the bucket is monotone in its argument, rounding included),
    /// so `u`'s bucket's guide is at or before the rank, and the walk
    /// from it only moves on.
    fn rank(&self, u: f64) -> usize {
        let last = self.cdf.len() - 1;
        let mut i = self.guide[bucket(self.guide.len() - 1, u)] as usize;
        while i < last && self.cdf[i] < u {
            i += 1;
        }
        i
    }
}

/// Guide-table buckets per rank. With one a rank a skewed draw walks up
/// to four ranks, and its unpredictable walk costs more than the binary
/// search it replaces (20 against 13–18 ns a draw at 128 objects and
/// exponent 0.9); with eight, 94 % of draws walk none and the rest one
/// (6.5 ns), for 32 bytes a rank.
const GUIDE_PER_RANK: usize = 8;

/// Which of `m` equal buckets of `[0, 1]` holds `x` (`m` for `x >= 1`):
/// one rounded multiply, the same for a draw and for the CDF values the
/// guide table was built from.
fn bucket(m: usize, x: f64) -> usize {
    ((x * m as f64) as usize).min(m)
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
    use proptest::collection::vec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The guide table finds the binary search's rank for every `u`:
        /// random ones, each CDF value and each bucket edge, and the
        /// floats either side of those. Seen red, each sabotage alone:
        /// the walk stopping at `<=` (`u` equal to a CDF value: one rank
        /// on); each guide entry one rank late.
        #[test]
        fn the_guide_table_draws_the_binary_searchs_rank(
            seed in any::<u64>(),
            n in 1usize..300,
            s_milli in 0u32..2_000,
            picks in vec((0u8..3, any::<u64>()), 1..64usize),
        ) {
            let z = Zipfian::new(seed, n, s_milli as f64 / 1_000.0);
            for (kind, x) in picks {
                let at = match kind {
                    0 => (x >> 11) as f64 / (1u64 << 53) as f64,
                    1 => z.cdf[x as usize % n],
                    _ => {
                        let m = GUIDE_PER_RANK * n;
                        (x as usize % (m + 1)) as f64 / m as f64
                    }
                };
                for u in [at.next_down(), at, at.next_up()] {
                    let want = z.cdf.partition_point(|&c| c < u).min(n - 1);
                    prop_assert_eq!(z.rank(u), want);
                }
            }
        }
    }

    /// The merged guide table is the one a binary search per bucket
    /// builds, for every size up to 300 and the exponents the workloads
    /// and tests use. Seen red with the merge comparing `<=` (each entry
    /// whose bucket holds a CDF value moves past that rank).
    #[test]
    fn the_merged_guide_is_the_binary_searched_one() {
        for n in 1..300 {
            for s in [0.0, 0.5, 0.9, 1.2, 2.0] {
                let z = Zipfian::new(1, n, s);
                let buckets = GUIDE_PER_RANK * n;
                let want: Vec<u32> = (0..=buckets)
                    .map(|j| z.cdf.partition_point(|&c| bucket(buckets, c) < j) as u32)
                    .collect();
                assert_eq!(z.guide, want, "n = {n}, s = {s}");
            }
        }
    }

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
