//! Order statistics: the median of reps, the percentile a sample can
//! support, and the quartile spread the acceptance rule is written in.

/// Median of `xs` (mean of the middle pair for an even count). Sorts in
/// place. Panics on an empty slice: every caller has at least one rep.
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank `p`-th percentile (0–100) of an ascending slice; the
/// same rule `hl-server`'s fleet report uses, so fs and fleet workloads
/// agree on what "p99" means.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// The tail percentiles the benchmark may report, highest first, in
/// tenths of a percent (integers, so that "ten beyond" is exact).
const TAILS_PER_MILLE: [usize; 5] = [999, 990, 950, 900, 750];

/// The highest tail percentile that still has at least ten samples
/// beyond it in a sample of `n` — a tail read off fewer is one or two
/// outliers, not a percentile. `None` below 40 samples.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS_PER_MILLE
        .into_iter()
        .find(|p| n * (1000 - p) / 1000 >= 10)
        .map(|p| p as f64 / 10.0)
}

/// Quartiles of `xs` as Python's `statistics.quantiles(xs, n=4)` gives
/// them (the exclusive method), so that the spread printed here is the
/// spread the acceptance rule computes. Needs two samples.
pub fn quartiles(xs: &mut [f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need two samples");
    xs.sort_by(f64::total_cmp);
    let ld = xs.len();
    [1usize, 2, 3].map(|i| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0
    })
}

/// Inter-quartile distance as a share of the median.
pub fn quartile_spread(xs: &mut [f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&xs, 50.0), 501); // rank round(499.5) = 500
        assert_eq!(percentile(&xs, 99.0), 990);
        assert_eq!(percentile(&xs, 100.0), 1000);
        assert_eq!(percentile(&xs, 0.0), 1);
        assert_eq!(percentile(&[5], 99.0), 5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(9_999), Some(99.0)); // 9.999 beyond 99.9
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(39), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let mut xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut xs), [2.75, 5.5, 8.25]);
        assert_eq!(quartile_spread(&mut xs), 1.0);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&mut [2.0, 1.0]), [0.75, 1.5, 2.25]);
    }
}
