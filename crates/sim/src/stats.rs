//! Measurement helpers: the percentile rule every report shares.

/// The `p`-th percentile (0–100) of an ascending slice by rounded
/// nearest rank, `sorted[((n - 1) * p + 50) / 100]`; 0 when empty.
pub fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) * p + 50) / 100]
}

/// The `ps`-th percentiles (0–100, ascending) of `xs` by the rule of
/// [`percentile`], as `percentile` reads them off `xs` sorted; zeros
/// when empty. Each rank is selected in place (`select_nth_unstable`,
/// each search in the part above the last rank found) instead of
/// sorting the whole slice, which is left permuted.
///
/// # Panics
///
/// Panics if `ps` is not ascending.
pub fn percentiles<const N: usize>(xs: &mut [u64], ps: [usize; N]) -> [u64; N] {
    assert!(
        ps.is_sorted(),
        "percentiles must be asked in ascending order"
    );
    let mut out = [0; N];
    let Some(last) = xs.len().checked_sub(1) else {
        return out;
    };
    // Everything before `lo` is at most everything from `lo` on.
    let mut lo = 0;
    for (v, p) in out.iter_mut().zip(ps) {
        let rank = (last * p + 50) / 100;
        *v = *xs[lo..].select_nth_unstable(rank - lo).1;
        lo = rank;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_rounded_nearest_rank() {
        assert_eq!(percentile(&[], 95), 0);
        assert_eq!(percentile(&[7], 99), 7);
        let v: Vec<u64> = (0..11).collect();
        assert_eq!(percentile(&v, 50), 5);
        // Rank 9.5 rounds up, as the float `round()` forms it replaced did.
        assert_eq!(percentile(&v, 95), 10);
        assert_eq!(percentile(&v, 0), 0);
        assert_eq!(percentile(&v, 100), 10);
    }

    /// Selection reads what sorting and [`percentile`] read: on empty,
    /// one-element and duplicate-heavy inputs, for repeated and extreme
    /// ranks. Seen red with each search started past the last rank found
    /// (`lo = rank + 1`: a repeated rank underflows).
    #[test]
    fn percentiles_select_what_sorting_reads() {
        let mut rng = crate::DetRng::new(7);
        let mut inputs: Vec<Vec<u64>> = vec![vec![], vec![9], vec![4, 4, 4], vec![3, 1, 2]];
        for len in [2, 10, 11, 100, 1_001] {
            for spread in [1, 3, 1_000_000] {
                inputs.push((0..len).map(|_| rng.below(spread)).collect());
            }
        }
        for xs in inputs {
            let mut sorted = xs.clone();
            sorted.sort_unstable();
            let want = |ps: &[usize]| {
                ps.iter()
                    .map(|&p| percentile(&sorted, p))
                    .collect::<Vec<_>>()
            };
            let mut ys = xs.clone();
            assert_eq!(
                percentiles(&mut ys, [50, 95, 99]).to_vec(),
                want(&[50, 95, 99]),
                "{xs:?}"
            );
            let mut ys = xs.clone();
            let ps = [0, 0, 1, 50, 50, 99, 100, 100];
            assert_eq!(percentiles(&mut ys, ps).to_vec(), want(&ps), "{xs:?}");
        }
    }
}
