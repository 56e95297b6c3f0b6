//! Measurement helpers: the percentile rule every report shares.

/// The `p`-th percentile (0–100) of an ascending slice by rounded
/// nearest rank, `sorted[((n - 1) * p + 50) / 100]`; 0 when empty.
pub fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) * p + 50) / 100]
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
}
