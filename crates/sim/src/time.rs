//! Simulated time: a `u64` count of microseconds since simulation start.
//!
//! Microsecond resolution is fine-grained enough for the device models
//! (the fastest event in the paper, a 4 KB transfer on an RZ58, takes about
//! 2.7 ms) while leaving headroom for centuries of simulated time.

/// A point in simulated time, in microseconds since simulation start.
pub type SimTime = u64;

/// One millisecond in microseconds.
pub const MS: SimTime = 1_000;
/// One second in microseconds.
pub const SEC: SimTime = 1_000_000;

/// Converts a fractional number of seconds to [`SimTime`].
///
/// # Examples
///
/// ```
/// assert_eq!(hl_sim::time::secs(13.5), 13_500_000);
/// ```
pub fn secs(s: f64) -> SimTime {
    (s * SEC as f64).round() as SimTime
}

/// Converts a [`SimTime`] interval to fractional seconds.
pub fn as_secs(t: SimTime) -> f64 {
    t as f64 / SEC as f64
}

/// Converts a fractional number of milliseconds to [`SimTime`]
/// (convenient for sub-second knobs like retry backoff bases).
///
/// # Examples
///
/// ```
/// assert_eq!(hl_sim::time::millis(100.0), 100_000);
/// ```
pub fn millis(ms: f64) -> SimTime {
    (ms * MS as f64).round() as SimTime
}

/// Computes the duration of transferring `bytes` at `kb_per_sec` kilobytes
/// (1024 bytes) per second, the unit the paper's tables use.
pub fn transfer_time(bytes: u64, kb_per_sec: f64) -> SimTime {
    if bytes == 0 {
        return 0;
    }
    let secs = bytes as f64 / (kb_per_sec * 1024.0);
    (secs * SEC as f64).round() as SimTime
}

/// Computes throughput in KB/s for `bytes` moved over interval `t`.
///
/// Returns `f64::INFINITY` for a zero-length interval with nonzero data.
pub fn throughput_kbs(bytes: u64, t: SimTime) -> f64 {
    if t == 0 {
        if bytes == 0 {
            return 0.0;
        }
        return f64::INFINITY;
    }
    (bytes as f64 / 1024.0) / as_secs(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_matches_rate() {
        // 1 MB at 1024 KB/s is exactly one second.
        assert_eq!(transfer_time(1024 * 1024, 1024.0), SEC);
        // Zero bytes take zero time regardless of rate.
        assert_eq!(transfer_time(0, 0.0), 0);
    }

    #[test]
    fn throughput_round_trips() {
        let t = transfer_time(10 * 1024 * 1024, 451.0);
        let back = throughput_kbs(10 * 1024 * 1024, t);
        assert!((back - 451.0).abs() < 0.1, "{back}");
    }

    #[test]
    fn throughput_edge_cases() {
        assert_eq!(throughput_kbs(0, 0), 0.0);
        assert!(throughput_kbs(1, 0).is_infinite());
    }

    #[test]
    fn secs_round_trips() {
        assert_eq!(secs(1.5), 1_500_000);
        assert!((as_secs(secs(123.456)) - 123.456).abs() < 1e-6);
    }
}
