//! Measurement helpers: scalar summaries and named phase timers.
//!
//! [`PhaseTimer`] reproduces the paper's Table 4 methodology: the migration
//! path is instrumented so that elapsed time is attributed to named phases
//! (Footprint write, I/O server read, queuing) and reported as percentages
//! of the total.

use std::collections::BTreeMap;

use crate::time::{as_secs, SimTime};

/// Running summary of a stream of samples (count / sum / min / max / mean).
#[derive(Clone, Debug, Default)]
pub struct Summary {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn add(&mut self, x: f64) {
        if self.count == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.count += 1;
        self.sum += x;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest sample, or 0.0 if empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample, or 0.0 if empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// The `p`-th percentile (0–100) of an ascending slice by rounded
/// nearest rank, `sorted[((n - 1) * p + 50) / 100]`; 0 when empty.
pub fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) * p + 50) / 100]
}

/// Accumulates simulated time into named phases.
///
/// # Examples
///
/// ```
/// let mut pt = hl_sim::PhaseTimer::new();
/// pt.add("footprint write", 620);
/// pt.add("io server read", 370);
/// pt.add("queuing", 10);
/// let pcts = pt.percentages();
/// assert_eq!(pcts["footprint write"], 62.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PhaseTimer {
    phases: BTreeMap<&'static str, SimTime>,
}

impl PhaseTimer {
    /// Creates an empty timer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `dt` to phase `name`.
    pub fn add(&mut self, name: &'static str, dt: SimTime) {
        *self.phases.entry(name).or_insert(0) += dt;
    }

    /// Returns the accumulated time for `name` (0 if never recorded).
    pub fn get(&self, name: &str) -> SimTime {
        self.phases.get(name).copied().unwrap_or(0)
    }

    /// Total time across all phases.
    pub fn total(&self) -> SimTime {
        self.phases.values().sum()
    }

    /// Per-phase share of the total, in percent.
    pub fn percentages(&self) -> BTreeMap<&'static str, f64> {
        let total = self.total();
        self.phases
            .iter()
            .map(|(&k, &v)| {
                let pct = if total == 0 {
                    0.0
                } else {
                    100.0 * v as f64 / total as f64
                };
                (k, pct)
            })
            .collect()
    }

    /// Iterates `(phase, time)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, SimTime)> + '_ {
        self.phases.iter().map(|(&k, &v)| (k, v))
    }

    /// Renders a small report, one phase per line.
    pub fn report(&self) -> String {
        let pcts = self.percentages();
        let mut out = String::new();
        for (name, t) in self.iter() {
            out.push_str(&format!(
                "{name:<24} {:>10.3} s {:>6.1}%\n",
                as_secs(t),
                pcts[name]
            ));
        }
        out
    }
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

    #[test]
    fn summary_tracks_extremes_and_mean() {
        let mut s = Summary::new();
        for x in [3.0, 1.0, 2.0] {
            s.add(x);
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 3.0);
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn phase_timer_percentages_sum_to_100() {
        let mut pt = PhaseTimer::new();
        pt.add("a", 1);
        pt.add("b", 2);
        pt.add("a", 1);
        let total: f64 = pt.percentages().values().sum();
        assert!((total - 100.0).abs() < 1e-9);
        assert_eq!(pt.get("a"), 2);
        assert_eq!(pt.get("missing"), 0);
    }

    #[test]
    fn empty_phase_timer_reports_zero() {
        let pt = PhaseTimer::new();
        assert_eq!(pt.total(), 0);
        assert!(pt.percentages().is_empty());
    }
}
