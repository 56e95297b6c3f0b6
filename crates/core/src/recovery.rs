//! Recovery policy for tertiary reads (§10).
//!
//! The paper relies on whole-segment replication for availability; this
//! module supplies the machinery that actually exercises those replicas
//! when the jukebox misbehaves: bounded retries with sim-time exponential
//! backoff for transient faults, failover across replica homes, and
//! volume quarantine once a volume has failed often enough (or reported
//! a hard media failure).
//!
//! Drive-scoped recovery is separate from volume-scoped recovery: a
//! failed *volume* is data loss territory (replicas save it), while a
//! failed *drive* only removes a lane from the I/O-server pool. The
//! watchdog constants here govern the latter: how long a device op may
//! run before the watchdog declares the drive hung ([`deadline`]), and
//! the probe ladder a quarantined drive climbs before rejoining as a hot
//! spare ([`probe_delay`], [`MAX_PROBES`]).

use hl_sim::time::{SimTime, SEC};
use std::collections::{HashMap, HashSet};

/// Tunable knobs for the retry/failover/quarantine logic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Retries of one copy on a transient error before failing over.
    pub max_retries: u32,
    /// First backoff delay; attempt `n` waits `backoff_base << (n-1)`.
    pub backoff_base: SimTime,
    /// Transient-exhaustion strikes before a volume is quarantined.
    /// Hard media failures quarantine immediately regardless.
    pub quarantine_after: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy {
            max_retries: 3,
            backoff_base: hl_sim::time::millis(100.0),
            quarantine_after: 2,
        }
    }
}

impl RecoveryPolicy {
    /// Backoff before retry attempt `attempt` (1-based), doubling each
    /// time: base, 2*base, 4*base, ...
    pub fn backoff(&self, attempt: u32) -> SimTime {
        self.backoff_base << (attempt - 1).min(16)
    }
}

/// Watchdog deadline = this slack x the device's nominal whole-segment
/// op time (`Footprint::nominal_segment_io`). A hung op is abandoned and
/// re-dispatched once the deadline expires.
pub const WATCHDOG_SLACK: f64 = 3.0;

/// Delay before the first health probe of a downed drive; probe `n`
/// waits `PROBE_BASE << n`.
pub const PROBE_BASE: SimTime = 10 * SEC;

/// Failed probes before the lane retires permanently.
pub const MAX_PROBES: u32 = 6;

/// Watchdog deadline for an op whose nominal duration is `nominal`.
pub fn deadline(nominal: SimTime) -> SimTime {
    (nominal as f64 * WATCHDOG_SLACK).round() as SimTime
}

/// Delay before probe number `probe` (0-based), doubling each time.
pub fn probe_delay(probe: u32) -> SimTime {
    PROBE_BASE << probe.min(16)
}

/// Per-volume failure accounting. Lives inside `TertiaryIo`; updated by
/// the fetch path and consulted before any volume is read or written.
#[derive(Clone, Debug, Default)]
pub struct RecoveryState {
    failures: HashMap<u32, u32>,
    quarantined: HashSet<u32>,
}

impl RecoveryState {
    /// Fresh state: no failures, nothing quarantined.
    pub fn new() -> RecoveryState {
        RecoveryState::default()
    }

    /// Records one exhausted-recovery strike against `vol` and returns
    /// the new count.
    pub fn record_failure(&mut self, vol: u32) -> u32 {
        let n = self.failures.entry(vol).or_insert(0);
        *n += 1;
        *n
    }

    /// Strikes recorded against `vol`.
    pub fn failures(&self, vol: u32) -> u32 {
        self.failures.get(&vol).copied().unwrap_or(0)
    }

    /// Marks `vol` untouchable.
    pub fn quarantine(&mut self, vol: u32) {
        self.quarantined.insert(vol);
    }

    /// `true` if `vol` must not be read or written.
    pub fn is_quarantined(&self, vol: u32) -> bool {
        self.quarantined.contains(&vol)
    }

    /// Quarantined volumes, sorted for deterministic reporting.
    pub fn quarantined_volumes(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.quarantined.iter().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_per_attempt() {
        let p = RecoveryPolicy {
            max_retries: 4,
            backoff_base: 100,
            quarantine_after: 2,
        };
        assert_eq!(p.backoff(1), 100);
        assert_eq!(p.backoff(2), 200);
        assert_eq!(p.backoff(3), 400);
    }

    #[test]
    fn watchdog_deadline_scales_and_probe_delay_doubles() {
        assert_eq!(deadline(1_000), 3_000);
        assert_eq!(probe_delay(0), PROBE_BASE);
        assert_eq!(probe_delay(2), 4 * PROBE_BASE);
    }

    #[test]
    fn failure_strikes_accumulate_per_volume() {
        let mut s = RecoveryState::new();
        assert_eq!(s.record_failure(3), 1);
        assert_eq!(s.record_failure(3), 2);
        assert_eq!(s.record_failure(7), 1);
        assert_eq!(s.failures(3), 2);
        assert_eq!(s.failures(0), 0);
    }

    #[test]
    fn quarantine_is_sticky_and_sorted() {
        let mut s = RecoveryState::new();
        s.quarantine(5);
        s.quarantine(1);
        s.quarantine(5);
        assert!(s.is_quarantined(5));
        assert!(!s.is_quarantined(2));
        assert_eq!(s.quarantined_volumes(), vec![1, 5]);
    }
}
