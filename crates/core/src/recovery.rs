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

use hl_lfs::types::SegNo;
use hl_sim::time::{SimTime, SEC};
use hl_vdev::{DevError, IoSlot, Segment};
use std::collections::{HashMap, HashSet};

use hl_trace::RecoveryStep;

use crate::fault::HlError;
use crate::service::{ScrubReport, TioInner};

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
    fn backoff(&self, attempt: u32) -> SimTime {
        self.backoff_base << (attempt - 1).min(16)
    }
}

/// Watchdog deadline = this slack x the device's nominal whole-segment
/// op time (`Footprint::nominal_segment_io`). A hung op is abandoned and
/// re-dispatched once the deadline expires.
const WATCHDOG_SLACK: f64 = 3.0;

/// Delay before the first health probe of a downed drive; probe `n`
/// waits `PROBE_BASE << n`.
const PROBE_BASE: SimTime = 10 * SEC;

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
    fn record_failure(&mut self, vol: u32) -> u32 {
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

/// The replica read/write/scrub recovery loops of the tertiary engine:
/// which copy a fetch reads, where a copy-out's replicas land, and how
/// a scrub pass restores the copy count.
impl TioInner {
    /// All readable homes of `tert_seg`, "closest" copies first (§5.4:
    /// homes on already-loaded volumes beat ones behind a media swap)
    /// and quarantined volumes excluded. `None` when the segment has no
    /// home at all — unmapped and without a replica record.
    fn candidate_homes(&self, tert_seg: SegNo) -> Option<Vec<(u32, u32)>> {
        let homes = self.replicas.borrow().homes(&self.map, tert_seg);
        if homes.is_empty() {
            return None;
        }
        let mut loaded = Vec::new();
        self.jukebox.loaded_volumes_into(&mut loaded);
        let rec = self.recovery.borrow();
        let mut ordered: Vec<(u32, u32)> = Vec::with_capacity(homes.len());
        ordered.extend(homes.iter().filter(|(v, _)| loaded.contains(&Some(*v))));
        ordered.extend(homes.iter().filter(|(v, _)| !loaded.contains(&Some(*v))));
        ordered.retain(|&(v, _)| !rec.is_quarantined(v));
        Some(ordered)
    }

    /// Quarantines `vol`, struck while reading `seg`: no further reads
    /// or writes target it. Its replica records are dropped (the scrub
    /// pass restores the copy count elsewhere) and it is marked full so
    /// no copy-out or replica write allocates on it.
    fn quarantine_volume(&self, at: SimTime, seg: SegNo, vol: u32) {
        {
            let mut rec = self.recovery.borrow_mut();
            if rec.is_quarantined(vol) {
                return;
            }
            rec.quarantine(vol);
        }
        let failures = self.recovery.borrow().failures(vol);
        self.tseg.borrow_mut().volume_mut(vol).full = true;
        self.replicas.borrow_mut().forget_volume(vol);
        self.tracer
            .recovery(at, seg.into(), RecoveryStep::Quarantine { vol, failures });
    }

    /// Reads `copy` of `seg` on `drive` from `*t` under the recovery
    /// policy (§10), tracing each step: a transient fault is retried
    /// after a backoff, up to `max_retries` times, and then counts a
    /// strike against the volume, which is quarantined at
    /// `quarantine_after` strikes; a media failure quarantines it at
    /// once. `Ok(None)` gives the copy up. An error the policy does not
    /// cover (a dead or hung drive, a structural error) is returned.
    /// `*t` moves past the backoffs taken.
    fn read_copy(
        &self,
        t: &mut SimTime,
        drive: usize,
        seg: SegNo,
        copy: (u32, u32),
    ) -> Result<Option<(IoSlot, usize, Segment)>, DevError> {
        let (vol, slot) = copy;
        let policy = self.policy.get();
        let rcv = |at, step| self.tracer.recovery(at, seg.into(), step);
        let mut attempt = 0u32;
        loop {
            let transient = match self.jukebox.read_segment_on(*t, drive, vol, slot) {
                Ok(read) => return Ok(Some(read)),
                Err(DevError::MediaFailure) => false,
                Err(DevError::ReadError { .. } | DevError::Offline) => true,
                Err(e) => return Err(e),
            };
            rcv(*t, RecoveryStep::ReadFault { copy });
            attempt += 1;
            if transient && attempt <= policy.max_retries {
                rcv(*t, RecoveryStep::Retry { copy, attempt });
                *t += policy.backoff(attempt);
                continue;
            }
            let strikes = self.recovery.borrow_mut().record_failure(vol);
            if !transient || strikes >= policy.quarantine_after {
                self.quarantine_volume(*t, seg, vol);
            }
            return Ok(None);
        }
    }

    /// Reads one copy of `tert_seg`, each home under
    /// [`Self::read_copy`]'s recovery policy, failing over to the next.
    /// Exhausting every copy yields [`HlError::SegmentUnavailable`].
    /// `drive` is the requesting lane's home drive: already-loaded
    /// volumes are read where they sit, fresh swaps land there.
    pub(crate) fn fetch_segment(
        &self,
        at: SimTime,
        drive: usize,
        tert_seg: SegNo,
    ) -> Result<(IoSlot, usize, (u32, u32), Segment), HlError> {
        // A segment without a replica has the one home the map gives it,
        // so there is nothing to order.
        let (one, many);
        let homes: &[(u32, u32)] = if self.replicas.borrow().has_extra(tert_seg) {
            many = self.candidate_homes(tert_seg).expect("a replica is a home");
            &many
        } else {
            let Some(home) = self.map.vol_slot(tert_seg) else {
                // Not a mapped tertiary segment at all.
                return Err(HlError::Dev(DevError::Offline));
            };
            one = [home];
            let readable = !self.recovery.borrow().is_quarantined(home.0);
            &one[..usize::from(readable)]
        };
        let rcv = |at, step| self.tracer.recovery(at, tert_seg.into(), step);
        let mut t = at;
        for (i, &copy) in homes.iter().enumerate() {
            // Structural errors (bad buffer, out of range, ...) are bugs,
            // not media faults: surface immediately.
            let read = self.read_copy(&mut t, drive, tert_seg, copy);
            if let Some((r, used, blocks)) = read.map_err(HlError::Dev)? {
                return Ok((r, used, copy, blocks));
            }
            if let Some(&copy) = homes.get(i + 1) {
                rcv(t, RecoveryStep::Failover { copy });
            }
        }
        rcv(t, RecoveryStep::PermanentLoss);
        Err(HlError::SegmentUnavailable { seg: tert_seg })
    }

    /// Claims the next free slot of `vol` for a replica write, moving
    /// the volume's cursor; `None` if the volume is quarantined or full.
    fn claim_slot(&self, vol: u32) -> Option<u32> {
        if self.recovery.borrow().is_quarantined(vol) {
            return None;
        }
        let mut tseg = self.tseg.borrow_mut();
        let v = tseg.volume_mut(vol);
        if v.full || v.next_slot >= self.map.segs_per_volume {
            return None;
        }
        v.next_slot += 1;
        Some(v.next_slot - 1)
    }

    /// Writes the configured replica copies of a freshly copied-out
    /// segment onto *other* volumes' free slots. Replicas are never
    /// counted as live data (§5.4), so only the volume cursor moves.
    pub(crate) fn write_replicas(
        &self,
        at: SimTime,
        drive: usize,
        tert_seg: SegNo,
        primary_vol: u32,
        blocks: &Segment,
    ) -> SimTime {
        let copies = self.replicate.get();
        let mut t = at;
        let mut written = 0;
        if copies == 0 {
            return t;
        }
        for vol in 0..self.map.volumes {
            if written >= copies || vol == primary_vol {
                continue;
            }
            let Some(slot) = self.claim_slot(vol) else {
                continue;
            };
            match self.jukebox.write_segment_on(t, drive, vol, slot, blocks) {
                Ok((w, used)) => {
                    t = w.end;
                    self.admit_drive_io(w, used);
                    self.replicas.borrow_mut().add(tert_seg, vol, slot);
                    written += 1;
                }
                Err(DevError::EndOfMedium { .. }) => {
                    self.tseg.borrow_mut().volume_mut(vol).full = true;
                }
                Err(_) => {
                    // Never assume the write landed: the slot is burned
                    // (cursor already moved) but no replica is recorded,
                    // and the failure is traced rather than swallowed.
                    let copy = (vol, slot);
                    self.tracer
                        .recovery(t, tert_seg.into(), RecoveryStep::WriteFault { copy });
                }
            }
        }
        t
    }

    /// Background scrub / re-replicate pass (§10): walks every tertiary
    /// segment that has been copied out or replicated, counts its
    /// surviving (non-quarantined) copies, and writes fresh replicas
    /// until each segment again has `1 + replication` copies. Segments
    /// with no surviving copy are reported unrecoverable.
    ///
    /// A drive-scoped fault aborts the pass — reported as the second
    /// element — rather than letting a dead *drive* masquerade as dead
    /// *media*: the caller re-dispatches the whole pass to a surviving
    /// lane, which recomputes the (idempotent) deficits. Each segment's
    /// copies keep the segment its re-fetch lent.
    pub(crate) fn scrub_pass(
        &self,
        at: SimTime,
        drive: usize,
    ) -> (ScrubReport, Option<(SimTime, DevError)>) {
        let target = 1 + self.replicate.get();
        let mut segs: Vec<SegNo> = self
            .tseg
            .borrow()
            .touched()
            .filter(|(_, u)| u.avail_bytes > 0)
            .map(|(s, _)| s)
            .collect();
        segs.extend(self.replicas.borrow().segments());
        segs.sort_unstable();
        segs.dedup();

        let mut report = ScrubReport {
            end: at,
            ..ScrubReport::default()
        };
        let mut t = at;
        for seg in segs {
            let homes = self.candidate_homes(seg).unwrap_or_default();
            if homes.is_empty() {
                report.unrecoverable.push(seg);
                continue;
            }
            if homes.len() as u32 >= target {
                continue;
            }
            let deficit = target - homes.len() as u32;
            // Whole-segment re-fetch from any surviving copy (§10).
            let mut source = None;
            for &copy in &homes {
                match self.read_copy(&mut t, drive, seg, copy) {
                    Ok(Some((r, used, blocks))) => {
                        self.admit_drive_io(r, used);
                        source = Some((r, copy, blocks));
                        break;
                    }
                    Err(e @ (DevError::DriveDead { .. } | DevError::DriveHung { .. })) => {
                        report.end = t;
                        return (report, Some((t, e)));
                    }
                    Ok(None) | Err(_) => {}
                }
            }
            let Some((r, from, blocks)) = source else {
                report.unrecoverable.push(seg);
                continue;
            };
            t = r.end;
            let holding: Vec<u32> = homes.iter().map(|&(v, _)| v).collect();
            let mut made = 0u32;
            for vol in 0..self.map.volumes {
                if made >= deficit || holding.contains(&vol) {
                    continue;
                }
                let Some(slot) = self.claim_slot(vol) else {
                    continue;
                };
                match self.jukebox.write_segment_on(t, drive, vol, slot, &blocks) {
                    Ok((w, used)) => {
                        t = w.end;
                        self.admit_drive_io(w, used);
                        self.replicas.borrow_mut().add(seg, vol, slot);
                        let to = (vol, slot);
                        self.tracer
                            .recovery(t, seg.into(), RecoveryStep::ScrubCopy { from, to });
                        report.copies_made += 1;
                        made += 1;
                    }
                    Err(DevError::EndOfMedium { .. }) => {
                        self.tseg.borrow_mut().volume_mut(vol).full = true;
                    }
                    Err(e @ (DevError::DriveDead { .. } | DevError::DriveHung { .. })) => {
                        report.end = t;
                        return (report, Some((t, e)));
                    }
                    Err(_) => {
                        let copy = (vol, slot);
                        self.tracer
                            .recovery(t, seg.into(), RecoveryStep::WriteFault { copy });
                        report.write_failures += 1;
                    }
                }
            }
        }
        report.end = t;
        (report, None)
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
