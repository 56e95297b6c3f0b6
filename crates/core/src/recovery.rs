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
use hl_vdev::{Block, DevError, IoSlot};
use std::collections::{HashMap, HashSet};

use crate::fault::{FaultEvent, HlError};
use crate::service::{phase, ScrubReport, TioInner};

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
        let loaded = self.jukebox.loaded_volumes();
        let rec = self.recovery.borrow();
        let mut ordered: Vec<(u32, u32)> = Vec::with_capacity(homes.len());
        ordered.extend(homes.iter().filter(|(v, _)| loaded.contains(&Some(*v))));
        ordered.extend(homes.iter().filter(|(v, _)| !loaded.contains(&Some(*v))));
        ordered.retain(|&(v, _)| !rec.is_quarantined(v));
        Some(ordered)
    }

    /// Quarantines `vol`: no further reads or writes target it. Its
    /// replica records are dropped (the scrub pass restores the copy
    /// count elsewhere) and it is marked full so no copy-out or replica
    /// write allocates on it.
    fn quarantine_volume(&self, at: SimTime, vol: u32) {
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
        self.fault_log
            .borrow_mut()
            .push(FaultEvent::Quarantine { at, vol, failures });
    }

    /// Reads one copy of `tert_seg` into `blocks`, applying the recovery
    /// policy (§10): bounded backoff retries on transient faults,
    /// immediate quarantine on hard media failures, failover across the
    /// remaining replica homes. Exhausting every copy yields
    /// [`HlError::SegmentUnavailable`] carrying what this call appended
    /// to the fault log.
    /// `drive` is the requesting lane's home drive: already-loaded
    /// volumes are read where they sit, fresh swaps land there.
    pub(crate) fn fetch_segment(
        &self,
        at: SimTime,
        drive: usize,
        tert_seg: SegNo,
        blocks: &mut [Block],
    ) -> Result<(IoSlot, usize, (u32, u32)), HlError> {
        let Some(homes) = self.candidate_homes(tert_seg) else {
            // Not a mapped tertiary segment at all.
            return Err(HlError::Dev(DevError::Offline));
        };
        let policy = self.policy.get();
        let logged_before = self.fault_log.borrow().len();
        let mut t = at;
        for (i, &(vol, slot)) in homes.iter().enumerate() {
            let mut attempt = 0u32;
            loop {
                match self.jukebox.read_segment_on(t, drive, vol, slot, blocks) {
                    Ok((r, used)) => return Ok((r, used, (vol, slot))),
                    Err(e @ DevError::MediaFailure) => {
                        self.fault_log.borrow_mut().push(FaultEvent::ReadFault {
                            at: t,
                            seg: tert_seg,
                            vol,
                            slot,
                            error: e,
                        });
                        self.recovery.borrow_mut().record_failure(vol);
                        self.quarantine_volume(t, vol);
                        break;
                    }
                    Err(e @ (DevError::ReadError { .. } | DevError::Offline)) => {
                        self.fault_log.borrow_mut().push(FaultEvent::ReadFault {
                            at: t,
                            seg: tert_seg,
                            vol,
                            slot,
                            error: e,
                        });
                        attempt += 1;
                        if attempt <= policy.max_retries {
                            let delay = policy.backoff(attempt);
                            self.fault_log.borrow_mut().push(FaultEvent::Retry {
                                at: t,
                                seg: tert_seg,
                                vol,
                                slot,
                                attempt,
                                delay,
                            });
                            t += delay;
                            continue;
                        }
                        let strikes = self.recovery.borrow_mut().record_failure(vol);
                        if strikes >= policy.quarantine_after {
                            self.quarantine_volume(t, vol);
                        }
                        break;
                    }
                    // Structural errors (bad buffer, out of range, ...)
                    // are bugs, not media faults: surface immediately.
                    Err(e) => return Err(HlError::Dev(e)),
                }
            }
            if let Some(&next) = homes.get(i + 1) {
                self.fault_log.borrow_mut().push(FaultEvent::Failover {
                    at: t,
                    seg: tert_seg,
                    from: (vol, slot),
                    to: next,
                });
            }
        }
        let mut log = self.fault_log.borrow_mut();
        log.push(FaultEvent::PermanentLoss {
            at: t,
            seg: tert_seg,
        });
        Err(HlError::SegmentUnavailable {
            seg: tert_seg,
            trail: log.events()[logged_before..].to_vec(),
        })
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
        blocks: &[Block],
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
                    self.admit_drive_io(phase::FOOTPRINT_WRITE, w, used);
                    self.replicas.borrow_mut().add(tert_seg, vol, slot);
                    written += 1;
                }
                Err(DevError::EndOfMedium { .. }) => {
                    self.tseg.borrow_mut().volume_mut(vol).full = true;
                }
                Err(e) => {
                    // Never assume the write landed: the slot is burned
                    // (cursor already moved) but no replica is recorded,
                    // and the failure is logged rather than swallowed.
                    self.fault_log.borrow_mut().push(FaultEvent::WriteFault {
                        at: t,
                        seg: tert_seg,
                        vol,
                        slot,
                        error: e,
                    });
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
    /// copies are made from the handles `blocks` holds after its re-fetch.
    pub(crate) fn scrub_pass(
        &self,
        at: SimTime,
        drive: usize,
        blocks: &mut [Block],
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
            for &(vol, slot) in &homes {
                match self.jukebox.read_segment_on(t, drive, vol, slot, blocks) {
                    Ok((r, used)) => {
                        self.admit_drive_io(phase::FOOTPRINT_READ, r, used);
                        source = Some((r, (vol, slot)));
                        break;
                    }
                    Err(e @ (DevError::DriveDead { .. } | DevError::DriveHung { .. })) => {
                        report.end = t;
                        return (report, Some((t, e)));
                    }
                    Err(_) => {}
                }
            }
            let Some((r, from)) = source else {
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
                match self.jukebox.write_segment_on(t, drive, vol, slot, blocks) {
                    Ok((w, used)) => {
                        t = w.end;
                        self.admit_drive_io(phase::FOOTPRINT_WRITE, w, used);
                        self.replicas.borrow_mut().add(seg, vol, slot);
                        self.fault_log.borrow_mut().push(FaultEvent::ScrubCopy {
                            at: t,
                            seg,
                            from,
                            to: (vol, slot),
                        });
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
                    Err(e) => {
                        self.fault_log.borrow_mut().push(FaultEvent::WriteFault {
                            at: t,
                            seg,
                            vol,
                            slot,
                            error: e,
                        });
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
