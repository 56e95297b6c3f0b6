//! Typed fault reporting for the tertiary I/O path (§10).
//!
//! The paper's answer to tertiary media failures is replication plus
//! whole-segment re-fetch; what it leaves implicit is what the system
//! tells its callers when even that fails. Here every fault the recovery
//! layer observes and every action it takes is recorded once, in the
//! queryable [`FaultLog`], whose rendered form is deterministic — the
//! same fault-plan seed produces a byte-identical log, which the
//! reliability tests assert. Everything else is a reading of that log:
//! a failed demand fetch carries, inside
//! [`HlError::SegmentUnavailable`], the entries appended while it was
//! being served (which copies were tried, what each returned, what the
//! policy did about it), and the engine's fault counters are the log's
//! per-kind counts ([`FaultLog::count`]).

use hl_lfs::types::SegNo;
use hl_sim::time::SimTime;
use hl_vdev::DevError;
use std::fmt;

/// Errors surfaced by the tertiary I/O engine: either a plain device
/// error, or an exhausted recovery with its full fault trail.
#[derive(Clone, Debug, PartialEq)]
pub enum HlError {
    /// A device error the recovery layer does not handle (bad buffer,
    /// out of range, cache exhaustion, end-of-medium, ...).
    Dev(DevError),
    /// Every copy of a tertiary segment was tried and none could be
    /// read. Degraded mode: cached lines keep serving, but this segment
    /// is gone until an operator restores a copy.
    SegmentUnavailable {
        /// The unreachable logical tertiary segment.
        seg: SegNo,
        /// The [`FaultLog`] entries appended while serving the request:
        /// everything the recovery layer saw and did, in order.
        trail: Vec<FaultEvent>,
    },
}

impl HlError {
    /// Collapses to a [`DevError`] for the `BlockDev` boundary (the
    /// block-map pseudo-device must speak the device vocabulary; the
    /// trail stays queryable in the [`FaultLog`]).
    pub fn into_dev(self) -> DevError {
        match self {
            HlError::Dev(e) => e,
            HlError::SegmentUnavailable { .. } => DevError::Offline,
        }
    }
}

impl From<DevError> for HlError {
    fn from(e: DevError) -> HlError {
        HlError::Dev(e)
    }
}

impl fmt::Display for HlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HlError::Dev(e) => e.fmt(f),
            HlError::SegmentUnavailable { seg, trail } => {
                // One step per observed fault; what the policy did about
                // it is the entry that follows.
                let fault = |e: &&FaultEvent| e.kind() == FaultKind::ReadFault;
                let steps = trail.iter().filter(fault).count();
                write!(f, "tertiary segment {seg} unavailable after ")?;
                write!(f, "{steps} recovery steps")?;
                for (i, e) in trail.iter().enumerate() {
                    if let FaultEvent::ReadFault {
                        at,
                        vol,
                        slot,
                        error,
                        ..
                    } = e
                    {
                        write!(f, "; t={at} v{vol}/s{slot} {error}: ")?;
                        match trail.get(i + 1) {
                            Some(FaultEvent::Retry { attempt, delay, .. }) => {
                                write!(f, "retry #{attempt} after {delay}")?
                            }
                            Some(FaultEvent::Quarantine { .. }) => f.write_str("quarantine")?,
                            Some(FaultEvent::Failover { .. }) => f.write_str("failover")?,
                            _ => f.write_str("gave up")?,
                        }
                    }
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for HlError {}

/// One entry in the global [`FaultLog`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// A device fault observed while reading a copy of `seg`.
    ReadFault {
        /// Observation time.
        at: SimTime,
        /// Logical tertiary segment.
        seg: SegNo,
        /// Volume of the failing copy.
        vol: u32,
        /// Slot of the failing copy.
        slot: u32,
        /// The device's report.
        error: DevError,
    },
    /// A backoff retry of the same copy.
    Retry {
        /// Time the retry was scheduled (fault time; the retry itself
        /// runs `delay` later).
        at: SimTime,
        /// Logical tertiary segment.
        seg: SegNo,
        /// Volume retried.
        vol: u32,
        /// Slot retried.
        slot: u32,
        /// 1-based attempt number.
        attempt: u32,
        /// Backoff delay before the retry.
        delay: SimTime,
    },
    /// Failover from one copy to the next.
    Failover {
        /// Failover time.
        at: SimTime,
        /// Logical tertiary segment.
        seg: SegNo,
        /// The copy given up on.
        from: (u32, u32),
        /// The copy tried next.
        to: (u32, u32),
    },
    /// A volume was quarantined: no further reads or writes target it.
    Quarantine {
        /// Quarantine time.
        at: SimTime,
        /// The quarantined volume.
        vol: u32,
        /// Accumulated failure count that triggered it.
        failures: u32,
    },
    /// A scrub pass wrote a fresh replica of `seg`.
    ScrubCopy {
        /// Completion time of the copy.
        at: SimTime,
        /// Logical tertiary segment.
        seg: SegNo,
        /// The surviving copy read.
        from: (u32, u32),
        /// The new copy written.
        to: (u32, u32),
    },
    /// Every copy of `seg` is gone.
    PermanentLoss {
        /// When recovery was exhausted.
        at: SimTime,
        /// The lost segment.
        seg: SegNo,
    },
    /// A replica or scrub write failed outright (not end-of-medium):
    /// the slot was consumed but holds no trustworthy copy.
    WriteFault {
        /// Event time.
        at: SimTime,
        /// Logical tertiary segment being copied.
        seg: SegNo,
        /// Volume of the failed write.
        vol: u32,
        /// Slot of the failed write.
        slot: u32,
        /// The device's report.
        error: DevError,
    },
    /// A copy-out hit end-of-medium; the volume was marked full.
    EndOfMedium {
        /// Event time.
        at: SimTime,
        /// The full volume.
        vol: u32,
        /// The slot that did not fit.
        slot: u32,
    },
    /// A drive lane was marked down (hard fault or watchdog expiry); its
    /// in-flight op was re-dispatched and the lane entered probe mode.
    DriveDown {
        /// Detection time.
        at: SimTime,
        /// The downed drive.
        drive: u32,
        /// The fault that took it down.
        error: DevError,
    },
    /// A quarantined drive answered a health probe and rejoined the pool
    /// as a hot spare.
    DriveUp {
        /// Rejoin time.
        at: SimTime,
        /// The recovered drive.
        drive: u32,
    },
}

/// The kinds of [`FaultEvent`], as [`FaultLog::count`] tallies them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// [`FaultEvent::ReadFault`].
    ReadFault,
    /// [`FaultEvent::Retry`].
    Retry,
    /// [`FaultEvent::Failover`].
    Failover,
    /// [`FaultEvent::Quarantine`].
    Quarantine,
    /// [`FaultEvent::ScrubCopy`].
    ScrubCopy,
    /// [`FaultEvent::PermanentLoss`].
    PermanentLoss,
    /// [`FaultEvent::WriteFault`].
    WriteFault,
    /// [`FaultEvent::EndOfMedium`].
    EndOfMedium,
    /// [`FaultEvent::DriveDown`].
    DriveDown,
    /// [`FaultEvent::DriveUp`].
    DriveUp,
}

impl FaultEvent {
    /// Which kind of event this is.
    pub fn kind(&self) -> FaultKind {
        match self {
            FaultEvent::ReadFault { .. } => FaultKind::ReadFault,
            FaultEvent::Retry { .. } => FaultKind::Retry,
            FaultEvent::Failover { .. } => FaultKind::Failover,
            FaultEvent::Quarantine { .. } => FaultKind::Quarantine,
            FaultEvent::ScrubCopy { .. } => FaultKind::ScrubCopy,
            FaultEvent::PermanentLoss { .. } => FaultKind::PermanentLoss,
            FaultEvent::WriteFault { .. } => FaultKind::WriteFault,
            FaultEvent::EndOfMedium { .. } => FaultKind::EndOfMedium,
            FaultEvent::DriveDown { .. } => FaultKind::DriveDown,
            FaultEvent::DriveUp { .. } => FaultKind::DriveUp,
        }
    }
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultEvent::ReadFault {
                at,
                seg,
                vol,
                slot,
                error,
            } => write!(f, "t={at} seg={seg} v{vol}/s{slot} fault: {error}"),
            FaultEvent::Retry {
                at,
                seg,
                vol,
                slot,
                attempt,
                delay,
            } => write!(
                f,
                "t={at} seg={seg} v{vol}/s{slot} retry #{attempt} after {delay}"
            ),
            FaultEvent::Failover { at, seg, from, to } => write!(
                f,
                "t={at} seg={seg} failover v{}/s{} -> v{}/s{}",
                from.0, from.1, to.0, to.1
            ),
            FaultEvent::Quarantine { at, vol, failures } => {
                write!(f, "t={at} quarantine v{vol} after {failures} failures")
            }
            FaultEvent::ScrubCopy { at, seg, from, to } => write!(
                f,
                "t={at} seg={seg} scrub copy v{}/s{} -> v{}/s{}",
                from.0, from.1, to.0, to.1
            ),
            FaultEvent::PermanentLoss { at, seg } => {
                write!(f, "t={at} seg={seg} PERMANENT LOSS")
            }
            FaultEvent::WriteFault {
                at,
                seg,
                vol,
                slot,
                error,
            } => write!(f, "t={at} seg={seg} v{vol}/s{slot} write fault: {error}"),
            FaultEvent::EndOfMedium { at, vol, slot } => {
                write!(f, "t={at} v{vol}/s{slot} end of medium; volume full")
            }
            FaultEvent::DriveDown { at, drive, error } => {
                write!(f, "t={at} drive d{drive} DOWN: {error}")
            }
            FaultEvent::DriveUp { at, drive } => {
                write!(f, "t={at} drive d{drive} up (hot spare)")
            }
        }
    }
}

/// The queryable, append-only record of every fault and recovery action
/// (§10's reliability accounting, feeding the EXPERIMENTS.md table).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultLog {
    events: Vec<FaultEvent>,
    /// Events pushed per [`FaultKind`] since the last [`Self::clear`].
    counts: [u64; FaultKind::DriveUp as usize + 1],
}

impl FaultLog {
    /// An empty log.
    pub fn new() -> FaultLog {
        FaultLog::default()
    }

    /// Appends an event.
    pub fn push(&mut self, event: FaultEvent) {
        self.counts[event.kind() as usize] += 1;
        self.events.push(event);
    }

    /// How many events of `kind` the log holds.
    pub fn count(&self, kind: FaultKind) -> u64 {
        self.counts[kind as usize]
    }

    /// All events, in order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// One line per event. Deterministic: a scenario replayed with the
    /// same fault-plan seed renders a byte-identical string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trail_renders_in_order() {
        let fault = |at, vol, error| FaultEvent::ReadFault {
            at,
            seg: 99,
            vol,
            slot: 1,
            error,
        };
        let transient = DevError::ReadError { block: 1 };
        let e = HlError::SegmentUnavailable {
            seg: 99,
            trail: vec![
                fault(10, 0, transient),
                FaultEvent::Retry {
                    at: 10,
                    seg: 99,
                    vol: 0,
                    slot: 1,
                    attempt: 1,
                    delay: 50,
                },
                fault(60, 0, transient),
                FaultEvent::Failover {
                    at: 60,
                    seg: 99,
                    from: (0, 1),
                    to: (1, 1),
                },
                fault(60, 1, DevError::MediaFailure),
                FaultEvent::Quarantine {
                    at: 60,
                    vol: 1,
                    failures: 1,
                },
                FaultEvent::Failover {
                    at: 60,
                    seg: 99,
                    from: (1, 1),
                    to: (2, 1),
                },
                fault(60, 2, DevError::Offline),
                FaultEvent::PermanentLoss { at: 60, seg: 99 },
            ],
        };
        // One of every way a step can end (pinned for ISSUE 21).
        assert_eq!(
            e.to_string(),
            "tertiary segment 99 unavailable after 4 recovery steps; \
             t=10 v0/s1 unrecoverable read error at block 1: retry #1 after 50; \
             t=60 v0/s1 unrecoverable read error at block 1: failover; \
             t=60 v1/s1 media failure: quarantine; \
             t=60 v2/s1 device offline: gave up"
        );
    }

    #[test]
    fn into_dev_collapses_unavailable_to_offline() {
        let e = HlError::SegmentUnavailable {
            seg: 1,
            trail: vec![],
        };
        assert_eq!(e.into_dev(), DevError::Offline);
        assert_eq!(
            HlError::Dev(DevError::MediaFailure).into_dev(),
            DevError::MediaFailure
        );
    }

    #[test]
    fn log_renders_one_line_per_event_deterministically() {
        let mut a = FaultLog::new();
        let mut b = FaultLog::new();
        for log in [&mut a, &mut b] {
            log.push(FaultEvent::ReadFault {
                at: 5,
                seg: 7,
                vol: 1,
                slot: 2,
                error: DevError::MediaFailure,
            });
            log.push(FaultEvent::Quarantine {
                at: 5,
                vol: 1,
                failures: 2,
            });
        }
        assert_eq!(a.render(), b.render());
        assert_eq!(a.render().lines().count(), 2);
        assert_eq!(a.len(), 2);
        assert_eq!(a.count(FaultKind::Quarantine), 1);
        assert_eq!(a.count(FaultKind::Retry), 0);
    }
}
