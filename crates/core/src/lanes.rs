//! Lane health: the per-drive registry behind the I/O-server pool's
//! degraded mode (DESIGN.md §6f). Any lane may mark any drive down; a
//! downed lane climbs the probe ladder ([`crate::recovery::probe_delay`])
//! and rejoins as a hot spare or retires; orphaned requests re-dispatch
//! to the survivors, and when the last lane retires the queues drain
//! through [`TioInner::refuse`].

use hl_sim::time::SimTime;
use hl_vdev::DevError;

use crate::fault::FaultEvent;
use crate::recovery;
use crate::requests::{Request, MAX_REDISPATCH};
use crate::service::TioInner;

/// Health record of one I/O-server lane. Shared through
/// [`TioInner::lane_health`]: *any* lane may mark *any* drive down,
/// because a read routed to an already-loaded platter observes faults
/// on the drive that holds it, not on the lane's home drive.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct LaneHealth {
    /// When the drive was marked down (`None` = healthy).
    pub down_since: Option<SimTime>,
    /// Failed health probes since it went down.
    pub probes: u32,
    /// Next scheduled health probe.
    pub next_probe: SimTime,
    /// Probe ladder exhausted: the lane has left the pool for good.
    pub retired: bool,
}

/// What an I/O lane should do this step, per its health record.
pub(crate) enum LaneGate {
    /// Take work normally.
    Healthy,
    /// Down: run (or wait for) the probe scheduled at this time.
    ProbeAt(SimTime),
    /// Out of the pool for good.
    Retired,
}

/// Outcome of one health probe of a downed lane.
pub(crate) enum ProbeOutcome {
    /// The drive answered: rejoin the pool as a hot spare.
    Recovered,
    /// Still dead: probe again at the given time.
    Backoff(SimTime),
    /// Ladder exhausted: the lane retires.
    Retired,
}

impl TioInner {
    /// How many I/O-server lanes the engine runs: one per jukebox
    /// drive (fixed when the registry is built).
    pub(crate) fn lanes(&self) -> usize {
        self.lane_health.borrow().len()
    }

    /// What the lane for `drive` should do this step, per its health.
    pub(crate) fn lane_gate(&self, drive: usize) -> LaneGate {
        let lanes = self.lane_health.borrow();
        match lanes.get(drive) {
            Some(h) if h.retired => LaneGate::Retired,
            Some(h) if h.down_since.is_some() => LaneGate::ProbeAt(h.next_probe),
            _ => LaneGate::Healthy,
        }
    }

    /// Effective `(writer, solo)` roles for `drive`, computed against
    /// the *healthy* pool each step: the writer mantle falls to the
    /// lowest healthy lane (so copy-outs survive the death of drive 0),
    /// and the last healthy lane serves every class.
    pub(crate) fn lane_roles(&self, drive: usize) -> (bool, bool) {
        let lanes = self.lane_health.borrow();
        let mut healthy = lanes
            .iter()
            .enumerate()
            .filter(|(_, h)| !h.retired && h.down_since.is_none())
            .map(|(i, _)| i);
        match healthy.next() {
            Some(lowest) => (lowest == drive, healthy.next().is_none()),
            // Unreachable from a healthy lane; fail safe as writer+solo.
            None => (true, true),
        }
    }

    /// Marks `drive` down at `at` — clamped past the drive's in-flight
    /// transfer, so no admitted device interval outlives the down mark —
    /// logs it, abandons the platter the drive holds, and wakes the
    /// downed lane so it starts its probe ladder. Idempotent: later
    /// observers of the same dead drive are no-ops.
    pub(crate) fn mark_lane_down(&self, at: SimTime, drive: usize, error: DevError) {
        let at = at.max(self.jukebox.drive_busy_until(drive));
        {
            let mut lanes = self.lane_health.borrow_mut();
            let Some(h) = lanes.get_mut(drive) else {
                return;
            };
            if h.retired || h.down_since.is_some() {
                return;
            }
            h.down_since = Some(at);
            h.probes = 0;
            h.next_probe = at + recovery::probe_delay(0);
        }
        self.tracer.drive_down(at, drive as u32);
        self.fault_log.borrow_mut().push(FaultEvent::DriveDown {
            at,
            drive: drive as u32,
            error,
        });
        self.jukebox.abandon_drive(at, drive);
        if let Some(h) = &*self.handles.borrow() {
            if let Some(&id) = h.io.get(drive) {
                h.waker.wake(id, at);
            }
        }
    }

    /// Pushes an op orphaned by a drive fault back into the device
    /// queue for a surviving lane. The ticket, trace span, and any
    /// coalesced joiners ride along untouched — only past the
    /// re-dispatch bound is the request refused with the drive's error.
    pub(crate) fn redispatch(
        &self,
        mut op: Box<Request>,
        at: SimTime,
        from_drive: u32,
        error: DevError,
    ) {
        op.attempts += 1;
        if op.attempts > MAX_REDISPATCH {
            self.refuse(&op, at, error);
            return;
        }
        self.tracer.redispatch(at, op.span, from_drive);
        op.ready_at = at;
        op.bypassed = 0;
        self.queues.borrow_mut().devq.push_back(op);
        self.wake_io(at);
    }

    /// Probes a downed lane at `now`: success rejoins it as a hot
    /// spare; failure climbs the backoff ladder; an exhausted ladder
    /// retires the lane (and, if it was the last, drains the queues so
    /// every outstanding ticket resolves).
    pub(crate) fn probe_lane(&self, now: SimTime, drive: usize) -> ProbeOutcome {
        if self.jukebox.probe_drive(now, drive) {
            if let Some(h) = self.lane_health.borrow_mut().get_mut(drive) {
                h.down_since = None;
                h.probes = 0;
            }
            self.tracer.drive_up(now, drive as u32);
            self.fault_log.borrow_mut().push(FaultEvent::DriveUp {
                at: now,
                drive: drive as u32,
            });
            return ProbeOutcome::Recovered;
        }
        let (retired, next, all_retired) = {
            let mut lanes = self.lane_health.borrow_mut();
            let h = &mut lanes[drive];
            h.probes += 1;
            if h.probes >= recovery::MAX_PROBES {
                h.retired = true;
                (true, 0, lanes.iter().all(|l| l.retired))
            } else {
                h.next_probe = now + recovery::probe_delay(h.probes);
                (false, h.next_probe, false)
            }
        };
        if retired {
            if all_retired {
                self.drain_dead(now);
            }
            ProbeOutcome::Retired
        } else {
            ProbeOutcome::Backoff(next)
        }
    }

    /// Every lane has retired: nothing can ever be served again.
    /// Refuses all queued work — the device queue first, then the
    /// request queue in priority order — so tickets resolve and the
    /// engine quiesces, and flags the pool dead so future dispatches
    /// are refused at once.
    pub(crate) fn drain_dead(&self, at: SimTime) {
        self.all_retired.set(true);
        loop {
            let next = {
                let mut q = self.queues.borrow_mut();
                q.devq.pop_front().or_else(|| q.pop_any())
            };
            let Some(req) = next else { break };
            self.refuse(&req, at, DevError::Offline);
        }
        self.wake_svc(at);
        self.wake_copyout_waiters(at);
    }
}
