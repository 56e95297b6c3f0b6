//! The service-process and I/O-server actors (§6.7, Figure 5).
//!
//! The paper runs these as user-level processes: the *service process*
//! fields kernel requests and selects cache lines; the *I/O servers* own
//! the Footprint drives and move whole segments. Here each is an
//! [`Actor`] with park/wake semantics: the service process sleeps until
//! a request arrives, drains the priority queue (demand > eject >
//! copy-out > prefetch > scrub), and stalls when the bounded device
//! queue fills; the I/O servers form a **pool** — one lane per jukebox
//! drive — all draining the shared device queue through the
//! volume-affinity scheduler ([`EngineQueues::take_for_drive`]), so a
//! demand fetch proceeds on an idle drive while the writer drive streams
//! copy-outs. Work pushed to the device queue wakes every lane
//! (wake-all); a lane with nothing eligible re-parks, which keeps the
//! eligibility rules in exactly one place and the schedule
//! deterministic.
//!
//! Lane layout: drive 0 is the writer lane (the paper allocates "one
//! drive for the currently-active write volume", §7) and is the only
//! lane that executes copy-outs and scrubs; drives 1.. are reader
//! lanes. Reader lanes are spawned *before* the writer so that at equal
//! virtual times a read lands on a reader drive and leaves the write
//! platter alone. The robot arm needs no extra locking: it is already a
//! serialized [`hl_sim::Resource`] inside the jukebox, so concurrent
//! swaps from different lanes queue on its busy horizon.
//!
//! **Degraded mode** (DESIGN.md §6f): every op carries an implicit
//! watchdog — the device profile's nominal whole-segment time scaled by
//! [`crate::recovery::WATCHDOG_SLACK`]. On a hard fault or a
//! watchdog expiry, the observing lane marks the faulted drive down,
//! abandons its platter, and pushes the orphaned request back into the
//! shared device queue so a surviving lane re-runs it (the same record:
//! its ticket, span and coalesced joiners ride along untouched; past
//! the re-dispatch bound it is refused like any other). Downed lanes
//! climb a backoff probe ladder and rejoin as hot spares when the drive
//! heals; exhausted ladders retire the lane. The writer mantle moves to
//! the lowest *healthy* lane, so copy-outs survive the death of drive 0.
//!
//! All actors are generic over the scheduler's world type, so the same
//! set runs on [`crate::service::TertiaryIo`]'s internal scheduler (the
//! synchronous façades) or on a benchmark's scheduler alongside
//! migrators and applications (`TertiaryIo::attach_engine`).

use std::rc::Rc;

use hl_sim::time::SimTime;
use hl_sim::{Actor, ActorId, Scheduler, Step, Waker};

use crate::lanes::{LaneGate, ProbeOutcome};
use crate::requests::{ReqClass, DISPATCH_CPU};
use crate::service::{phase, ExecResult, TioInner};

/// Wake handles for the engine's actors on their current scheduler.
pub(crate) struct EngineHandles {
    pub(crate) waker: Waker,
    pub(crate) svc: ActorId,
    /// One I/O lane per drive, indexed by drive number.
    pub(crate) io: Vec<ActorId>,
}

/// The service process: drains the request queue in priority order and
/// feeds the device queue.
struct SvcActor {
    inner: Rc<TioInner>,
}

impl<W> Actor<W> for SvcActor {
    fn step(&mut self, _world: &mut W, now: SimTime) -> Step {
        if self.inner.queues.borrow().devq_full() {
            // Backpressure: an I/O lane wakes us when it pops.
            return Step::Park;
        }
        // The pop traces its own fair-queue decisions (tenant admits and
        // throttles) at `now`.
        let req = self.inner.queues.borrow_mut().pop_ready(now);
        match req {
            Some(req) => {
                self.inner.dispatch(req, now);
                // Fielding a request costs one dispatch hop of CPU.
                Step::Yield(now + DISPATCH_CPU)
            }
            None => match self.inner.queues.borrow().next_ready() {
                // A request is queued for the future (its enqueuer's
                // clock runs ahead of ours): sleep until it arrives.
                Some(t) if t > now => Step::Yield(t),
                _ => Step::Park,
            },
        }
    }

    fn name(&self) -> &str {
        "service-process"
    }
}

/// One I/O-server lane: drains the shared device queue through the
/// volume-affinity scheduler, one operation at a time on its home drive.
struct IoActor {
    inner: Rc<TioInner>,
    /// The lane's home drive (swaps for unloaded volumes go here).
    drive: usize,
    /// The name the scheduler reports if this lane gets stuck, e.g.
    /// `io-server-d0`.
    label: String,
    /// When this lane's last operation finished (its busy horizon).
    free_since: SimTime,
}

impl<W> Actor<W> for IoActor {
    fn step(&mut self, _world: &mut W, now: SimTime) -> Step {
        // Health gate: a downed lane runs its probe ladder instead of
        // taking work; a retired lane leaves the scheduler for good.
        match self.inner.lane_gate(self.drive) {
            LaneGate::Retired => return Step::Done,
            LaneGate::ProbeAt(t) if t > now => return Step::Yield(t),
            LaneGate::ProbeAt(_) => {
                return match self.inner.probe_lane(now, self.drive) {
                    ProbeOutcome::Recovered => {
                        // Hot spare: eligible again from this instant;
                        // the immediate re-step takes queued work.
                        self.free_since = self.free_since.max(now);
                        Step::Yield(now)
                    }
                    ProbeOutcome::Backoff(next) => Step::Yield(next),
                    ProbeOutcome::Retired => Step::Done,
                };
            }
            LaneGate::Healthy => {}
        }
        // Roles are computed against the *healthy* pool each step: the
        // writer mantle falls to the lowest healthy lane, and a lane
        // left alone by faults serves every class (solo rules).
        let (writer, solo) = self.inner.lane_roles(self.drive);
        let loaded_all = self.inner.jukebox.loaded_volumes();
        let op =
            self.inner
                .queues
                .borrow_mut()
                .take_for_drive(self.drive, writer, solo, &loaded_all);
        let Some(op) = op else {
            return Step::Park;
        };
        // A device-queue slot freed: the service process may dispatch.
        self.inner.wake_svc(now);
        let start = now.max(op.ready_at).max(self.free_since);
        // Table 4's "queuing": time the op waited beyond this lane
        // simply being busy. With event-driven wakes this is just the
        // dispatch hop when the lane was idle, and zero when the op
        // arrived while the lane was busy.
        let queued = start.saturating_sub(op.enqueued_at.max(self.free_since));
        self.inner.phases.borrow_mut().add(phase::QUEUING, queued);
        // Queue residency (enqueue to device start) goes to the trace;
        // `SvcStats`' wait counters are derived from it.
        self.inner
            .tracer
            .queuing(start, op.span, op.class, op.enqueued_at.min(start), start);
        match self.inner.exec(&op, start, self.drive) {
            ExecResult::Done(end) => {
                self.free_since = end;
                if op.class == ReqClass::CopyOut {
                    self.inner.wake_copyout_waiters(end);
                }
                Step::Yield(end)
            }
            ExecResult::LaneFault {
                at,
                drive,
                error,
                hung,
            } => {
                // A dead drive fails fast; a hung one is only abandoned
                // once its watchdog deadline expires.
                let fired = if hung {
                    let t = at + self.inner.watchdog_deadline(op.class);
                    self.inner.tracer.watchdog_fire(t, drive, op.span);
                    t
                } else {
                    at
                };
                // The faulted drive may differ from this lane: a read
                // routed to the platter's holder observes that drive's
                // death. Down it, then push the orphaned op back for a
                // surviving lane (the ticket and span stay open).
                self.inner.mark_lane_down(fired, drive as usize, error);
                self.inner.redispatch(op, fired, drive, error);
                self.free_since = self.free_since.max(fired);
                Step::Yield(fired)
            }
        }
    }

    fn name(&self) -> &str {
        &self.label
    }
}

/// Spawns the engine's actors (parked) on `sched` — the service process
/// plus one I/O lane per jukebox drive — and returns their wake handles.
pub(crate) fn spawn_engine<W: 'static>(
    inner: &Rc<TioInner>,
    sched: &mut Scheduler<W>,
) -> EngineHandles {
    let svc = sched.spawn_parked(SvcActor {
        inner: inner.clone(),
    });
    let drives = inner.lanes();
    let spawn_lane = |sched: &mut Scheduler<W>, d: usize| {
        sched.spawn_parked(IoActor {
            inner: inner.clone(),
            drive: d,
            label: format!("io-server-d{d}"),
            free_since: 0,
        })
    };
    // Reader lanes first (ties at equal wake times resolve toward
    // them), writer lane last; `io` stays indexed by drive.
    let readers: Vec<ActorId> = (1..drives).map(|d| spawn_lane(sched, d)).collect();
    let mut io = vec![spawn_lane(sched, 0)];
    io.extend(readers);
    EngineHandles {
        waker: sched.waker(),
        svc,
        io,
    }
}
