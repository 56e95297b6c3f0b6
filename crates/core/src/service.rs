//! The service process and I/O server (§6.7) as an event-driven engine.
//!
//! In the paper these are two user-level processes: the service process
//! fields kernel requests (demand fetch, copy-out, ejection) and selects
//! cache lines; the I/O server moves whole segments between the disk
//! cache and the tertiary device through the Footprint library. Here the
//! same split is explicit: requests enter a typed, priority-ordered
//! request queue ([`crate::requests`]); a *service-process actor* drains
//! it, selects cache lines, and feeds a bounded device queue; an *I/O
//! server actor* drains that queue against the Footprint device. Both
//! run on a virtual-time scheduler with park/wake semantics, so nothing
//! polls — and Table 4's "queuing" row is measured off the queues
//! themselves rather than charged synthetically.
//!
//! One record makes the whole trip: the `Request` an enqueuer submits is
//! the value `dispatch` fills a line, volume and ready time into and
//! the value an I/O lane executes. It succeeds at one of five sites (a
//! fetch, a copy-out, a scrub, an inline eject, a fetch that became
//! resident while queued) and fails at exactly one, `TioInner::refuse`,
//! which knows what each class holds and releases it. Every one of them
//! resolves its ticket through `TioInner::resolve`, which wakes the
//! actors parked on the ticket ([`Ticket::wait`]) at the instant the
//! engine resolved it.
//!
//! The old synchronous entry points ([`TertiaryIo::demand_fetch`] and
//! friends) survive as façades: they enqueue, pump the engine's internal
//! scheduler to quiescence, and read the completion [`Ticket`]. The
//! concurrent experiments (Tables 4 and 6) instead attach the engine's
//! actors to their own scheduler ([`TertiaryIo::attach_engine`]) and
//! drive the queues directly.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use hl_footprint::Footprint;
use hl_lfs::config::AddressMap;
use hl_lfs::types::SegNo;
use hl_sim::time::SimTime;
use hl_sim::{ActorId, PhaseTimer, Scheduler};
use hl_vdev::{Block, BlockDev, DevError, IoSlot, BLOCK_SIZE};

use crate::addr::UniformMap;
use crate::fault::{FaultEvent, FaultKind, FaultLog, HlError};
use crate::ioserver::{spawn_engine, EngineHandles};
use crate::lanes::LaneHealth;
use crate::recovery::{self, RecoveryPolicy, RecoveryState};
use crate::replicas::ReplicaSet;
use crate::requests::{
    write_class, EngineQueues, Outcome, ReqClass, Request, TenantId, Ticket, DISPATCH_CPU,
};
use crate::segcache::{LineState, SegCache};
use crate::tsegfile::TsegTable;

/// Phase labels used in the Table 4 breakdown.
pub mod phase {
    /// Writing an assembled segment to the tertiary device.
    pub const FOOTPRINT_WRITE: &str = "footprint write";
    /// Reading a tertiary segment from the device on a demand fetch.
    pub const FOOTPRINT_READ: &str = "footprint read";
    /// The I/O server reading a staged segment off the cache disk.
    pub const IOSERVER_READ: &str = "io server read";
    /// Filling a cache line on disk with a fetched segment.
    pub(super) const CACHE_FILL: &str = "cache fill write";
    /// Requests waiting in queues (measured at the device queue: time
    /// between an op becoming dispatchable and the I/O server starting
    /// it, beyond any time the device was simply busy).
    pub const QUEUING: &str = "queuing";
}

/// A demand-fetch stall notification (§10: "It would be nice if the user
/// could be notified about a file access which is delayed waiting for a
/// tertiary storage access. Perhaps the kernel could keep track of a
/// user notification agent per process, and send a 'hold on' message.").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallEvent {
    /// A demand fetch began: the caller will block for a while.
    HoldOn {
        /// The tertiary segment being fetched.
        seg: SegNo,
        /// When the stall began.
        at: SimTime,
    },
    /// The fetch finished.
    Resumed {
        /// The fetched segment.
        seg: SegNo,
        /// How long the caller was stalled.
        stalled_for: SimTime,
    },
}

/// The "hold on" notification agent callback type (§10).
pub type StallNotifier = Box<dyn Fn(StallEvent)>;

/// The notifier as stored: shared so [`TioInner::notify`] can clone the
/// handle out and drop the cell borrow before invoking it.
pub(crate) type SharedNotifier = RefCell<Option<Rc<dyn Fn(StallEvent)>>>;

/// Upper bound on I/O-server lanes (and on the per-drive stat arrays).
/// [`TertiaryIo::new`] refuses a jukebox with more drives than this.
pub const MAX_DRIVES: usize = 8;

/// Cumulative service counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SvcStats {
    /// Fetches served from tertiary media — demand *and* prefetch fills
    /// (the name predates prefetching; coalesced joiners and cache hits
    /// do not count).
    pub demand_fetches: u64,
    /// Segments copied out to tertiary storage.
    pub copyouts: u64,
    /// End-of-medium events handled.
    pub eom_events: u64,
    /// Total simulated time (enqueue to line-ready) of those fetches.
    pub fetch_time: SimTime,
    /// Total simulated time spent in copy-outs.
    pub copyout_time: SimTime,
    /// Backoff retries of a copy after a transient fault (§10).
    pub retries: u64,
    /// Failovers from one replica home to the next.
    pub failovers: u64,
    /// Volumes quarantined after repeated or hard failures.
    pub quarantines: u64,
    /// Fresh replicas written by scrub passes.
    pub scrub_copies: u64,
    /// Fetches that exhausted every copy (segment unavailable).
    pub permanent_losses: u64,
    /// Replica/scrub writes that failed outright (the slot was consumed
    /// but no copy was recorded).
    pub replica_write_failures: u64,
    /// Requests that entered the request queue (cache hits bypass it).
    pub queued_requests: u64,
    /// Fetches that coalesced onto an already in-flight fetch of the
    /// same tertiary segment (they cost no extra media read).
    pub coalesced_fetches: u64,
    /// Request-queue depth high-water mark.
    pub reqq_hwm: u32,
    /// Device-queue depth high-water mark.
    pub devq_hwm: u32,
    /// Cumulative queue residency (enqueue to device start) of demand
    /// fetches.
    pub wait_demand: SimTime,
    /// Cumulative queue residency of copy-outs.
    pub wait_copyout: SimTime,
    /// Cumulative queue residency of prefetches.
    pub wait_prefetch: SimTime,
    /// Cumulative queue residency of scrub passes.
    pub wait_scrub: SimTime,
    /// Cumulative queue residency of ejection requests.
    pub wait_eject: SimTime,
    /// Device operations executed per drive lane (index = drive number,
    /// capped at [`MAX_DRIVES`]).
    pub drive_ops: [u64; MAX_DRIVES],
    /// Cumulative device busy time per drive lane.
    pub drive_busy: [SimTime; MAX_DRIVES],
    /// Peak simultaneously-busy drive lanes (strict handoff semantics:
    /// an op starting exactly when another ends does not overlap it).
    pub drive_peak: u32,
    /// Device-queue picks that reused the drive's loaded volume (no
    /// media swap).
    pub affinity_hits: u64,
    /// Ops promoted past affinity batching by the starvation guard.
    pub starvation_promotions: u64,
    /// Drive lanes marked down (hard fault or watchdog expiry); derived
    /// from the trace recorder.
    pub drive_down: u64,
    /// Orphaned device ops re-dispatched to surviving lanes.
    pub redispatched: u64,
    /// Watchdog deadline expirations on hung device ops.
    pub watchdog_fired: u64,
    /// Tagged requests admitted by the per-tenant fair queue.
    pub tenant_admits: u64,
    /// Tagged requests deferred at least once (QoS headroom hold or a
    /// fairer tenant picked first).
    pub tenant_throttles: u64,
    /// Tagged requests force-taken by the `TENANT_BOUND` guard.
    pub tenant_promotions: u64,
}

/// Outcome of one [`TertiaryIo::scrub`] pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// When the pass finished.
    pub end: SimTime,
    /// Fresh replica copies written.
    pub copies_made: u32,
    /// Replica writes that failed (slot burned, no copy recorded).
    pub write_failures: u32,
    /// Segments with no surviving copy anywhere.
    pub unrecoverable: Vec<SegNo>,
}

/// Result of executing one device op.
pub(crate) enum ExecResult {
    /// The op finished (its ticket is resolved); the value is when the
    /// lane's drive is next free.
    Done(SimTime),
    /// A drive-scoped fault interrupted the op. The ticket is *not*
    /// resolved: the caller downs the drive and re-dispatches the op to
    /// a surviving lane.
    LaneFault {
        /// When the fault was observed.
        at: SimTime,
        /// The faulted drive (may differ from the executing lane).
        drive: u32,
        /// The device's report.
        error: DevError,
        /// Hang (watchdog deadline applies) vs. fail-fast death.
        hung: bool,
    },
}

/// Classifies a device error as a drive-scoped lane fault.
fn lane_fault(at: SimTime, error: DevError) -> Option<ExecResult> {
    match error {
        DevError::DriveDead { drive } => Some(ExecResult::LaneFault {
            at,
            drive,
            error,
            hung: false,
        }),
        DevError::DriveHung { drive } => Some(ExecResult::LaneFault {
            at,
            drive,
            error,
            hung: true,
        }),
        _ => None,
    }
}

/// All engine state shared between the public façade and the two actors.
pub(crate) struct TioInner {
    pub(crate) map: UniformMap,
    pub(crate) jukebox: Rc<dyn Footprint>,
    /// The raw disk device under the block map (cache lines live here).
    pub(crate) disks: Rc<dyn BlockDev>,
    pub(crate) cache: Rc<RefCell<SegCache>>,
    pub(crate) tseg: Rc<RefCell<TsegTable>>,
    pub(crate) phases: RefCell<PhaseTimer>,
    pub(crate) stats: RefCell<SvcStats>,
    pub(crate) seg_bytes: usize,
    /// The one segment's worth of block handles that fetch, copy-out and
    /// scrub move between the levels (DESIGN.md §6 "Blocks by
    /// reference"): each op replaces every handle before it reads one,
    /// so one array serves them all. [`TioInner::exec`] takes it out of
    /// the cell for the op.
    pub(crate) staged: Cell<Vec<Block>>,
    /// Replica homes for tertiary segments (§5.4 variant).
    pub(crate) replicas: RefCell<ReplicaSet>,
    /// Optional "hold on" notification agent (§10). Stored as `Rc` so
    /// [`TioInner::notify`] can clone the handle out and drop the
    /// borrow before invoking it — a callback may re-enter the façade
    /// (concurrent-session hot path, PR 3 double-borrow class).
    pub(crate) notifier: SharedNotifier,
    /// Extra copies written per copy-out (0 = no replication).
    pub(crate) replicate: Cell<u32>,
    /// Retry/failover/quarantine knobs (§10).
    pub(crate) policy: Cell<RecoveryPolicy>,
    /// Per-lane health registry, indexed by drive.
    pub(crate) lane_health: RefCell<Vec<LaneHealth>>,
    /// Every lane retired: requests are failed fast instead of queued
    /// (nothing could ever serve them and the engine must quiesce).
    pub(crate) all_retired: Cell<bool>,
    /// Per-volume failure strikes and quarantine set.
    pub(crate) recovery: RefCell<RecoveryState>,
    /// Append-only record of every fault and recovery action.
    pub(crate) fault_log: RefCell<FaultLog>,
    /// The request queue, device queue, and coalescing directory.
    pub(crate) queues: RefCell<EngineQueues>,
    /// Wake handles onto whichever scheduler currently hosts the actors.
    pub(crate) handles: RefCell<Option<EngineHandles>>,
    /// Set once the actors live on an external scheduler
    /// ([`TertiaryIo::attach_engine`]): the façades' pump-based
    /// backpressure then cannot drain the queues itself, and ticket
    /// waiters are actors of that scheduler.
    pub(crate) attached: Cell<bool>,
    /// Actors parked on copy-out backpressure, woken per completion.
    pub(crate) copyout_waiters: RefCell<Vec<ActorId>>,
    /// Latest virtual time any enqueuer has mentioned (anchors requests
    /// that carry no time of their own, like ejections).
    pub(crate) watermark: Cell<SimTime>,
    /// The engine's structured event recorder. Every request opens a
    /// span at enqueue and closes it at ticket completion; queue depths,
    /// residency, cache-line transitions, and device intervals all flow
    /// through it, and every [`SvcStats`] field an event carries is
    /// *read from* it rather than tracked in parallel (DESIGN.md §6d,
    /// "Accounting sources").
    pub(crate) tracer: hl_trace::Tracer,
}

impl TioInner {
    pub(crate) fn notify(&self, event: StallEvent) {
        // Clone the handle out of the cell first: no interior borrow is
        // held across the callback, so a notifier that re-enters the
        // façade (or replaces itself) cannot trip a double borrow.
        let f = self.notifier.borrow().clone();
        if let Some(f) = f {
            f(event);
        }
    }

    pub(crate) fn note_time(&self, at: SimTime) {
        self.watermark.set(self.watermark.get().max(at));
    }

    /// Wakes the service-process actor at `at`.
    pub(crate) fn wake_svc(&self, at: SimTime) {
        if let Some(h) = &*self.handles.borrow() {
            h.waker.wake(h.svc, at);
        }
    }

    /// Wakes every I/O-server lane at `at` (wake-all: each lane consults
    /// the volume-affinity scheduler and re-parks if nothing is eligible
    /// for it, keeping the eligibility rules in one place).
    pub(crate) fn wake_io(&self, at: SimTime) {
        if let Some(h) = &*self.handles.borrow() {
            h.waker.wake_many(&h.io, at);
        }
    }

    /// Posts `outcome` in `ticket`, posts each registered token to its
    /// waiter's inbox, and wakes every actor waiting on it at `at`: the
    /// instant the engine resolved it (an I/O lane's start for device
    /// ops, the dispatch instant, the refusal instant), not the outcome's
    /// own ready time, which the waiter reads off the ticket.
    pub(crate) fn resolve(&self, ticket: &Ticket, outcome: Outcome, at: SimTime) {
        let waiters = ticket.complete(outcome);
        if waiters.is_empty() {
            return;
        }
        debug_assert!(
            self.attached.get(),
            "a ticket waiter on a pumped engine: its wake would reach the private scheduler"
        );
        let handles = self.handles.borrow();
        waiters.deliver(|id| {
            if let Some(h) = &*handles {
                h.waker.wake(id, at);
            }
        });
    }

    /// Wakes every actor parked on copy-out backpressure.
    pub(crate) fn wake_copyout_waiters(&self, at: SimTime) {
        let waiters: Vec<ActorId> = self.copyout_waiters.borrow_mut().drain(..).collect();
        if waiters.is_empty() {
            return;
        }
        if let Some(h) = &*self.handles.borrow() {
            for id in waiters {
                h.waker.wake(id, at);
            }
        }
    }

    /// The watchdog deadline for an op of `class`: the device profile's
    /// nominal whole-segment time scaled by the watchdog slack.
    pub(crate) fn watchdog_deadline(&self, class: ReqClass) -> SimTime {
        recovery::deadline(self.jukebox.nominal_segment_io(write_class(class)))
    }

    /// The one way a request fails, wherever it is — still queued,
    /// dispatched, or executing: posts its class's failure value, closes
    /// its span not-ok, and releases exactly what it holds — the cache
    /// line it was filling (a fetch past dispatch), its coalescing entry
    /// (any fetch), and producers parked on copy-out completion (a
    /// copy-out). Each part is a no-op when there is nothing to release.
    pub(crate) fn refuse(&self, req: &Request, at: SimTime, err: impl Into<HlError>) {
        let err = err.into();
        if let Some(seg) = req.fetch_seg() {
            if req.disk_seg.is_some() {
                self.cache.borrow_mut().eject(seg);
            }
            self.queues.borrow_mut().retire_fetch(seg);
        }
        self.tracer.close_span(at, req.span, false);
        let outcome = match req.class {
            ReqClass::Demand | ReqClass::Prefetch => Outcome::Fetch(Err(err)),
            ReqClass::CopyOut => Outcome::CopyOut(Err(err.into_dev())),
            ReqClass::Eject => Outcome::Eject(false),
            ReqClass::Scrub => Outcome::Scrub(Box::new(ScrubReport {
                end: at,
                ..ScrubReport::default()
            })),
        };
        self.resolve(&req.ticket, outcome, at);
        if req.class == ReqClass::CopyOut {
            self.wake_copyout_waiters(at);
        }
    }

    /// The service process fields one request at `now`: ejections finish
    /// inline; everything else gets its dispatch fields filled in — the
    /// cache line selected for it, its volume, a `ready_at` one dispatch
    /// hop in the future — and the same request enters the device queue.
    pub(crate) fn dispatch(&self, mut req: Box<Request>, now: SimTime) {
        if self.all_retired.get() {
            // The pool is dead: nothing can serve this.
            return self.refuse(&req, now, DevError::Offline);
        }
        match (req.class, req.seg) {
            // A scrub walks many volumes: no line, no single affinity.
            (ReqClass::Scrub, _) => {}
            // Any other request without a segment is a caller bug, but
            // a recoverable one: refuse rather than panic.
            (_, None) => return self.refuse(&req, now, DevError::Offline),
            (ReqClass::Eject, Some(seg)) => {
                let ok = self.do_eject(seg);
                self.tracer
                    .queuing(now, req.span, req.class, req.enqueued_at.min(now), now);
                self.tracer.close_span(now, req.span, ok);
                return self.resolve(&req.ticket, Outcome::Eject(ok), now);
            }
            (ReqClass::Demand | ReqClass::Prefetch, Some(seg)) => {
                let resident = self.cache.borrow().peek(seg).copied();
                if let Some(line) = resident {
                    if line.state != LineState::Filling {
                        // Became resident between enqueue and dispatch.
                        self.queues.borrow_mut().retire_fetch(seg);
                        self.tracer.close_span(now, req.span, true);
                        let ready = now.max(line.ready_at);
                        return self.resolve(
                            &req.ticket,
                            Outcome::Fetch(Ok((line.disk_seg, ready))),
                            now,
                        );
                    }
                    // Two in-flight fetches of one segment cannot reach
                    // dispatch: the coalescing directory merges them at
                    // enqueue time.
                    debug_assert!(false, "duplicate in-flight fetch of seg {seg}");
                }
                // "The service process finds a reusable segment on disk
                // and directs the I/O process to fetch the necessary
                // tertiary-resident segment into that segment" (§6.2).
                // Ejected clean lines need no I/O: they never hold the
                // sole copy of a block (§4). `Filling` pins the line
                // until the fetch lands.
                let allocated = self
                    .cache
                    .borrow_mut()
                    .allocate(seg, LineState::Filling, now);
                let Some((disk_seg, _ejected)) = allocated else {
                    // Every line is pinned: the fetch cannot be served.
                    return self.refuse(&req, now, DevError::Offline);
                };
                req.disk_seg = Some(disk_seg);
                req.vol = self.map.vol_slot(seg).map(|(v, _)| v);
            }
            (ReqClass::CopyOut, Some(seg)) => {
                // Not sealed: nothing coherent to write. Quarantined:
                // the segment's primary volume is gone and the migrator
                // must relocate the staged data. Either way a caller
                // bug or a lost race, not a panic — and a refused
                // copy-out still wakes producers parked on it.
                let sealed = self.cache.borrow().peek(seg).copied();
                let home = self.map.vol_slot(seg);
                let (line, vol) = match (sealed, home) {
                    (Some(l), Some((vol, _)))
                        if l.state == LineState::DirtyWait
                            && !self.recovery.borrow().is_quarantined(vol) =>
                    {
                        (l, vol)
                    }
                    _ => return self.refuse(&req, now, DevError::Offline),
                };
                req.disk_seg = Some(line.disk_seg);
                req.vol = Some(vol);
            }
        }
        req.ready_at = now + DISPATCH_CPU;
        let ready = req.ready_at;
        let depth = {
            let mut q = self.queues.borrow_mut();
            q.devq.push_back(req);
            q.devq.len()
        };
        self.tracer
            .queue_depth(ready, hl_trace::QueueId::Device, depth as u32);
        self.wake_io(ready);
    }

    /// Executes one device op at `start` on lane `drive`. On success the
    /// ticket is resolved and the result carries when that lane's drive
    /// is next free (for a demand fetch that is the media read's end —
    /// the cache-disk fill proceeds on the staging lane while the drive
    /// serves the next op). A drive-scoped fault instead surfaces as
    /// [`ExecResult::LaneFault`] with the ticket left open, so the
    /// caller can down the drive and re-dispatch the op.
    ///
    /// The op stages through the engine's one array of block handles,
    /// taken out of its cell until the op ends: a call that re-enters
    /// the engine meanwhile (the stall notifier may) finds the cell
    /// empty and makes itself another.
    pub(crate) fn exec(&self, op: &Request, start: SimTime, drive: usize) -> ExecResult {
        let mut blocks = self.staged.take();
        let n = self.map.blocks_per_seg as usize;
        if blocks.len() != n {
            blocks = vec![Block::zeroed(BLOCK_SIZE); n];
        }
        let done = match op.class {
            ReqClass::Demand | ReqClass::Prefetch => self.exec_fetch(op, start, drive, &mut blocks),
            ReqClass::CopyOut => self.exec_copyout(op, start, drive, &mut blocks),
            ReqClass::Scrub => {
                let (report, fault) = self.scrub_pass(start, drive, &mut blocks);
                // Abort, don't mis-report segments unrecoverable: a
                // surviving lane re-runs the pass from its deficits.
                match fault.and_then(|(at, error)| lane_fault(at, error)) {
                    Some(f) => f,
                    None => {
                        let end = report.end;
                        self.tracer.close_span(end, op.span, true);
                        self.resolve(&op.ticket, Outcome::Scrub(Box::new(report)), start);
                        ExecResult::Done(end)
                    }
                }
            }
            // Ejections never reach the device queue.
            ReqClass::Eject => ExecResult::Done(start),
        };
        self.staged.set(blocks);
        done
    }

    /// Refuses `op` mid-execution; the lane is free again at `at`.
    fn refuse_op(&self, op: &Request, at: SimTime, err: impl Into<HlError>) -> ExecResult {
        self.refuse(op, at, err);
        ExecResult::Done(at)
    }

    fn exec_fetch(
        &self,
        op: &Request,
        start: SimTime,
        drive: usize,
        blocks: &mut [Block],
    ) -> ExecResult {
        // Missing fields are dispatch bugs, but recoverable ones:
        // refuse the op rather than panic (robustness audit).
        let (Some(seg), Some(disk_seg)) = (op.seg, op.disk_seg) else {
            return self.refuse_op(op, start, DevError::Offline);
        };
        // I/O server: tertiary → the line, with retry/failover (§10).
        // The medium lends its blocks and the cache disk keeps them.
        let (r, used) = match self.fetch_segment(start, drive, seg, blocks) {
            Ok((r, used, _home)) => (r, used),
            Err(e) => {
                // Drive faults are lane-scoped, not data loss: leave the
                // ticket and cache line alone and let the caller
                // re-dispatch. Everything else fails the fetch.
                if let HlError::Dev(d) = &e {
                    if let Some(f) = lane_fault(start, *d) {
                        return f;
                    }
                }
                return self.refuse_op(op, start, e);
            }
        };
        self.admit_drive_io(phase::FOOTPRINT_READ, r, used);
        let base = self.map.seg_base(disk_seg) as u64;
        let (ready, end) = match op.class {
            ReqClass::Prefetch => {
                // Fill the line without booking the arm horizon (the
                // background write interleaves with foreground reads in
                // reality; booking a future slot on the scalar-horizon
                // arm resource would instead stall all earlier
                // foreground I/O). The fill's duration still delays the
                // line's readiness, and the I/O server is free as soon
                // as the tertiary read completes.
                if let Err(e) = self.disks.poke_blocks(base, blocks) {
                    return self.refuse_op(op, r.end, e);
                }
                let fill = hl_sim::time::transfer_time(self.seg_bytes as u64, 993.0);
                let ready = r.end + fill;
                self.tracer.dev_io(hl_trace::Lane::Staging, r.end, ready);
                (ready, r.end)
            }
            _ => {
                // Memory → raw cache disk ("direct access avoids ...
                // pollution of the block buffer cache", §6.7).
                let w = match self.disks.write_blocks(r.end, base, blocks) {
                    Ok(w) => w,
                    Err(e) => {
                        return self.refuse_op(op, r.end, e);
                    }
                };
                self.phases
                    .borrow_mut()
                    .add(phase::CACHE_FILL, w.duration());
                self.tracer.dev_io(hl_trace::Lane::Staging, w.start, w.end);
                // The drive is free once the media read lands; the
                // caller still waits for the cache-disk fill.
                (w.end, r.end)
            }
        };
        {
            let mut cache = self.cache.borrow_mut();
            cache.set_state(seg, LineState::Clean);
            cache.set_ready_at(seg, ready);
        }
        self.queues.borrow_mut().retire_fetch(seg);
        if let Some(demand_enq) = op.demand_enq {
            self.notify(StallEvent::Resumed {
                seg,
                stalled_for: ready - demand_enq,
            });
        }
        let mut stats = self.stats.borrow_mut();
        stats.demand_fetches += 1;
        stats.fetch_time += ready - op.enqueued_at;
        drop(stats);
        self.tracer.close_span(ready, op.span, true);
        self.resolve(&op.ticket, Outcome::Fetch(Ok((disk_seg, ready))), start);
        ExecResult::Done(end)
    }

    fn exec_copyout(
        &self,
        op: &Request,
        start: SimTime,
        drive: usize,
        blocks: &mut [Block],
    ) -> ExecResult {
        let (Some(seg), Some(disk_seg)) = (op.seg, op.disk_seg) else {
            return self.refuse_op(op, start, DevError::Offline);
        };
        // Re-check at service time: the volume may have been quarantined
        // while the op sat in the device queue.
        let home = self.map.vol_slot(seg);
        let Some((vol, slot)) = home.filter(|&(v, _)| !self.recovery.borrow().is_quarantined(v))
        else {
            return self.refuse_op(op, start, DevError::Offline);
        };

        // I/O server: the line's blocks, lent by the cache disk...
        let base = self.map.seg_base(disk_seg) as u64;
        let r = match self.disks.read_blocks(start, base, blocks) {
            Ok(r) => r,
            Err(e) => return self.refuse_op(op, start, e),
        };
        self.phases
            .borrow_mut()
            .add(phase::IOSERVER_READ, r.duration());
        self.tracer.dev_io(hl_trace::Lane::Staging, r.start, r.end);

        // ...kept by the medium, via Footprint.
        match self
            .jukebox
            .write_segment_on(r.end, drive, vol, slot, blocks)
        {
            Ok((w, used)) => {
                self.admit_drive_io(phase::FOOTPRINT_WRITE, w, used);
                self.cache.borrow_mut().set_state(seg, LineState::Clean);
                {
                    let mut tseg = self.tseg.borrow_mut();
                    let u = tseg.seg_mut(seg);
                    u.avail_bytes = self.seg_bytes as u32;
                    tseg.advance_cursor(vol, slot);
                }
                let end = self.write_replicas(w.end, drive, seg, vol, blocks);
                let mut stats = self.stats.borrow_mut();
                stats.copyouts += 1;
                stats.copyout_time += end - op.enqueued_at;
                drop(stats);
                self.tracer.close_span(end, op.span, true);
                self.resolve(&op.ticket, Outcome::CopyOut(Ok(end)), start);
                ExecResult::Done(end)
            }
            Err(e @ (DevError::DriveDead { .. } | DevError::DriveHung { .. })) => {
                // Lane-scoped: leave the ticket open for re-dispatch.
                lane_fault(r.end, e).unwrap_or(ExecResult::Done(r.end))
            }
            Err(DevError::EndOfMedium { written }) => {
                self.tseg.borrow_mut().volume_mut(vol).full = true;
                self.fault_log.borrow_mut().push(FaultEvent::EndOfMedium {
                    at: r.end,
                    vol,
                    slot,
                });
                self.refuse_op(op, r.end, DevError::EndOfMedium { written })
            }
            Err(e) => self.refuse_op(op, r.end, e),
        }
    }

    /// Books one Footprint transfer: its duration under `phase` (Table
    /// 4) and its interval on the trace lane of the drive that carried
    /// it, which is where the per-drive stats are read from.
    pub(crate) fn admit_drive_io(&self, phase: &'static str, slot: IoSlot, used: usize) {
        self.phases.borrow_mut().add(phase, slot.duration());
        self.tracer
            .dev_io(hl_trace::Lane::Drive(used as u32), slot.start, slot.end);
    }

    /// Ejects a clean cached line ("read-only cached segments ... may be
    /// discarded from the cache at any time", §4). No-op for absent
    /// lines; pinned lines are refused.
    fn do_eject(&self, tert_seg: SegNo) -> bool {
        let mut cache = self.cache.borrow_mut();
        match cache.peek(tert_seg) {
            Some(line) if line.state == LineState::Clean => {
                cache.eject(tert_seg);
                true
            }
            _ => false,
        }
    }
}

/// The tertiary I/O engine shared by the block-map device, the migrator,
/// and the benchmarks.
pub struct TertiaryIo {
    /// The uniform address map.
    pub map: UniformMap,
    inner: Rc<TioInner>,
    /// The internal scheduler the synchronous façades pump. Unused once
    /// [`Self::attach_engine`] moves the actors to an external one.
    engine: RefCell<Scheduler<()>>,
}

impl TertiaryIo {
    /// Wires the engine together and spawns its two actors (parked) on
    /// an internal scheduler.
    pub fn new(
        map: UniformMap,
        jukebox: Rc<dyn Footprint>,
        disks: Rc<dyn BlockDev>,
        cache: Rc<RefCell<SegCache>>,
        tseg: Rc<RefCell<TsegTable>>,
    ) -> TertiaryIo {
        let seg_bytes = jukebox.segment_bytes();
        assert_eq!(
            seg_bytes as u32 % hl_vdev::BLOCK_SIZE as u32,
            0,
            "segment size must be block-aligned"
        );
        assert_eq!(
            seg_bytes as u32,
            map.blocks_per_seg * hl_vdev::BLOCK_SIZE as u32,
            "jukebox and filesystem disagree on segment size"
        );
        let lane_count = jukebox.drives();
        assert!(
            (1..=MAX_DRIVES).contains(&lane_count),
            "jukebox has {lane_count} drives; the engine runs 1 to {MAX_DRIVES} lanes"
        );
        let tracer = hl_trace::Tracer::new();
        cache.borrow_mut().set_tracer(tracer.clone());
        let inner = Rc::new(TioInner {
            map,
            jukebox,
            disks,
            cache,
            tseg,
            phases: RefCell::new(PhaseTimer::new()),
            stats: RefCell::new(SvcStats::default()),
            seg_bytes,
            staged: Cell::new(Vec::new()),
            replicas: RefCell::new(ReplicaSet::new()),
            notifier: RefCell::new(None),
            replicate: Cell::new(0),
            policy: Cell::new(RecoveryPolicy::default()),
            lane_health: RefCell::new(vec![LaneHealth::default(); lane_count]),
            all_retired: Cell::new(false),
            recovery: RefCell::new(RecoveryState::new()),
            fault_log: RefCell::new(FaultLog::new()),
            queues: RefCell::new(EngineQueues::new(tracer.clone())),
            handles: RefCell::new(None),
            attached: Cell::new(false),
            copyout_waiters: RefCell::new(Vec::new()),
            watermark: Cell::new(0),
            tracer,
        });
        let mut engine = Scheduler::new();
        let handles = spawn_engine(&inner, &mut engine);
        *inner.handles.borrow_mut() = Some(handles);
        TertiaryIo {
            map,
            inner,
            engine: RefCell::new(engine),
        }
    }

    /// Installs the per-process "hold on" notification agent (§10).
    pub fn set_stall_notifier(&self, f: StallNotifier) {
        *self.inner.notifier.borrow_mut() = Some(Rc::from(f));
    }

    /// Sets how many replica copies each copy-out writes (§5.4: "perhaps
    /// having the Footprint server keep two copies of everything written
    /// to it", §10's reliability suggestion).
    pub fn set_replication(&self, copies: u32) {
        self.inner.replicate.set(copies);
    }

    /// The replica table (the tertiary cleaner prunes it).
    pub fn replicas(&self) -> &RefCell<ReplicaSet> {
        &self.inner.replicas
    }

    /// Sets the retry/failover/quarantine policy (§10).
    pub fn set_recovery_policy(&self, p: RecoveryPolicy) {
        self.inner.policy.set(p);
    }

    /// Per-lane health snapshot, indexed by drive: `true` = up and
    /// taking work, `false` = down (probing) or retired.
    pub fn lane_health(&self) -> Vec<bool> {
        self.inner
            .lane_health
            .borrow()
            .iter()
            .map(|h| !h.retired && h.down_since.is_none())
            .collect()
    }

    /// Snapshot of the global fault/recovery log.
    pub fn fault_log(&self) -> FaultLog {
        self.inner.fault_log.borrow().clone()
    }

    /// Volumes currently quarantined, sorted.
    pub fn quarantined_volumes(&self) -> Vec<u32> {
        self.inner.recovery.borrow().quarantined_volumes()
    }

    /// The shared cache handle.
    pub fn cache(&self) -> Rc<RefCell<SegCache>> {
        self.inner.cache.clone()
    }

    /// The shared tertiary segment table.
    pub fn tseg(&self) -> Rc<RefCell<TsegTable>> {
        self.inner.tseg.clone()
    }

    /// The jukebox handle.
    pub fn jukebox(&self) -> Rc<dyn Footprint> {
        self.inner.jukebox.clone()
    }

    /// How many I/O-server lanes the engine runs: one per jukebox drive.
    pub fn drives(&self) -> usize {
        self.inner.lanes()
    }

    /// The raw disk device beneath the block map.
    pub fn disks_handle(&self) -> Rc<dyn BlockDev> {
        self.inner.disks.clone()
    }

    /// Phase timing snapshot (Table 4).
    pub fn phases(&self) -> PhaseTimer {
        self.inner.phases.borrow().clone()
    }

    /// Counter snapshot: a read-out of the trace recorder and of the
    /// fault log's per-kind counts (DESIGN.md §6d lists the source field
    /// by field). What the engine still counts itself has no event to
    /// be read from: the fetch/copy-out totals the read path polls, and
    /// the scheduler picks (`affinity_hits`, `starvation_promotions`,
    /// `tenant_promotions`) kept in the queues.
    pub fn stats(&self) -> SvcStats {
        let mut st = *self.inner.stats.borrow();
        let t = &self.inner.tracer;
        st.queued_requests = hl_trace::Class::ALL
            .iter()
            .map(|&c| t.spans_opened(c))
            .sum();
        st.coalesced_fetches = t.joins();
        st.wait_demand = t.wait(hl_trace::Class::Demand);
        st.wait_eject = t.wait(hl_trace::Class::Eject);
        st.wait_copyout = t.wait(hl_trace::Class::CopyOut);
        st.wait_prefetch = t.wait(hl_trace::Class::Prefetch);
        st.wait_scrub = t.wait(hl_trace::Class::Scrub);
        st.reqq_hwm = t.queue_hwm(hl_trace::QueueId::Request);
        st.devq_hwm = t.queue_hwm(hl_trace::QueueId::Device);
        for d in 0..MAX_DRIVES {
            (st.drive_ops[d], st.drive_busy[d]) = t.drive_io(d as u32);
        }
        st.drive_peak = t.drive_peak() as u32;
        {
            let log = self.inner.fault_log.borrow();
            st.eom_events = log.count(FaultKind::EndOfMedium);
            st.retries = log.count(FaultKind::Retry);
            st.failovers = log.count(FaultKind::Failover);
            st.quarantines = log.count(FaultKind::Quarantine);
            st.scrub_copies = log.count(FaultKind::ScrubCopy);
            st.permanent_losses = log.count(FaultKind::PermanentLoss);
            st.replica_write_failures = log.count(FaultKind::WriteFault);
        }
        {
            let q = self.inner.queues.borrow();
            st.affinity_hits = q.affinity_hits;
            st.starvation_promotions = q.starvation_promotions;
            st.tenant_promotions = q.tenant_promotions;
        }
        st.tenant_admits = t.tenant_admits();
        st.tenant_throttles = t.tenant_throttles();
        st.drive_down = t.drive_downs();
        st.redispatched = t.redispatches();
        st.watchdog_fired = t.watchdog_fires();
        st
    }

    /// Demand fetches performed so far — the one [`SvcStats`] counter the
    /// filesystem read path polls on every call.
    pub fn demand_fetches(&self) -> u64 {
        self.inner.stats.borrow().demand_fetches
    }

    /// A handle onto the engine's structured event recorder.
    pub fn tracer(&self) -> hl_trace::Tracer {
        self.inner.tracer.clone()
    }

    /// FNV-1a digest of the full trace history (events beyond the ring
    /// capacity still contribute): byte-identical runs hash equal.
    pub fn trace_digest(&self) -> u64 {
        self.inner.tracer.digest()
    }

    /// Runs the tracecheck invariant engine over the recorded trace,
    /// with expectations for a quiesced engine: all spans closed, queue
    /// residency reconciled against [`SvcStats`], and device-op overlap
    /// bounded by [`Self::io_peak_in_flight`].
    pub fn trace_findings(&self) -> Vec<hl_trace::Finding> {
        let st = self.stats();
        let expect = hl_trace::Expectations::quiesced(
            [
                st.wait_demand,
                st.wait_eject,
                st.wait_copyout,
                st.wait_prefetch,
                st.wait_scrub,
            ],
            self.io_peak_in_flight(),
        )
        .with_drive_lanes(self.inner.lanes());
        hl_trace::tracecheck(&self.inner.tracer, &expect)
    }

    // -----------------------------------------------------------------
    // Queued entry points (the kernel request queue of Figure 5).
    // -----------------------------------------------------------------

    /// Queues a demand fetch of `tert_seg`. Cache hits resolve the
    /// ticket immediately without entering the queues; a fetch already
    /// in flight is joined (coalesced) rather than duplicated.
    pub fn enqueue_demand(&self, at: SimTime, tert_seg: SegNo) -> Ticket {
        self.enqueue_fetch(ReqClass::Demand, at, tert_seg, None)
    }

    /// Queues an asynchronous prefetch fill (§6.2: the service/I/O
    /// processes "may choose unilaterally to ... insert new segments
    /// into the cache"). Coalesces like [`Self::enqueue_demand`].
    pub fn enqueue_prefetch(&self, at: SimTime, tert_seg: SegNo) -> Ticket {
        self.enqueue_fetch(ReqClass::Prefetch, at, tert_seg, None)
    }

    /// `class` is `Demand` or `Prefetch`: the fetch's priority and its
    /// fill mode.
    fn enqueue_fetch(
        &self,
        class: ReqClass,
        at: SimTime,
        tert_seg: SegNo,
        tenant: Option<TenantId>,
    ) -> Ticket {
        self.inner.note_time(at);
        let line = self.inner.cache.borrow_mut().lookup(tert_seg, at);
        if let Some(line) = line {
            if line.state != LineState::Filling {
                // Resident: served without entering the queues at all.
                let ticket = Ticket::new();
                let ready = at.max(line.ready_at);
                let outcome = Outcome::Fetch(Ok((line.disk_seg, ready)));
                self.inner.resolve(&ticket, outcome, at);
                return ticket;
            }
        }
        let demand = class == ReqClass::Demand;
        let pending = self.inner.queues.borrow().pending_fetch(tert_seg);
        if let Some((parent, shared)) = pending {
            // Coalesce: N readers of one tertiary segment share one
            // media read and observe the same `ready_at`. The join is
            // the count (`SvcStats::coalesced_fetches`).
            if demand {
                self.inner.queues.borrow_mut().upgrade_fetch(tert_seg, at);
                self.inner.notify(StallEvent::HoldOn { seg: tert_seg, at });
            }
            self.inner.tracer.join(at, parent, class);
            self.inner.wake_svc(at);
            return shared;
        }
        self.make_room();
        if demand {
            self.inner.notify(StallEvent::HoldOn { seg: tert_seg, at });
        }
        self.submit(class, Some(tert_seg), at, tenant)
    }

    /// Backpressure: a full request queue makes the enqueuer drain the
    /// engine before adding more (callers on an external scheduler use
    /// the `try_*` variants and park instead).
    fn make_room(&self) {
        while !self.inner.attached.get() && self.inner.queues.borrow().reqq_full() {
            self.pump();
        }
    }

    /// Queues a copy-out of the sealed (`DirtyWait`) line of `tert_seg`.
    pub fn enqueue_copy_out(&self, at: SimTime, tert_seg: SegNo) -> Ticket {
        self.inner.note_time(at);
        self.make_room();
        self.submit(ReqClass::CopyOut, Some(tert_seg), at, None)
    }

    /// Non-blocking variant of [`Self::enqueue_copy_out`] for actors on
    /// an external scheduler: `None` when the request queue is full, in
    /// which case the caller should park and register itself with
    /// [`Self::subscribe_copyout`] to be woken when a copy-out retires.
    pub fn try_enqueue_copy_out(&self, at: SimTime, tert_seg: SegNo) -> Option<Ticket> {
        self.try_copy_out(at, tert_seg, None)
    }

    fn try_copy_out(&self, at: SimTime, seg: SegNo, tenant: Option<TenantId>) -> Option<Ticket> {
        self.inner.note_time(at);
        let full = self.inner.queues.borrow().reqq_full();
        (!full).then(|| self.submit(ReqClass::CopyOut, Some(seg), at, tenant))
    }

    /// Queues a unilateral ejection of a clean line.
    pub fn enqueue_eject(&self, at: SimTime, tert_seg: SegNo) -> Ticket {
        self.inner.note_time(at);
        self.submit(ReqClass::Eject, Some(tert_seg), at, None)
    }

    /// Queues a scrub / re-replication pass (§10).
    pub fn enqueue_scrub(&self, at: SimTime) -> Ticket {
        self.inner.note_time(at);
        self.submit(ReqClass::Scrub, None, at, None)
    }

    /// The one way into the request queue: builds the request, opens
    /// its span, queues it and wakes the service process.
    fn submit(
        &self,
        class: ReqClass,
        seg: Option<SegNo>,
        at: SimTime,
        tenant: Option<TenantId>,
    ) -> Ticket {
        let mut req = Request::new(class, seg, at, tenant);
        let ticket = req.ticket.clone();
        req.span = self
            .inner
            .tracer
            .open_span(at, class, seg.map(|s| s as u64));
        let depth = {
            let mut q = self.inner.queues.borrow_mut();
            q.push(req);
            q.reqq_len()
        };
        self.inner
            .tracer
            .queue_depth(at, hl_trace::QueueId::Request, depth as u32);
        self.inner.wake_svc(at);
        ticket
    }

    /// Runs the internal engine to quiescence (every queued request
    /// served), returning the furthest virtual time reached. A no-op
    /// once the actors live on an external scheduler.
    pub fn pump(&self) -> SimTime {
        self.engine.borrow_mut().run(&mut ())
    }

    /// Moves the engine's actors onto an external scheduler, so they
    /// interleave with the caller's own actors (the Table 4/6 rigs).
    /// Returns the service-process id and the I/O lane ids (one per
    /// drive). After this, the synchronous façades must not be used:
    /// completion is observed by running the external scheduler, with
    /// the caller's actors parked on their tickets ([`Ticket::wait`]).
    pub fn attach_engine<W: 'static>(&self, sched: &mut Scheduler<W>) -> (ActorId, Vec<ActorId>) {
        let handles = spawn_engine(&self.inner, sched);
        let ids = (handles.svc, handles.io.clone());
        *self.inner.handles.borrow_mut() = Some(handles);
        self.inner.attached.set(true);
        ids
    }

    /// Registers an actor to be woken when the next copy-out completes
    /// (backpressure relief for throttled producers).
    pub fn subscribe_copyout(&self, id: ActorId) {
        self.inner.copyout_waiters.borrow_mut().push(id);
    }

    /// Sets a tenant's fair-queue weight: its share of admissions
    /// relative to other tenants within each request class (default 1,
    /// clamped to at least 1).
    pub fn set_tenant_weight(&self, tenant: TenantId, weight: u32) {
        self.inner
            .queues
            .borrow_mut()
            .set_tenant_weight(tenant, weight);
    }

    /// Opens a per-client session onto a shared engine. Sessions are
    /// the concurrent-client façade: any number may coexist on one
    /// engine (cheap `Rc` clones), every request a session enqueues is
    /// tagged with its tenant id for the fair queue, and no interior
    /// borrow outlives a single call — interleaving sessions cannot
    /// re-trip the historical double-borrow class (see the
    /// `sessions_survive_reentrant_notifiers` test).
    #[inline]
    pub fn session(self: &Rc<Self>, tenant: TenantId) -> EngineSession {
        EngineSession {
            engine: Rc::clone(self),
            tenant,
        }
    }

    /// Current (request queue, device queue) depths.
    pub fn queue_depths(&self) -> (usize, usize) {
        let q = self.inner.queues.borrow();
        (q.reqq_len(), q.devq.len())
    }

    /// Operations the I/O server has executed against its devices
    /// (the recorder's `DevIo` total).
    pub fn io_ops(&self) -> u64 {
        self.inner.tracer.dev_ops()
    }

    /// Peak simultaneously outstanding device operations, over the
    /// retained `DevIo` events (a lower bound on a truncated trace).
    pub fn io_peak_in_flight(&self) -> usize {
        self.inner.tracer.peak_in_flight()
    }

    // -----------------------------------------------------------------
    // Synchronous façades (enqueue + pump + read the ticket).
    // -----------------------------------------------------------------

    /// Demand-fetches `tert_seg` into the cache (§6.2). Returns the
    /// cache line's disk segment and the completion time. Faults along
    /// the way are handled by the engine's recovery policy; if every
    /// copy is gone the error carries the fault trail and already-cached
    /// lines keep serving (degraded mode).
    pub fn demand_fetch(&self, at: SimTime, tert_seg: SegNo) -> Result<(SegNo, SimTime), HlError> {
        let ticket = self.enqueue_demand(at, tert_seg);
        self.pump();
        ticket.fetch_result()
    }

    /// Copies a sealed (`DirtyWait`) staging line out to its tertiary
    /// segment. On success the line becomes a clean cached copy.
    ///
    /// # Errors
    ///
    /// [`DevError::EndOfMedium`] if the volume filled early (compression
    /// shortfall): the volume is marked full and the line left in
    /// `DirtyWait`; the migrator relocates it (§6.3).
    pub fn copy_out(&self, at: SimTime, tert_seg: SegNo) -> Result<SimTime, DevError> {
        let ticket = self.enqueue_copy_out(at, tert_seg);
        self.pump();
        ticket.copyout_result()
    }

    /// Background scrub / re-replicate pass (§10); see
    /// [`ScrubReport`].
    pub fn scrub(&self, at: SimTime) -> ScrubReport {
        let ticket = self.enqueue_scrub(at);
        self.pump();
        ticket.scrub_result()
    }

    /// Ejects a clean cached line ("read-only cached segments ... may be
    /// discarded from the cache at any time", §4). No-op for absent
    /// lines; pinned lines are refused.
    pub fn eject(&self, tert_seg: SegNo) -> bool {
        let ticket = self.enqueue_eject(self.inner.watermark.get(), tert_seg);
        self.pump();
        ticket.eject_result()
    }
}

/// A per-client session handle onto a shared [`TertiaryIo`]
/// ([`TertiaryIo::session`]): the unit of concurrency the server layer
/// hands each connection. The session owns its identity (tenant id)
/// as explicit handle state — nothing about the client lives in the
/// engine's shared `RefCell` interior — and tags each request it
/// enqueues with that tenant; the engine borrows its interior only
/// within the call. Cloning a session shares the engine but the
/// clone can be re-tenanted cheaply via [`TertiaryIo::session`].
#[derive(Clone)]
pub struct EngineSession {
    engine: Rc<TertiaryIo>,
    tenant: TenantId,
}

// The server opens a session per request, so `session` and the three
// tagged entry points are `#[inline]`: across the crate boundary the
// calls otherwise cost `fleet_resident` ~7 % of its host throughput.
impl EngineSession {
    /// [`TertiaryIo::enqueue_demand`] tagged for the per-tenant fair
    /// queue.
    #[inline]
    pub fn enqueue_demand(&self, at: SimTime, tert_seg: SegNo) -> Ticket {
        self.engine
            .enqueue_fetch(ReqClass::Demand, at, tert_seg, Some(self.tenant))
    }

    /// [`TertiaryIo::enqueue_prefetch`] tagged for the per-tenant fair
    /// queue. Tagged background fetches are subject to the device-queue
    /// headroom throttle, so one tenant's prefetch storm cannot crowd
    /// out another's demand fetches.
    #[inline]
    pub fn enqueue_prefetch(&self, at: SimTime, tert_seg: SegNo) -> Ticket {
        self.engine
            .enqueue_fetch(ReqClass::Prefetch, at, tert_seg, Some(self.tenant))
    }

    /// [`TertiaryIo::try_enqueue_copy_out`] tagged for the per-tenant
    /// fair queue (the server's `put` path); `None` when the request
    /// queue is full.
    #[inline]
    pub fn try_enqueue_copy_out(&self, at: SimTime, tert_seg: SegNo) -> Option<Ticket> {
        self.engine.try_copy_out(at, tert_seg, Some(self.tenant))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requests::{Inbox, MAX_REDISPATCH};
    use crate::rig::RigSpec;
    use hl_vdev::{FaultConfig, FaultPlan};

    /// A copy-out that dies through re-dispatch exhaustion must still
    /// wake the producers parked on copy-out completion: they would
    /// otherwise sleep until some *other* copy-out retires.
    #[test]
    fn exhausted_copy_out_wakes_parked_producers() {
        struct Producer(Rc<Cell<u32>>);
        impl hl_sim::Actor<()> for Producer {
            fn step(&mut self, _: &mut (), _now: SimTime) -> hl_sim::Step {
                self.0.set(self.0.get() + 1);
                hl_sim::Step::Park
            }
        }
        let (tio, _jb, map) = RigSpec::with_lines(40..44).build();
        let mut sched: Scheduler<()> = Scheduler::new();
        tio.attach_engine(&mut sched);
        let stepped = Rc::new(Cell::new(0));
        tio.subscribe_copyout(sched.spawn_parked(Producer(stepped.clone())));

        let ticket = tio.submit(ReqClass::CopyOut, Some(map.tert_seg(0, 0)), 0, None);
        let mut op = tio.inner.queues.borrow_mut().pop_ready(0).expect("queued");
        op.attempts = MAX_REDISPATCH;
        let dead = DevError::DriveDead { drive: 0 };
        tio.inner.redispatch(op, 1_000, 0, dead);
        assert_eq!(ticket.copyout_result(), Err(dead));
        sched.run(&mut ());
        assert_eq!(stepped.get(), 1, "the parked producer was never woken");
    }

    // ------------------------------------------------------------------
    // Ticket waiters: the engine posts each registered token to its
    // waiter's inbox and wakes whoever parks on a ticket, at the instant
    // it resolves the ticket. Seen red, each sabotage alone: the wake
    // dropped from `refuse` (the refused waiter is never stepped); the
    // wake posted at the outcome's ready time instead of the lane's start
    // (the coalesced waiters step at `ready`); `wait` registering on a
    // ticket that has already resolved, as a separate check-then-register
    // would after a completion in between (it returns `true`, so its
    // caller would park for good); registrations deduplicated by actor
    // rather than by `(actor, token)` (the second get's token is lost);
    // a second wake for an actor's second token (it is stepped twice).
    // ------------------------------------------------------------------

    /// Parks on every step, recording when it was stepped.
    struct Woken(Rc<RefCell<Vec<SimTime>>>);
    impl hl_sim::Actor<()> for Woken {
        fn step(&mut self, _: &mut (), now: SimTime) -> hl_sim::Step {
            self.0.borrow_mut().push(now);
            hl_sim::Step::Park
        }
    }

    fn woken(sched: &mut Scheduler<()>) -> (ActorId, Rc<RefCell<Vec<SimTime>>>) {
        let log = Rc::new(RefCell::new(Vec::new()));
        (sched.spawn_parked(Woken(log.clone())), log)
    }

    #[test]
    fn coalesced_waiters_are_each_woken_once_when_the_lane_starts() {
        let (tio, jb, map) = RigSpec::with_lines(40..44).build();
        let seg = map.tert_seg(1, 0);
        jb.poke_segment(1, 0, &vec![3u8; 1 << 20]).unwrap();
        let mut sched: Scheduler<()> = Scheduler::new();
        tio.attach_engine(&mut sched);
        let (a, a_log) = woken(&mut sched);
        let (b, b_log) = woken(&mut sched);
        let (a_inbox, b_inbox) = (Inbox::new(), Inbox::new());
        let first = tio.session(1).enqueue_demand(0, seg);
        let joined = tio.session(2).enqueue_demand(0, seg);
        assert!(first.wait(a, &a_inbox, 5) && joined.wait(b, &b_inbox, 9));
        assert!(
            first.wait(a, &a_inbox, 5),
            "a second registration is the same one"
        );
        sched.run(&mut ());

        let st = tio.stats();
        assert_eq!((st.demand_fetches, st.coalesced_fetches), (1, 1));
        // Enqueued at 0, the fetch waits one dispatch hop and the lane
        // starts it at DISPATCH_CPU: that is when the engine resolves the
        // ticket, and the media read and the fill finish seconds later.
        let (_, ready) = joined.fetch_result().unwrap();
        assert_eq!(st.wait_demand, DISPATCH_CPU);
        assert!(ready > DISPATCH_CPU);
        assert_eq!(*a_log.borrow(), [DISPATCH_CPU]);
        assert_eq!(*b_log.borrow(), [DISPATCH_CPU]);
        assert_eq!((a_inbox.pop(), a_inbox.pop()), (Some(5), None));
        assert_eq!((b_inbox.pop(), b_inbox.pop()), (Some(9), None));
    }

    /// One actor holding two gets that coalesced onto one ticket (a
    /// fleet worker serving two clients of one segment) registers under
    /// two tokens: the engine posts both and wakes it once.
    #[test]
    fn one_waiter_under_two_tokens_receives_both_and_one_wake() {
        let (tio, jb, map) = RigSpec::with_lines(40..44).build();
        let seg = map.tert_seg(1, 0);
        jb.poke_segment(1, 0, &vec![3u8; 1 << 20]).unwrap();
        let mut sched: Scheduler<()> = Scheduler::new();
        tio.attach_engine(&mut sched);
        let (id, log) = woken(&mut sched);
        let inbox = Inbox::new();
        let first = tio.session(1).enqueue_demand(0, seg);
        let joined = tio.session(2).enqueue_demand(0, seg);
        assert!(first.wait(id, &inbox, 3) && joined.wait(id, &inbox, 4));
        sched.run(&mut ());

        assert_eq!(tio.stats().coalesced_fetches, 1, "one ticket");
        let mut tokens: Vec<u64> = std::iter::from_fn(|| inbox.pop()).collect();
        tokens.sort_unstable();
        assert_eq!(tokens, [3, 4]);
        assert_eq!(*log.borrow(), [DISPATCH_CPU], "woken once");
    }

    #[test]
    fn a_refused_ticket_wakes_its_waiter_when_the_last_lane_retires() {
        use hl_trace::EventKind;
        let (tio, jb, map) = RigSpec {
            drives: 1,
            ..RigSpec::with_lines(40..44)
        }
        .build();
        let plan = FaultPlan::new(FaultConfig::none(17));
        plan.fail_drive_at(0, 0);
        jb.set_fault_plan(plan);
        let mut sched: Scheduler<()> = Scheduler::new();
        tio.attach_engine(&mut sched);
        let (id, log) = woken(&mut sched);
        let inbox = Inbox::new();
        let ticket = tio.enqueue_demand(0, map.tert_seg(0, 0));
        assert!(ticket.wait(id, &inbox, 1));
        sched.run(&mut ());

        assert_eq!(tio.lane_health(), [false], "the only lane retired");
        assert!(ticket.fetch_result().is_err());
        let refused_at: Vec<SimTime> = tio
            .tracer()
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::SpanClose { ok: false, .. } => Some(e.at),
                _ => None,
            })
            .collect();
        assert_eq!(refused_at.len(), 1);
        assert!(refused_at[0] > 0);
        assert_eq!(*log.borrow(), refused_at, "woken once, when refused");
        assert_eq!(inbox.pop(), Some(1), "a refusal posts the token too");
    }

    #[test]
    fn waiting_on_a_resolved_ticket_registers_no_one() {
        let (tio, jb, map) = RigSpec::with_lines(40..44).build();
        let seg = map.tert_seg(0, 0);
        jb.poke_segment(0, 0, &vec![7u8; 1 << 20]).unwrap();
        let mut sched: Scheduler<()> = Scheduler::new();
        tio.attach_engine(&mut sched);
        let (id, log) = woken(&mut sched);
        let inbox = Inbox::new();
        let cold = tio.enqueue_demand(0, seg);
        sched.run(&mut ());
        assert!(cold.is_done());
        assert!(!cold.wait(id, &inbox, 1), "resolved by the engine");
        let hit = tio.enqueue_demand(1, seg);
        assert!(
            !hit.wait(id, &inbox, 2),
            "resolved at enqueue: the line is resident"
        );
        sched.run(&mut ());
        assert!(log.borrow().is_empty(), "nobody was woken");
        assert_eq!(inbox.pop(), None, "no token was posted");
    }

    /// The refusal table: five classes × the three places a request can
    /// be refused — still in the request queue when the pool drains, in
    /// the device queue when it drains, executing when re-dispatch runs
    /// out. Each cell posts its class's failure value, closes the span
    /// not-ok once, and releases the request's own holdings only.
    #[test]
    fn refusal_releases_exactly_what_the_request_holds() {
        use hl_trace::EventKind;
        use ReqClass::{CopyOut, Demand, Eject, Prefetch, Scrub};
        #[derive(Clone, Copy, Debug, PartialEq)]
        enum Place {
            Reqq,
            Devq,
            Executing,
        }
        let dead = DevError::DriveDead { drive: 0 };
        for class in ReqClass::ALL {
            for place in [Place::Reqq, Place::Devq, Place::Executing] {
                let cell = format!("{class:?} refused in {place:?}");
                let (tio, _jb, map) = RigSpec::with_lines(40..44).build();
                let seg = map.tert_seg(1, 2);
                let cache = tio.cache();
                // A line of the same segment that is *not* the request's
                // to release: the sealed line of a copy-out, the clean
                // line an eject targets, a line that became resident
                // while the fetch was still queued.
                let bystander = match class {
                    CopyOut => Some(LineState::DirtyWait),
                    Eject => Some(LineState::Clean),
                    Demand | Prefetch if place == Place::Reqq => Some(LineState::Clean),
                    _ => None,
                };
                if let Some(state) = bystander {
                    cache.borrow_mut().allocate(seg, state, 0).expect("line");
                }
                let ticket = tio.submit(class, (class != Scrub).then_some(seg), 0, None);
                if place != Place::Reqq {
                    let req = tio.inner.queues.borrow_mut().pop_ready(0).expect("queued");
                    if class == Eject {
                        // Ejects finish at dispatch; only a synthetic
                        // one sits further down the pipeline.
                        tio.inner.queues.borrow_mut().devq.push_back(req);
                    } else {
                        tio.inner.dispatch(req, 0);
                    }
                    if bystander.is_none() && class != Scrub {
                        let line = cache.borrow().peek(seg).map(|l| l.state);
                        assert_eq!(line, Some(LineState::Filling), "{cell}");
                    }
                }

                let at = 5_000;
                let err = if place == Place::Executing {
                    let mut op = tio.inner.queues.borrow_mut().devq.pop_front().expect(&cell);
                    op.attempts = MAX_REDISPATCH;
                    tio.inner.redispatch(op, at, 0, dead);
                    dead
                } else {
                    tio.inner.drain_dead(at);
                    DevError::Offline
                };

                match (class, ticket.outcome().expect(&cell)) {
                    (Demand | Prefetch, Outcome::Fetch(Err(HlError::Dev(e)))) => assert_eq!(e, err),
                    (CopyOut, Outcome::CopyOut(Err(e))) => assert_eq!(e, err, "{cell}"),
                    (Eject, Outcome::Eject(false)) => {}
                    (Scrub, Outcome::Scrub(r)) => assert_eq!((r.end, r.copies_made), (at, 0)),
                    (_, other) => panic!("{cell}: wrong failure value {other:?}"),
                }
                let closes: Vec<bool> = tio
                    .tracer()
                    .events()
                    .iter()
                    .filter_map(|e| match e.kind {
                        EventKind::SpanClose { ok, .. } => Some(ok),
                        _ => None,
                    })
                    .collect();
                assert_eq!(closes, [false], "{cell}: one not-ok close");
                let pending = tio.inner.queues.borrow().pending_fetch(seg);
                assert!(pending.is_none(), "{cell}: coalescing entry retired");
                let line = cache.borrow().peek(seg).map(|l| l.state);
                assert_eq!(line, bystander, "{cell}: only the request's own line goes");
                assert_eq!(tio.queue_depths(), (0, 0), "{cell}");
            }
        }
    }

    #[test]
    fn sessions_tag_requests_for_the_fair_queue() {
        let (tio, jb, map) = RigSpec::with_lines(40..44).build();
        jb.poke_segment(0, 0, &vec![1u8; 1 << 20]).unwrap();
        jb.poke_segment(0, 1, &vec![2u8; 1 << 20]).unwrap();
        let s1 = tio.session(1);
        let s2 = tio.session(2);
        let t1 = s1.enqueue_demand(0, map.tert_seg(0, 0));
        let t2 = s2.enqueue_demand(0, map.tert_seg(0, 1));
        tio.pump();
        assert!(t1.fetch_result().is_ok());
        assert!(t2.fetch_result().is_ok());
        let st = tio.stats();
        assert_eq!(st.tenant_admits, 2);
        assert_eq!(tio.tracer().tenant_admits(), 2, "admits reach the trace");
        assert!(
            tio.trace_findings().is_empty(),
            "tenant events satisfy tracecheck"
        );
    }

    #[test]
    fn coalesced_sessions_share_one_media_read() {
        let (tio, jb, map) = RigSpec::with_lines(40..44).build();
        jb.poke_segment(1, 0, &vec![3u8; 1 << 20]).unwrap();
        let seg = map.tert_seg(1, 0);
        let tickets: Vec<Ticket> = (0..5)
            .map(|t| tio.session(t).enqueue_demand(0, seg))
            .collect();
        tio.pump();
        let ready: Vec<SimTime> = tickets
            .iter()
            .map(|t| t.fetch_result().unwrap().1)
            .collect();
        assert!(ready.windows(2).all(|w| w[0] == w[1]));
        let st = tio.stats();
        assert_eq!(st.coalesced_fetches, 4, "five sessions, one media read");
        assert_eq!(st.demand_fetches, 1);
    }

    #[test]
    fn sessions_survive_reentrant_notifiers() {
        let (tio, jb, map) = RigSpec::with_lines(40..44).build();
        jb.poke_segment(0, 0, &vec![4u8; 1 << 20]).unwrap();
        jb.poke_segment(0, 2, &vec![5u8; 1 << 20]).unwrap();
        // A notifier that re-enters the façade mid-enqueue: reads queue
        // state and enqueues a prefetch from inside the demand path.
        // Before the Rc'd notifier cell this was the PR 3 double-borrow.
        let reentrant = Rc::clone(&tio);
        let side = map.tert_seg(0, 2);
        tio.set_stall_notifier(Box::new(move |ev| {
            if let StallEvent::HoldOn { at, .. } = ev {
                let _ = reentrant.queue_depths();
                reentrant.enqueue_prefetch(at, side);
            }
        }));
        let ticket = tio.session(9).enqueue_demand(0, map.tert_seg(0, 0));
        tio.pump();
        assert!(ticket.fetch_result().is_ok());
        assert!(
            tio.cache().borrow_mut().lookup(side, 1 << 40).is_some(),
            "the notifier's prefetch was served too"
        );
    }

    #[test]
    fn demand_fetch_hits_do_not_refetch() {
        let (tio, jb, map) = RigSpec::with_lines(40..44).build();
        let seg = map.tert_seg(0, 0);
        jb.poke_segment(0, 0, &vec![7u8; 1 << 20]).unwrap();
        let (_, t1) = tio.demand_fetch(0, seg).unwrap();
        assert!(t1 > 0);
        let (_, t2) = tio.demand_fetch(t1, seg).unwrap();
        assert_eq!(t2, t1, "cache hit must be free");
        assert_eq!(tio.stats().demand_fetches, 1);
    }

    #[test]
    fn fetch_phase_accounting_splits_read_and_fill() {
        let (tio, jb, map) = RigSpec::with_lines(40..44).build();
        jb.poke_segment(1, 3, &vec![1u8; 1 << 20]).unwrap();
        tio.demand_fetch(0, map.tert_seg(1, 3)).unwrap();
        let phases = tio.phases();
        // MO read of 1 MB ≈ 2.3 s; disk fill ≈ 1.05 s.
        assert!(phases.get(phase::FOOTPRINT_READ) > 2_000_000);
        assert!(phases.get(phase::CACHE_FILL) > 900_000);
        assert_eq!(phases.get(phase::FOOTPRINT_WRITE), 0);
    }

    #[test]
    fn eject_refuses_pinned_lines() {
        let (tio, _, map) = RigSpec::with_lines(40..42).build();
        let seg = map.tert_seg(0, 0);
        tio.cache()
            .borrow_mut()
            .allocate(seg, LineState::Staging, 0)
            .unwrap();
        assert!(!tio.eject(seg), "staging line must not be ejectable");
        tio.cache().borrow_mut().set_state(seg, LineState::Clean);
        assert!(tio.eject(seg));
        assert!(!tio.eject(seg), "already gone");
    }

    #[test]
    fn failed_fetch_releases_the_line() {
        let (tio, jb, map) = RigSpec::with_lines(40..41).build();
        jb.fail_volume(2);
        let seg = map.tert_seg(2, 0);
        assert!(tio.demand_fetch(0, seg).is_err());
        // The single line is free again for other segments.
        jb.poke_segment(3, 0, &vec![2u8; 1 << 20]).unwrap();
        assert!(tio.demand_fetch(0, map.tert_seg(3, 0)).is_ok());
    }

    #[test]
    fn copyout_requires_a_sealed_line() {
        let (tio, _, map) = RigSpec::with_lines(40..42).build();
        let seg = map.tert_seg(0, 0);
        // Absent line: Offline.
        assert!(tio.copy_out(0, seg).is_err());
    }

    #[test]
    fn transient_faults_retry_then_surface_unavailable() {
        let (tio, jb, map) = RigSpec::with_lines(40..44).build();
        jb.poke_segment(0, 0, &vec![5u8; 1 << 20]).unwrap();
        let plan = FaultPlan::new(FaultConfig {
            transient_read_p: 1.0,
            ..FaultConfig::none(42)
        });
        jb.set_fault_plan(plan);
        tio.set_recovery_policy(RecoveryPolicy {
            max_retries: 2,
            backoff_base: 1000,
            quarantine_after: 99,
        });
        let seg = map.tert_seg(0, 0);
        let err = tio.demand_fetch(0, seg).unwrap_err();
        // Pinned while the trail was a step list of its own (ISSUE 21);
        // it is now the request's slice of the fault log.
        assert_eq!(
            err.to_string(),
            "tertiary segment 16777207 unavailable after 3 recovery steps; \
             t=2000 v0/s0 unrecoverable read error at block 0: retry #1 after 1000; \
             t=3000 v0/s0 unrecoverable read error at block 0: retry #2 after 2000; \
             t=5000 v0/s0 unrecoverable read error at block 0: gave up"
        );
        match err {
            HlError::SegmentUnavailable { seg: s, trail } => {
                assert_eq!(s, seg);
                // Three faults, two backoff retries between them, then
                // the policy gave up — and nothing else is in the log.
                let kinds: Vec<FaultKind> = trail.iter().map(FaultEvent::kind).collect();
                use FaultKind::{PermanentLoss, ReadFault, Retry};
                assert_eq!(
                    kinds,
                    [ReadFault, Retry, ReadFault, Retry, ReadFault, PermanentLoss]
                );
                assert_eq!(trail, tio.fault_log().events());
            }
            e => panic!("wrong error: {e:?}"),
        }
        let st = tio.stats();
        assert_eq!(st.retries, 2);
        assert_eq!(st.permanent_losses, 1);
        assert!(!tio.fault_log().is_empty());
    }

    #[test]
    fn transient_faults_recover_within_the_retry_budget() {
        let (tio, jb, map) = RigSpec::with_lines(40..41).build();
        let plan = FaultPlan::new(FaultConfig {
            transient_read_p: 0.5,
            ..FaultConfig::none(7)
        });
        jb.set_fault_plan(plan);
        tio.set_recovery_policy(RecoveryPolicy {
            max_retries: 30,
            backoff_base: 1000,
            quarantine_after: u32::MAX,
        });
        let mut t = 0;
        for slot in 0..8 {
            jb.poke_segment(0, slot, &vec![slot as u8; 1 << 20])
                .unwrap();
            let seg = map.tert_seg(0, slot);
            let (_, end) = tio.demand_fetch(t, seg).expect("retries recover");
            t = end;
            tio.eject(seg);
        }
        assert!(tio.stats().retries >= 1, "p=0.5 must fault at least once");
        assert_eq!(tio.stats().permanent_losses, 0);
    }

    #[test]
    fn media_failure_fails_over_to_replica_and_quarantines() {
        let (tio, jb, map) = RigSpec::with_lines(40..44).build();
        let seg = map.tert_seg(0, 0);
        let data = vec![9u8; 1 << 20];
        jb.poke_segment(0, 0, &data).unwrap();
        jb.poke_segment(1, 5, &data).unwrap();
        tio.replicas().borrow_mut().add(seg, 1, 5);
        let plan = FaultPlan::new(FaultConfig::none(3));
        plan.fail_volume_at(0, 0);
        jb.set_fault_plan(plan);

        let (disk_seg, _end) = tio.demand_fetch(0, seg).expect("replica serves");
        assert_eq!(tio.stats().failovers, 1);
        assert_eq!(tio.stats().quarantines, 1);
        assert_eq!(tio.quarantined_volumes(), vec![0]);
        // The bytes that landed in the cache line are the replica's.
        let mut back = vec![0u8; 1 << 20];
        tio.disks_handle()
            .peek(map.seg_base(disk_seg) as u64, &mut back)
            .unwrap();
        assert_eq!(back, data);
        let log = tio.fault_log();
        assert!(log
            .events()
            .iter()
            .any(|e| matches!(e, FaultEvent::Quarantine { vol: 0, .. })));
        assert!(log
            .events()
            .iter()
            .any(|e| matches!(e, FaultEvent::Failover { .. })));
    }

    #[test]
    fn scrub_restores_the_copy_count_after_a_volume_loss() {
        let (tio, jb, map) = RigSpec::with_lines(40..44).build();
        tio.set_replication(1);
        let seg = map.tert_seg(0, 0);
        let data = vec![6u8; 1 << 20];
        jb.poke_segment(0, 0, &data).unwrap();
        jb.poke_segment(1, 0, &data).unwrap();
        tio.replicas().borrow_mut().add(seg, 1, 0);
        {
            let tseg = tio.tseg();
            let mut t = tseg.borrow_mut();
            t.seg_mut(seg).avail_bytes = 1 << 20;
            t.volume_mut(0).next_slot = 1;
            t.volume_mut(1).next_slot = 1;
        }
        // Lose the primary's volume mid-run; the fetch fails over.
        let plan = FaultPlan::new(FaultConfig::none(5));
        plan.fail_volume_at(0, 0);
        jb.set_fault_plan(plan);
        let (_, end) = tio.demand_fetch(0, seg).expect("replica serves");
        assert_eq!(tio.quarantined_volumes(), vec![0]);

        // Scrub: one surviving copy, target is 1 + replication = 2.
        let report = tio.scrub(end);
        assert_eq!(report.copies_made, 1);
        assert!(report.unrecoverable.is_empty());
        assert_eq!(tio.stats().scrub_copies, 1);
        assert!(tio
            .fault_log()
            .events()
            .iter()
            .any(|e| matches!(e, FaultEvent::ScrubCopy { .. })));
        // The set is healthy again: a second pass writes nothing.
        let report2 = tio.scrub(report.end);
        assert_eq!(report2.copies_made, 0);
        // And the fresh copy actually serves reads.
        tio.eject(seg);
        let homes = tio.replicas().borrow().homes(&map, seg);
        assert_eq!(homes.len(), 3, "primary + old replica + scrub copy");
        assert!(tio.demand_fetch(report2.end, seg).is_ok());
    }

    #[test]
    fn cached_lines_serve_after_every_copy_is_lost() {
        let (tio, jb, map) = RigSpec::with_lines(40..44).build();
        let seg = map.tert_seg(2, 1);
        jb.poke_segment(2, 1, &vec![3u8; 1 << 20]).unwrap();
        let (_, end) = tio.demand_fetch(0, seg).unwrap();
        let plan = FaultPlan::new(FaultConfig::none(9));
        plan.fail_volume_at(2, 0);
        jb.set_fault_plan(plan);
        // Degraded mode: the cached line still serves.
        assert!(tio.demand_fetch(end, seg).is_ok());
        // Once ejected, the loss surfaces as a typed unavailability.
        tio.eject(seg);
        let err = tio.demand_fetch(end, seg).unwrap_err();
        assert!(matches!(err, HlError::SegmentUnavailable { .. }));
        assert_eq!(tio.stats().permanent_losses, 1);
    }

    #[test]
    fn copy_out_of_an_unsealed_line_errors_instead_of_panicking() {
        let (tio, _, map) = RigSpec::with_lines(40..42).build();
        let seg = map.tert_seg(0, 0);
        tio.cache()
            .borrow_mut()
            .allocate(seg, LineState::Staging, 0)
            .unwrap();
        assert_eq!(tio.copy_out(0, seg), Err(DevError::Offline));
    }

    #[test]
    fn queue_waits_are_measured_not_charged() {
        let (tio, jb, map) = RigSpec::with_lines(40..44).build();
        jb.poke_segment(0, 2, &vec![4u8; 1 << 20]).unwrap();
        let (_, end) = tio.demand_fetch(0, map.tert_seg(0, 2)).unwrap();
        let st = tio.stats();
        // One dispatch hop of residency, measured off the queue.
        assert_eq!(st.wait_demand, DISPATCH_CPU);
        assert_eq!(st.reqq_hwm, 1);
        assert_eq!(st.devq_hwm, 1);
        assert_eq!(st.queued_requests, 1);
        // Queuing shows up in the Table 4 phases, and it is tiny
        // relative to the device work.
        let q = tio.phases().get(phase::QUEUING);
        assert_eq!(q, DISPATCH_CPU);
        assert!(q * 20 < end, "queuing must be a negligible share");
        // The trace records the whole request history: one demand span,
        // opened and successfully closed.
        use hl_trace::{Class, EventKind};
        let events = tio.tracer().events();
        let opened: Vec<u64> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::SpanOpen {
                    span,
                    class: Class::Demand,
                    ..
                } => Some(span),
                _ => None,
            })
            .collect();
        assert_eq!(opened.len(), 1);
        let closed: Vec<(u64, bool)> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::SpanClose { span, ok } => Some((span, ok)),
                _ => None,
            })
            .collect();
        assert_eq!(closed, [(opened[0], true)]);
    }
}
