//! Deterministic event tracing for the HighLight reproduction.
//!
//! The paper's evaluation (§7, Tables 2–6) is about *where time goes* in
//! the storage hierarchy — device transfers, robot exchanges, queue
//! residency. This crate records that history as a structured stream of
//! events keyed on simulated time: request *spans* (open at enqueue,
//! close at completion), per-op queue residency, cache-line state
//! transitions, device-op intervals, and injected faults. It follows
//! requests, not the simulator: the scheduler that steps the engine's
//! actors records nothing here. The stream is deterministic: with a
//! fixed seed the same run emits byte-identical renders and equal FNV
//! digests, so the whole observed history — not just dispatch order —
//! replays exactly.
//!
//! The crate sits at the bottom of the workspace graph (it depends on
//! nothing), so the device models and the engine can both emit into one
//! [`Tracer`] without dependency cycles. Timestamps are raw `u64`
//! microseconds (the same unit as `hl_sim::time::SimTime`). For the same
//! reason it holds the workspace's one fixed integer hasher,
//! [`BlockHashBuilder`]: the recorder and the checker key their tables
//! with it, and `hl_vdev::backing` re-exports it for every crate above.
//!
//! The recorder folds each event's line into a running digest without
//! going through `core::fmt`, bumps the derived accumulators, and feeds
//! the event to an invariant checker; it keeps the event itself only if
//! a caller asked ([`Tracer::retain_events`]). [`check::tracecheck`]
//! finishes the check: spans open and close exactly once, cache lines
//! follow the legal state machine, queue residency sums reconcile with
//! the engine's counters, coalesced fetches join a live parent span, and
//! device ops never overlap beyond the admitted concurrency.

pub mod check;

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

use check::Checker;
pub use check::{tracecheck, Expectations, Finding};

/// Simulated time in microseconds (mirrors `hl_sim::time::SimTime`
/// without depending on it).
pub type TraceTime = u64;

/// Request classes, in the engine's dispatch-priority order. Mirrors the
/// engine's `ReqClass` so traces render the same labels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    /// A reader is stalled on this fetch.
    Demand = 0,
    /// Unilateral ejection of a clean cache line.
    Eject = 1,
    /// Copy-out of a sealed staging segment.
    CopyOut = 2,
    /// Speculative fetch; nobody is waiting.
    Prefetch = 3,
    /// Background re-replication pass.
    Scrub = 4,
}

impl Class {
    /// Every class, in priority order.
    pub const ALL: [Class; 5] = [
        Class::Demand,
        Class::Eject,
        Class::CopyOut,
        Class::Prefetch,
        Class::Scrub,
    ];

    /// Short label used by renders.
    pub fn label(self) -> &'static str {
        match self {
            Class::Demand => "demand",
            Class::Eject => "eject",
            Class::CopyOut => "copyout",
            Class::Prefetch => "prefetch",
            Class::Scrub => "scrub",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// Cache-line states as seen by the trace. `Empty` is the implicit state
/// of any segment with no line; the others mirror the cache's
/// `LineState`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineTag {
    /// No line holds the segment.
    Empty,
    /// Claimed by an in-flight fetch; pinned until the fill lands.
    Filling,
    /// Being assembled by the migrator (dirty).
    Staging,
    /// Sealed, awaiting copy-out (dirty, pinned).
    DirtyWait,
    /// Read-only cached copy; discardable at any time.
    Clean,
}

impl LineTag {
    /// Short label used by renders.
    pub fn label(self) -> &'static str {
        match self {
            LineTag::Empty => "empty",
            LineTag::Filling => "filling",
            LineTag::Staging => "staging",
            LineTag::DirtyWait => "dirtywait",
            LineTag::Clean => "clean",
        }
    }
}

/// Which physical device lane a [`EventKind::DevIo`] interval occupied.
///
/// Jukebox media transfers are tagged with the drive that performed
/// them; disk-farm-side staging traffic (cache fills, copy-out staging
/// reads) rides the dedicated staging lane. The tightened tracecheck
/// invariant is per-lane: intervals on one drive lane must never
/// overlap, and at most `#drives` drive-lane intervals may be in flight
/// at once (the staging lane is exempt — the disk's own arm serializes
/// it in simulated time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    /// A jukebox drive, by index.
    Drive(u32),
    /// The disk-farm staging lane.
    Staging,
}

impl Lane {
    /// Writes the render label: `d0`, `d1`, …, or `st`.
    fn write(self, out: &mut impl LineSink) {
        match self {
            Lane::Drive(d) => {
                out.text("d");
                out.num(d.into());
            }
            Lane::Staging => out.text("st"),
        }
    }

    /// Slot in the recorder's per-lane sums: staging first, then drives.
    fn idx(self) -> usize {
        match self {
            Lane::Staging => 0,
            Lane::Drive(d) => d as usize + 1,
        }
    }
}

/// The engine's two bounded queues.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueId {
    /// The priority request queue the service process drains.
    Request,
    /// The FIFO device queue the I/O server drains.
    Device,
}

impl QueueId {
    /// Short label used by renders.
    pub fn label(self) -> &'static str {
        match self {
            QueueId::Request => "reqq",
            QueueId::Device => "devq",
        }
    }

    fn idx(self) -> usize {
        match self {
            QueueId::Request => 0,
            QueueId::Device => 1,
        }
    }
}

/// What the tertiary recovery policy (§10) did about a media fault, as
/// [`EventKind::Recovery`] carries it. A copy is `(volume, slot)`. The
/// device's own error is not repeated: an injected fault has its own
/// [`EventKind::Fault`] line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryStep {
    /// Reading a copy failed.
    ReadFault {
        /// The copy read.
        copy: (u32, u32),
    },
    /// A backoff retry of the copy whose read just failed; its delay is
    /// the policy's backoff for `attempt`.
    Retry {
        /// The copy retried.
        copy: (u32, u32),
        /// 1-based attempt number.
        attempt: u32,
    },
    /// Failover to the next home; the copy left is the one whose read
    /// fault precedes it.
    Failover {
        /// The copy tried next.
        copy: (u32, u32),
    },
    /// A volume was quarantined: no further reads or writes target it.
    Quarantine {
        /// The quarantined volume.
        vol: u32,
        /// Strikes against it when it was quarantined.
        failures: u32,
    },
    /// A scrub pass wrote a fresh replica.
    ScrubCopy {
        /// The surviving copy read.
        from: (u32, u32),
        /// The new copy written.
        to: (u32, u32),
    },
    /// Every copy was tried and none could be read.
    PermanentLoss,
    /// A replica or scrub write failed outright (not end-of-medium): the
    /// slot is burned and holds no copy.
    WriteFault {
        /// The copy that was being written.
        copy: (u32, u32),
    },
    /// A copy-out hit end-of-medium; its volume was marked full.
    EndOfMedium {
        /// The copy that did not fit.
        copy: (u32, u32),
    },
}

impl RecoveryStep {
    /// The step's position in [`RECOVERY_TAGS`].
    fn index(&self) -> usize {
        match self {
            RecoveryStep::ReadFault { .. } => 0,
            RecoveryStep::Retry { .. } => 1,
            RecoveryStep::Failover { .. } => 2,
            RecoveryStep::Quarantine { .. } => 3,
            RecoveryStep::ScrubCopy { .. } => 4,
            RecoveryStep::PermanentLoss => 5,
            RecoveryStep::WriteFault { .. } => 6,
            RecoveryStep::EndOfMedium { .. } => 7,
        }
    }

    /// The volumes the step names.
    fn volumes(&self) -> impl Iterator<Item = u32> {
        let (a, b) = match *self {
            RecoveryStep::ReadFault { copy }
            | RecoveryStep::Retry { copy, .. }
            | RecoveryStep::Failover { copy }
            | RecoveryStep::WriteFault { copy }
            | RecoveryStep::EndOfMedium { copy } => (Some(copy.0), None),
            RecoveryStep::Quarantine { vol, .. } => (Some(vol), None),
            RecoveryStep::ScrubCopy { from, to } => (Some(from.0), Some(to.0)),
            RecoveryStep::PermanentLoss => (None, None),
        };
        a.into_iter().chain(b)
    }
}

/// Recovery step tags, in [`RecoveryStep`] order: the word each step's
/// line shows, and what [`Tracer::recoveries`] counts by.
const RECOVERY_TAGS: [&str; 8] = [
    "rfault",
    "retry",
    "failover",
    "quarantine",
    "scrub",
    "loss",
    "wfault",
    "eom",
];

/// Writes a copy as `v<vol>/s<slot>`.
fn write_copy(out: &mut impl LineSink, (vol, slot): (u32, u32)) {
    out.text("v");
    out.num(vol.into());
    out.text("/s");
    out.num(slot.into());
}

/// One traced occurrence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A request entered the engine: its span opens.
    SpanOpen {
        /// Fresh span id.
        span: u64,
        /// Request class at enqueue.
        class: Class,
        /// Target tertiary segment (`None` for whole-device work).
        seg: Option<u64>,
    },
    /// The request completed (its ticket resolved): the span closes.
    SpanClose {
        /// The span being closed.
        span: u64,
        /// Whether the outcome was a success.
        ok: bool,
    },
    /// A coalesced fetch joined an in-flight parent span.
    Join {
        /// The live parent span.
        span: u64,
        /// The joiner's class.
        class: Class,
    },
    /// Measured queue residency of one op: enqueue to device start.
    Queuing {
        /// The op's span.
        span: u64,
        /// The op's class when serviced.
        class: Class,
        /// Enqueue time.
        from: TraceTime,
        /// Device start time.
        to: TraceTime,
    },
    /// A queue's depth after a push (the recorder keeps the high-water
    /// mark).
    QueueDepth {
        /// Which queue.
        queue: QueueId,
        /// Depth after the push.
        depth: u32,
    },
    /// A cache line changed state.
    CacheState {
        /// The tertiary segment keyed to the line.
        seg: u64,
        /// State before.
        from: LineTag,
        /// State after.
        to: LineTag,
    },
    /// A staging line was re-keyed to a new tertiary segment
    /// (end-of-medium relocation): the new segment inherits the old
    /// one's state.
    CacheRekey {
        /// Old tertiary segment.
        old: u64,
        /// New tertiary segment.
        new: u64,
    },
    /// A device operation interval the I/O server admitted.
    DevIo {
        /// The drive (or staging) lane the op occupied.
        lane: Lane,
        /// Op start.
        start: TraceTime,
        /// Op end.
        end: TraceTime,
    },
    /// An injected fault or crash fired.
    Fault {
        /// Description of the injection.
        label: String,
    },
    /// Free-form breadcrumb (migrator, prefetcher, cleaner, workload).
    Mark {
        /// The breadcrumb.
        label: String,
    },
    /// An I/O-server lane went down (hard fault or watchdog timeout).
    DriveDown {
        /// The failed drive lane.
        drive: u32,
    },
    /// A quarantined lane's health probe succeeded: it rejoins the pool
    /// as a hot spare.
    DriveUp {
        /// The recovered drive lane.
        drive: u32,
    },
    /// A per-op watchdog deadline expired on an in-flight device op.
    WatchdogFire {
        /// The lane whose op timed out.
        drive: u32,
        /// The span of the orphaned request.
        span: u64,
    },
    /// An orphaned device op was pushed back into the shared device
    /// queue for a surviving lane to pick up.
    Redispatch {
        /// The span of the re-dispatched request.
        span: u64,
        /// The lane that abandoned the op.
        from_drive: u32,
    },
    /// The per-tenant fair queue admitted a tagged request for dispatch
    /// (weighted fair selection within its class).
    TenantAdmit {
        /// The admitted tenant.
        tenant: u32,
        /// The request's class at dispatch.
        class: Class,
        /// The admitted request's span.
        span: u64,
    },
    /// The per-tenant fair queue held a tagged request back: an older
    /// eligible request was passed over in favour of a fairer tenant,
    /// or background work was throttled to keep device-queue headroom
    /// for demand traffic.
    TenantThrottle {
        /// The tenant whose request was held back.
        tenant: u32,
        /// The held request's class.
        class: Class,
        /// The held request's span.
        span: u64,
    },
    /// A step of the tertiary recovery policy on one segment.
    Recovery {
        /// The tertiary segment being read, copied or written (for a
        /// quarantine, the one whose read struck the volume).
        seg: u64,
        /// What was done.
        step: RecoveryStep,
    },
}

/// One recorded event: a sequence number (emission order), the simulated
/// time it describes, and its kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Emission order, starting at 0.
    pub seq: u64,
    /// Simulated time the event describes. Not necessarily monotone in
    /// `seq`: each actor emits at its own local time.
    pub at: TraceTime,
    /// What happened.
    pub kind: EventKind,
}

impl EventKind {
    /// The kind's position in [`KIND_TAGS`].
    fn index(&self) -> usize {
        match self {
            EventKind::SpanOpen { .. } => 0,
            EventKind::SpanClose { .. } => 1,
            EventKind::Join { .. } => 2,
            EventKind::Queuing { .. } => 3,
            EventKind::QueueDepth { .. } => 4,
            EventKind::CacheState { .. } => 5,
            EventKind::CacheRekey { .. } => 6,
            EventKind::DevIo { .. } => 7,
            EventKind::Fault { .. } => 8,
            EventKind::Mark { .. } => 9,
            EventKind::DriveDown { .. } => 10,
            EventKind::DriveUp { .. } => 11,
            EventKind::WatchdogFire { .. } => 12,
            EventKind::Redispatch { .. } => 13,
            EventKind::TenantAdmit { .. } => 14,
            EventKind::TenantThrottle { .. } => 15,
            EventKind::Recovery { .. } => 16,
        }
    }
}

/// Short kind tags (for `--trace` summaries), in [`EventKind`] order.
const KIND_TAGS: [&str; 17] = [
    "span_open",
    "span_close",
    "join",
    "queuing",
    "queue_depth",
    "cache_state",
    "cache_rekey",
    "dev_io",
    "fault",
    "mark",
    "drive_down",
    "drive_up",
    "watchdog_fire",
    "redispatch",
    "tenant_admit",
    "tenant_throttle",
    "recovery",
];

/// Where [`Event::write_line`] puts a line: the running digest or a
/// `String`. Three calls cover every byte a line holds, so neither sink
/// goes through `core::fmt`.
trait LineSink {
    /// Appends `s` as it is.
    fn text(&mut self, s: &str);
    /// Appends `v` in decimal.
    fn num(&mut self, v: u64);
    /// Appends `v` in decimal, zero-padded to at least six digits.
    fn seq(&mut self, v: u64);
}

/// The two decimal digits of every value below 100, `00` to `99`.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut v = 0;
    while v < 100 {
        pairs[2 * v] = b'0' + (v / 10) as u8;
        pairs[2 * v + 1] = b'0' + (v % 10) as u8;
        v += 1;
    }
    pairs
};

/// The decimal digits of `v`, zero-padded to at least `width` (1 to 20),
/// written at the end of `buf`: two digits per divide. Zero is all pad.
fn decimal(mut v: u64, width: usize, buf: &mut [u8; 20]) -> &[u8] {
    let mut i = buf.len();
    while v >= 10 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v > 0 {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    let start = i.min(buf.len() - width);
    buf[start..i].fill(b'0');
    &buf[start..]
}

impl LineSink for String {
    fn text(&mut self, s: &str) {
        self.push_str(s);
    }

    fn num(&mut self, v: u64) {
        self.extend(decimal(v, 1, &mut [0; 20]).iter().map(|&b| b as char));
    }

    fn seq(&mut self, v: u64) {
        self.extend(decimal(v, 6, &mut [0; 20]).iter().map(|&b| b as char));
    }
}

/// FNV-1a as a [`LineSink`]: folds whatever is written into it.
struct FnvSink(u64);

impl Default for FnvSink {
    fn default() -> FnvSink {
        FnvSink(FNV_OFFSET)
    }
}

impl FnvSink {
    fn bytes(&mut self, b: &[u8]) {
        self.0 = b.iter().fold(self.0, |h, &b| fnv_mix(h, b));
    }
}

impl LineSink for FnvSink {
    fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    fn num(&mut self, v: u64) {
        self.bytes(decimal(v, 1, &mut [0; 20]));
    }

    fn seq(&mut self, v: u64) {
        self.bytes(decimal(v, 6, &mut [0; 20]));
    }
}

impl Event {
    /// Writes the stable single-line text form into `out`. This is the
    /// only renderer: [`Event::render`] collects it into a `String` and
    /// the recorder streams it into the running digest, so the digest
    /// covers exactly the bytes a render shows. Byte-identical per seed.
    fn write_line(&self, out: &mut impl LineSink) {
        out.text("#");
        out.seq(self.seq);
        out.text(" t");
        out.num(self.at);
        match &self.kind {
            EventKind::SpanOpen { span, class, seg } => {
                out.text(" s+ ");
                out.num(*span);
                out.text(" ");
                out.text(class.label());
                match seg {
                    Some(s) => {
                        out.text(" seg ");
                        out.num(*s);
                    }
                    None => out.text(" seg -"),
                }
            }
            EventKind::SpanClose { span, ok } => {
                out.text(" s- ");
                out.num(*span);
                out.text(if *ok { " ok" } else { " err" });
            }
            EventKind::Join { span, class } => {
                out.text(" join ");
                out.num(*span);
                out.text(" ");
                out.text(class.label());
            }
            EventKind::Queuing {
                span,
                class,
                from,
                to,
            } => {
                out.text(" qres ");
                out.num(*span);
                out.text(" ");
                out.text(class.label());
                out.text(" ");
                out.num(*from);
                out.text("..");
                out.num(*to);
            }
            EventKind::QueueDepth { queue, depth } => {
                out.text(" qdep ");
                out.text(queue.label());
                out.text(" ");
                out.num((*depth).into());
            }
            EventKind::CacheState { seg, from, to } => {
                out.text(" line ");
                out.num(*seg);
                out.text(" ");
                out.text(from.label());
                out.text(">");
                out.text(to.label());
            }
            EventKind::CacheRekey { old, new } => {
                out.text(" rekey ");
                out.num(*old);
                out.text(">");
                out.num(*new);
            }
            EventKind::DevIo { lane, start, end } => {
                out.text(" dev ");
                lane.write(out);
                out.text(" ");
                out.num(*start);
                out.text("..");
                out.num(*end);
            }
            EventKind::Fault { label } => {
                out.text(" fault ");
                out.text(label);
            }
            EventKind::Mark { label } => {
                out.text(" mark ");
                out.text(label);
            }
            EventKind::DriveDown { drive } => {
                out.text(" ddn d");
                out.num((*drive).into());
            }
            EventKind::DriveUp { drive } => {
                out.text(" dup d");
                out.num((*drive).into());
            }
            EventKind::WatchdogFire { drive, span } => {
                out.text(" wdog d");
                out.num((*drive).into());
                out.text(" ");
                out.num(*span);
            }
            EventKind::Redispatch { span, from_drive } => {
                out.text(" redisp ");
                out.num(*span);
                out.text(" d");
                out.num((*from_drive).into());
            }
            EventKind::TenantAdmit {
                tenant,
                class,
                span,
            } => {
                out.text(" tadm n");
                out.num((*tenant).into());
                out.text(" ");
                out.text(class.label());
                out.text(" ");
                out.num(*span);
            }
            EventKind::TenantThrottle {
                tenant,
                class,
                span,
            } => {
                out.text(" tthr n");
                out.num((*tenant).into());
                out.text(" ");
                out.text(class.label());
                out.text(" ");
                out.num(*span);
            }
            EventKind::Recovery { seg, step } => {
                out.text(" rcv ");
                out.num(*seg);
                out.text(" ");
                out.text(RECOVERY_TAGS[step.index()]);
                match *step {
                    RecoveryStep::ReadFault { copy }
                    | RecoveryStep::Failover { copy }
                    | RecoveryStep::WriteFault { copy }
                    | RecoveryStep::EndOfMedium { copy } => {
                        out.text(" ");
                        write_copy(out, copy);
                    }
                    RecoveryStep::Retry { copy, attempt } => {
                        out.text(" ");
                        write_copy(out, copy);
                        out.text(" #");
                        out.num(attempt.into());
                    }
                    RecoveryStep::Quarantine { vol, failures } => {
                        out.text(" v");
                        out.num(vol.into());
                        out.text(" after ");
                        out.num(failures.into());
                    }
                    RecoveryStep::ScrubCopy { from, to } => {
                        out.text(" ");
                        write_copy(out, from);
                        out.text(">");
                        write_copy(out, to);
                    }
                    RecoveryStep::PermanentLoss => {}
                }
            }
        }
    }

    /// Stable single-line text render, the bytes the digest covers.
    pub fn render(&self) -> String {
        let mut line = String::new();
        self.write_line(&mut line);
        line
    }
}

/// The recorder behind a [`Tracer`]: the running digest, the derived
/// accumulators that downstream counters are built from, the checker
/// fed every event as it is emitted, and — only once a caller asks —
/// the event stream itself.
#[derive(Default)]
struct Recorder {
    /// The events emitted since [`Tracer::retain_events`]; `None` until
    /// a caller asks.
    kept: Option<Vec<Event>>,
    next_seq: u64,
    next_span: u64,
    /// Running FNV-1a over every rendered line (`\n`-terminated).
    digest: FnvSink,
    /// Per-class queue-residency sums (from [`EventKind::Queuing`]).
    wait: [TraceTime; 5],
    /// Per-class queue residencies as `residency -> count` (from
    /// [`EventKind::Queuing`]): a repeated value costs no allocation.
    /// Hashed; [`Tracer::residencies`] sorts when it is read.
    residency: [HashMap<TraceTime, u64, BlockHashBuilder>; 5],
    /// Per-queue depth high-water marks (from [`EventKind::QueueDepth`]).
    hwm: [u32; 2],
    /// Spans opened per class.
    opened: [u64; 5],
    /// Events emitted per kind, in [`KIND_TAGS`] order.
    kinds: [u64; 17],
    /// [`EventKind::Recovery`] events per step, in [`RECOVERY_TAGS`]
    /// order.
    recoveries: [u64; 8],
    /// `policy`-prefixed [`EventKind::Mark`] events emitted (see
    /// [`Tracer::policy_decision`]).
    policy_decisions: u64,
    /// Per-lane `(ops, busy time)` sums of [`EventKind::DevIo`] events,
    /// indexed by [`Lane::idx`].
    lane_io: Vec<(u64, TraceTime)>,
    /// The independent reading [`tracecheck`] finishes.
    checker: Checker,
}

impl Recorder {
    /// Digests the event, feeds it to the checker and, if a caller asked,
    /// keeps it. The line is streamed into the digest, never built.
    fn emit(&mut self, at: TraceTime, kind: EventKind) {
        let ev = Event {
            seq: self.next_seq,
            at,
            kind,
        };
        self.next_seq += 1;
        self.kinds[ev.kind.index()] += 1;
        ev.write_line(&mut self.digest);
        self.digest.text("\n");
        self.checker.feed(&ev);
        if let Some(kept) = &mut self.kept {
            kept.push(ev);
        }
    }

    fn kept(&self) -> &[Event] {
        self.kept
            .as_deref()
            .expect("this tracer keeps no events: call Tracer::retain_events before emitting")
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv_mix(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
}

/// [`Hasher`] for small trusted integer keys: SplitMix64-style finalizer
/// over the written words. Deterministic across runs and processes, so
/// no table's layout — nor the allocator's behaviour — differs run to
/// run; the keys are simulator-internal integers, with no HashDoS
/// surface. No output may depend on that layout: a debug build starts
/// each hasher from the thread's [`set_hash_salt`] value (0 unless a
/// test sets it), and `tests/hash_salt.rs` runs pinned work under other
/// salts. A release build reads no salt.
pub struct BlockHasher(u64);

impl Default for BlockHasher {
    #[inline]
    fn default() -> BlockHasher {
        #[cfg(debug_assertions)]
        return BlockHasher(HASH_SALT.with(std::cell::Cell::get));
        #[cfg(not(debug_assertions))]
        BlockHasher(0)
    }
}

#[cfg(debug_assertions)]
thread_local! {
    static HASH_SALT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Test hook (debug builds only): every [`BlockHasher`] this thread
/// builds from now on starts from `salt`, so each fixed-mixer table
/// lays its keys out differently. Set it before building the tables
/// that are to use it: a table hashes with the salt of the moment.
#[cfg(debug_assertions)]
pub fn set_hash_salt(salt: u64) {
    HASH_SALT.with(|s| s.set(salt));
}

impl Hasher for BlockHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        let mut x = self.0 ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        self.0 = x ^ (x >> 27);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (FNV-1a): hit for non-integer keys and for an
        // enum's discriminant, which `derive(Hash)` writes as a `usize`.
        self.0 = bytes
            .iter()
            .fold(self.0 ^ FNV_OFFSET, |h, &b| fnv_mix(h, b));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Zero-state [`std::hash::BuildHasher`] for [`BlockHasher`].
pub type BlockHashBuilder = BuildHasherDefault<BlockHasher>;

/// A cloneable handle onto a shared [trace recorder](Tracer::new). Every
/// layer a request passes through (engine, cache, devices) holds a clone
/// and emits into the same digested, checked event stream.
#[derive(Clone, Default)]
pub struct Tracer {
    rec: Rc<RefCell<Recorder>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let r = self.rec.borrow();
        let kept = r.kept.as_ref().map(Vec::len);
        write!(f, "Tracer {{ events: {}, kept: {kept:?} }}", r.next_seq)
    }
}

impl Tracer {
    /// A fresh tracer. It digests, accumulates and checks every event,
    /// and keeps none of them until [`Self::retain_events`] is called.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Keeps every event emitted from now on, for [`Self::events`] and
    /// [`Self::render_text`]. Tests and goldens call it right after
    /// building their rig, before anything is emitted; nothing else
    /// keeps the stream.
    pub fn retain_events(&self) {
        self.rec.borrow_mut().kept.get_or_insert_with(Vec::new);
    }

    // ------------------------------------------------------------------
    // Emission
    // ------------------------------------------------------------------

    /// Opens a request span, returning its fresh id.
    pub fn open_span(&self, at: TraceTime, class: Class, seg: Option<u64>) -> u64 {
        let mut r = self.rec.borrow_mut();
        let span = r.next_span;
        r.next_span += 1;
        r.opened[class.idx()] += 1;
        r.emit(at, EventKind::SpanOpen { span, class, seg });
        span
    }

    /// Closes a span (the request's ticket resolved).
    pub fn close_span(&self, at: TraceTime, span: u64, ok: bool) {
        self.rec
            .borrow_mut()
            .emit(at, EventKind::SpanClose { span, ok });
    }

    /// Records a coalesced fetch joining the in-flight parent `span`.
    pub fn join(&self, at: TraceTime, span: u64, class: Class) {
        self.rec
            .borrow_mut()
            .emit(at, EventKind::Join { span, class });
    }

    /// Records one op's measured queue residency (`from` = enqueue,
    /// `to` = device start) and accumulates it per class. A backwards
    /// interval (which [`tracecheck`] reports) counts as zero.
    pub fn queuing(&self, at: TraceTime, span: u64, class: Class, from: TraceTime, to: TraceTime) {
        let mut r = self.rec.borrow_mut();
        let residency = to.saturating_sub(from);
        r.wait[class.idx()] = r.wait[class.idx()].saturating_add(residency);
        *r.residency[class.idx()].entry(residency).or_insert(0) += 1;
        r.emit(
            at,
            EventKind::Queuing {
                span,
                class,
                from,
                to,
            },
        );
    }

    /// Records a queue's depth after a push (maintains the HWM).
    pub fn queue_depth(&self, at: TraceTime, queue: QueueId, depth: u32) {
        let mut r = self.rec.borrow_mut();
        r.hwm[queue.idx()] = r.hwm[queue.idx()].max(depth);
        r.emit(at, EventKind::QueueDepth { queue, depth });
    }

    /// Records a cache-line state transition.
    pub fn cache_state(&self, at: TraceTime, seg: u64, from: LineTag, to: LineTag) {
        self.rec
            .borrow_mut()
            .emit(at, EventKind::CacheState { seg, from, to });
    }

    /// Records a staging-line re-key (end-of-medium relocation).
    pub fn cache_rekey(&self, at: TraceTime, old: u64, new: u64) {
        self.rec
            .borrow_mut()
            .emit(at, EventKind::CacheRekey { old, new });
    }

    /// Records an admitted device-op interval on `lane` and accumulates
    /// it there: one op and its duration.
    pub fn dev_io(&self, lane: Lane, start: TraceTime, end: TraceTime) {
        let mut r = self.rec.borrow_mut();
        let i = lane.idx();
        if r.lane_io.len() <= i {
            r.lane_io.resize(i + 1, (0, 0));
        }
        let (ops, busy) = &mut r.lane_io[i];
        *ops += 1;
        *busy = busy.saturating_add(end.saturating_sub(start));
        r.emit(start, EventKind::DevIo { lane, start, end });
    }

    /// Records an injected fault or crash.
    pub fn fault(&self, at: TraceTime, label: String) {
        self.rec.borrow_mut().emit(at, EventKind::Fault { label });
    }

    /// Records a free-form breadcrumb.
    pub fn mark(&self, at: TraceTime, label: String) {
        self.rec.borrow_mut().emit(at, EventKind::Mark { label });
    }

    /// Records a migration/cleaning policy decision as a structured
    /// `policy <name>: <detail>` mark. Keeping the payload inside a
    /// [`EventKind::Mark`] means the golden-trace format, tracecheck
    /// grammar, and digests are untouched — policy-annotated runs stay
    /// byte-comparable with un-annotated ones event-kind-wise, while the
    /// prefix makes decisions greppable and countable.
    pub fn policy_decision(&self, at: TraceTime, policy: &str, detail: &str) {
        let mut r = self.rec.borrow_mut();
        r.policy_decisions += 1;
        let label = format!("policy {policy}: {detail}");
        r.emit(at, EventKind::Mark { label });
    }

    /// Records an I/O-server lane going down.
    pub fn drive_down(&self, at: TraceTime, drive: u32) {
        self.rec
            .borrow_mut()
            .emit(at, EventKind::DriveDown { drive });
    }

    /// Records a quarantined lane rejoining the pool as a hot spare.
    pub fn drive_up(&self, at: TraceTime, drive: u32) {
        self.rec.borrow_mut().emit(at, EventKind::DriveUp { drive });
    }

    /// Records a watchdog deadline expiring on an in-flight device op.
    pub fn watchdog_fire(&self, at: TraceTime, drive: u32, span: u64) {
        self.rec
            .borrow_mut()
            .emit(at, EventKind::WatchdogFire { drive, span });
    }

    /// Records an orphaned device op re-entering the shared queue.
    pub fn redispatch(&self, at: TraceTime, span: u64, from_drive: u32) {
        self.rec
            .borrow_mut()
            .emit(at, EventKind::Redispatch { span, from_drive });
    }

    /// Records the fair queue admitting a tenant-tagged request.
    pub fn tenant_admit(&self, at: TraceTime, tenant: u32, class: Class, span: u64) {
        self.rec.borrow_mut().emit(
            at,
            EventKind::TenantAdmit {
                tenant,
                class,
                span,
            },
        );
    }

    /// Records a step of the tertiary recovery policy on `seg`.
    pub fn recovery(&self, at: TraceTime, seg: u64, step: RecoveryStep) {
        let mut r = self.rec.borrow_mut();
        r.recoveries[step.index()] += 1;
        r.emit(at, EventKind::Recovery { seg, step });
    }

    /// Records the fair queue holding a tenant-tagged request back.
    pub fn tenant_throttle(&self, at: TraceTime, tenant: u32, class: Class, span: u64) {
        self.rec.borrow_mut().emit(
            at,
            EventKind::TenantThrottle {
                tenant,
                class,
                span,
            },
        );
    }

    // ------------------------------------------------------------------
    // Observation
    // ------------------------------------------------------------------

    /// Events emitted so far.
    pub fn len(&self) -> u64 {
        self.rec.borrow().next_seq
    }

    /// `true` if nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the kept events. Panics unless
    /// [`Self::retain_events`] was called: an unkept stream is not empty.
    pub fn events(&self) -> Vec<Event> {
        self.rec.borrow().kept().to_vec()
    }

    /// The running FNV-1a digest over every rendered line, each
    /// `\n`-terminated. Byte-identical histories hash equal.
    pub fn digest(&self) -> u64 {
        self.rec.borrow().digest.0
    }

    /// Cumulative measured queue residency of `class`.
    pub fn wait(&self, class: Class) -> TraceTime {
        self.rec.borrow().wait[class.idx()]
    }

    /// Queue residency (enqueue to device start) of each
    /// [`EventKind::Queuing`] event of `class`, sorted ascending.
    pub fn residencies(&self, class: Class) -> Vec<TraceTime> {
        let r = self.rec.borrow();
        let counts = r.residency[class.idx()].iter();
        let mut all: Vec<TraceTime> = counts
            .flat_map(|(&v, &n)| std::iter::repeat_n(v, n as usize))
            .collect();
        all.sort_unstable();
        all
    }

    /// Depth high-water mark of `queue`.
    pub fn queue_hwm(&self, queue: QueueId) -> u32 {
        self.rec.borrow().hwm[queue.idx()]
    }

    /// Spans opened with class `class`.
    pub fn spans_opened(&self, class: Class) -> u64 {
        self.rec.borrow().opened[class.idx()]
    }

    /// Spans closed.
    pub fn spans_closed(&self) -> u64 {
        self.count("span_close")
    }

    /// Join events recorded.
    pub fn joins(&self) -> u64 {
        self.count("join")
    }

    /// Events of the kind tagged `tag` (see [`KIND_TAGS`]).
    fn count(&self, tag: &str) -> u64 {
        let i = KIND_TAGS.iter().position(|&t| t == tag);
        self.rec.borrow().kinds[i.expect("a kind tag")]
    }

    /// [`EventKind::DriveDown`] events recorded.
    pub fn drive_downs(&self) -> u64 {
        self.count("drive_down")
    }

    /// [`EventKind::WatchdogFire`] events recorded.
    pub fn watchdog_fires(&self) -> u64 {
        self.count("watchdog_fire")
    }

    /// [`EventKind::Redispatch`] events recorded.
    pub fn redispatches(&self) -> u64 {
        self.count("redispatch")
    }

    /// [`EventKind::TenantAdmit`] events recorded.
    pub fn tenant_admits(&self) -> u64 {
        self.count("tenant_admit")
    }

    /// [`EventKind::TenantThrottle`] events recorded.
    pub fn tenant_throttles(&self) -> u64 {
        self.count("tenant_throttle")
    }

    /// [`EventKind::Recovery`] events recorded whose step's line shows
    /// `tag`: `rfault`, `retry`, `failover`, `quarantine`, `scrub`,
    /// `loss`, `wfault` or `eom`.
    pub fn recoveries(&self, tag: &str) -> u64 {
        let i = RECOVERY_TAGS.iter().position(|&t| t == tag);
        self.rec.borrow().recoveries[i.expect("a recovery step tag")]
    }

    /// [`Tracer::policy_decision`] marks recorded.
    pub fn policy_decisions(&self) -> u64 {
        self.rec.borrow().policy_decisions
    }

    /// [`EventKind::DevIo`] events recorded, on any lane.
    pub fn dev_ops(&self) -> u64 {
        self.count("dev_io")
    }

    /// `(ops, busy time)` recorded on `lane`.
    pub fn lane_io(&self, lane: Lane) -> (u64, TraceTime) {
        let r = self.rec.borrow();
        r.lane_io.get(lane.idx()).copied().unwrap_or((0, 0))
    }

    /// Each drive's down windows `(drive, down, up)`: the closed ones in
    /// the order they closed, then the drives still down (`up` is
    /// `None`) in drive order. A second [`EventKind::DriveDown`] of a
    /// drive already down does not open a window.
    pub fn down_windows(&self) -> Vec<(u32, TraceTime, Option<TraceTime>)> {
        self.rec.borrow().checker.down_windows().collect()
    }

    /// The most device ops in flight at one instant. An op starting
    /// exactly when another ends overlaps it — the queue handed the
    /// device its next request before the completion was consumed — and
    /// a zero-length op occupies its instant.
    pub fn peak_in_flight(&self) -> usize {
        self.rec.borrow_mut().checker.peaks().0
    }

    /// The most drive lanes busy at one instant: half-open intervals, so
    /// a drive handing off from one op to the next at the same instant is
    /// not two, a zero-length op is nothing, and the staging lane does
    /// not count.
    pub fn drive_peak(&self) -> usize {
        self.rec.borrow_mut().checker.peaks().1
    }

    /// Currently open spans, in id order (the checker's live-span table).
    pub fn open_spans(&self) -> Vec<(u64, Class)> {
        self.rec.borrow().checker.live_spans()
    }

    /// Renders the kept events as text lines. Panics unless
    /// [`Self::retain_events`] was called.
    pub fn render_text(&self) -> Vec<String> {
        self.rec.borrow().kept().iter().map(Event::render).collect()
    }

    /// Per-kind event counts, by kind tag, of the kinds emitted (for
    /// `--trace` summaries).
    pub fn summary(&self) -> Vec<(&'static str, u64)> {
        let r = self.rec.borrow();
        let mut counts: Vec<(&'static str, u64)> = KIND_TAGS
            .iter()
            .zip(r.kinds)
            .filter(|&(_, n)| n > 0)
            .map(|(&tag, n)| (tag, n))
            .collect();
        counts.sort_unstable();
        counts
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// `decimal` as every line and the digest see it, against `format!`.
    fn decimal_matches_format(v: u64) {
        for width in [1, 6] {
            let want = format!("{v:0width$}");
            let mut buf = [0; 20];
            let got = decimal(v, width, &mut buf);
            assert_eq!(got, want.as_bytes(), "{v} at width {width}");
        }
    }

    /// `decimal` writes exactly `format!`'s digits, at both widths the
    /// lines use: zero and the one- and two-digit edges, every power of
    /// ten and the value below it, and `u64::MAX` (20 digits, the whole
    /// buffer). Seen red, each sabotage alone, here and in the random
    /// test below: a pair written in the wrong order; the leading digit
    /// of an odd digit count dropped; the pair loop stopped at 100, so a
    /// last pair is written as one digit; the pad one digit short (0
    /// renders empty at width 1); the pad cutting a longer value to the
    /// width.
    #[test]
    fn decimal_matches_format_at_the_edges() {
        let mut values = vec![0, 9, 10, 99, 100, u64::MAX];
        for k in 1..=19 {
            let p = 10u64.pow(k);
            values.extend([p - 1, p]);
        }
        values.into_iter().for_each(decimal_matches_format);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_048))]

        /// Random values of every length: a random `u64` shifted right
        /// by a random amount.
        #[test]
        fn decimal_matches_format_for_random_values(v in any::<u64>(), shift in 0u32..64) {
            decimal_matches_format(v >> shift);
        }
    }

    #[test]
    fn digest_is_stable() {
        let run = || {
            let t = Tracer::new();
            for i in 0..10u64 {
                t.mark(i, "tick".into());
            }
            (t.digest(), t.len())
        };
        let (d1, len) = run();
        let (d2, _) = run();
        assert_eq!(d1, d2);
        assert_eq!(len, 10);
        // A different history hashes differently.
        let t = Tracer::new();
        for i in 0..10u64 {
            t.mark(i, "tock".into());
        }
        assert_ne!(t.digest(), d1);
    }

    #[test]
    fn span_accounting_tracks_opens_and_closes() {
        let t = Tracer::new();
        let a = t.open_span(0, Class::Demand, Some(7));
        let b = t.open_span(1, Class::CopyOut, Some(8));
        assert_ne!(a, b);
        assert_eq!(t.open_spans().len(), 2);
        t.close_span(5, a, true);
        assert_eq!(t.open_spans(), vec![(b, Class::CopyOut)]);
        assert_eq!(t.spans_opened(Class::Demand), 1);
        assert_eq!(t.spans_closed(), 1);
    }

    #[test]
    fn queuing_accumulates_per_class() {
        let t = Tracer::new();
        t.queuing(10, 0, Class::Demand, 2, 10);
        t.queuing(20, 1, Class::Demand, 15, 20);
        t.queuing(20, 2, Class::Scrub, 0, 3);
        assert_eq!(t.wait(Class::Demand), 13);
        assert_eq!(t.wait(Class::Scrub), 3);
        assert_eq!(t.wait(Class::CopyOut), 0);
        assert_eq!(t.residencies(Class::Demand), vec![5, 8]);
        assert_eq!(t.residencies(Class::CopyOut), Vec::<TraceTime>::new());
    }

    /// A backwards interval — a finding of its own — counts as zero
    /// residency instead of wrapping to ~1.8e19 µs (or panicking).
    #[test]
    fn a_backwards_queuing_interval_counts_as_zero_residency() {
        let t = Tracer::new();
        let s = t.open_span(0, Class::Demand, None);
        t.queuing(10, s, Class::Demand, 10, 4);
        t.queuing(12, s, Class::Demand, 10, 12);
        t.close_span(12, s, true);
        assert_eq!(t.residencies(Class::Demand), vec![0, 2]);
        assert_eq!(t.wait(Class::Demand), 2);
        let f = tracecheck(&t, &Expectations::quiesced([2, 0, 0, 0, 0], 0));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("runs backwards: 10..4"));
    }

    #[test]
    fn queue_depth_keeps_the_hwm() {
        let t = Tracer::new();
        t.queue_depth(0, QueueId::Request, 3);
        t.queue_depth(1, QueueId::Request, 1);
        t.queue_depth(2, QueueId::Device, 2);
        assert_eq!(t.queue_hwm(QueueId::Request), 3);
        assert_eq!(t.queue_hwm(QueueId::Device), 2);
    }

    #[test]
    fn peak_in_flight_counts_handoffs_and_instants() {
        let t = Tracer::new();
        t.dev_io(Lane::Drive(0), 0, 10);
        t.dev_io(Lane::Drive(0), 10, 20);
        assert_eq!(t.peak_in_flight(), 2, "a back-to-back handoff overlaps");
        t.dev_io(Lane::Staging, 50, 60);
        t.dev_io(Lane::Drive(1), 0, 55);
        assert_eq!(
            t.peak_in_flight(),
            3,
            "lanes and admission order don't matter"
        );
        let t = Tracer::new();
        t.dev_io(Lane::Staging, 5, 5);
        t.dev_io(Lane::Drive(0), 5, 5);
        assert_eq!(
            t.peak_in_flight(),
            2,
            "zero-length ops occupy their instant"
        );
        assert_eq!(Tracer::new().peak_in_flight(), 0);
    }

    #[test]
    fn drive_peak_is_strict_and_sees_only_drive_lanes() {
        let t = Tracer::new();
        t.dev_io(Lane::Drive(0), 0, 10);
        t.dev_io(Lane::Drive(0), 10, 20);
        t.dev_io(Lane::Drive(1), 5, 5);
        t.dev_io(Lane::Staging, 0, 100);
        assert_eq!(
            t.drive_peak(),
            1,
            "a handoff is legal; an instant is nothing"
        );
        assert_eq!(t.peak_in_flight(), 3);
        t.dev_io(Lane::Drive(1), 5, 25);
        assert_eq!(t.drive_peak(), 2);
    }

    #[test]
    fn drive_health_events_render_and_count() {
        let t = Tracer::new();
        t.retain_events();
        t.drive_down(10, 1);
        t.watchdog_fire(10, 1, 7);
        t.redispatch(11, 7, 1);
        t.drive_up(50, 1);
        assert_eq!(t.drive_downs(), 1);
        assert_eq!(t.watchdog_fires(), 1);
        assert_eq!(t.redispatches(), 1);
        let text = t.render_text();
        assert_eq!(text[0], "#000000 t10 ddn d1");
        assert_eq!(text[1], "#000001 t10 wdog d1 7");
        assert_eq!(text[2], "#000002 t11 redisp 7 d1");
        assert_eq!(text[3], "#000003 t50 dup d1");
        assert_eq!(t.down_windows(), vec![(1, 10, Some(50))]);
        t.drive_down(60, 1);
        t.drive_down(70, 1);
        assert_eq!(t.down_windows(), vec![(1, 10, Some(50)), (1, 60, None)]);
    }

    #[test]
    fn tenant_events_render_and_count() {
        let t = Tracer::new();
        t.retain_events();
        let s = t.open_span(0, Class::Demand, Some(3));
        t.tenant_admit(5, 2, Class::Demand, s);
        t.tenant_throttle(6, 7, Class::Prefetch, s);
        assert_eq!(t.tenant_admits(), 1);
        assert_eq!(t.tenant_throttles(), 1);
        let text = t.render_text();
        assert_eq!(text[1], "#000001 t5 tadm n2 demand 0");
        assert_eq!(text[2], "#000002 t6 tthr n7 prefetch 0");
    }

    /// Every event [`Recorder::emit`] builds is this size: 32 bytes, as
    /// before [`EventKind::Recovery`] was added, whose widest step (a
    /// scrub copy's two copies) fits beside its segment.
    #[test]
    fn event_kind_stays_32_bytes() {
        assert_eq!(std::mem::size_of::<EventKind>(), 32);
    }

    #[test]
    fn renders_are_stable() {
        let t = Tracer::new();
        t.retain_events();
        t.open_span(3, Class::Demand, Some(42));
        t.cache_state(4, 42, LineTag::Empty, LineTag::Filling);
        let text = t.render_text();
        assert_eq!(text[0], "#000000 t3 s+ 0 demand seg 42");
        assert_eq!(text[1], "#000001 t4 line 42 empty>filling");
    }

    /// One of every [`RecoveryStep`], in [`RECOVERY_TAGS`] order.
    fn every_recovery_step() -> [RecoveryStep; 8] {
        [
            RecoveryStep::ReadFault { copy: (0, 1) },
            RecoveryStep::Retry {
                copy: (0, 1),
                attempt: 2,
            },
            RecoveryStep::Failover { copy: (3, 4) },
            RecoveryStep::Quarantine {
                vol: 0,
                failures: 5,
            },
            RecoveryStep::ScrubCopy {
                from: (3, 4),
                to: (6, 7),
            },
            RecoveryStep::PermanentLoss,
            RecoveryStep::WriteFault { copy: (8, 9) },
            RecoveryStep::EndOfMedium { copy: (10, 11) },
        ]
    }

    /// Each recovery step renders as its own `rcv` line and is counted
    /// under its tag.
    #[test]
    fn recovery_steps_render_and_count() {
        let t = Tracer::new();
        t.retain_events();
        for step in every_recovery_step() {
            t.recovery(7, 42, step);
        }
        assert_eq!(
            t.render_text(),
            [
                "#000000 t7 rcv 42 rfault v0/s1",
                "#000001 t7 rcv 42 retry v0/s1 #2",
                "#000002 t7 rcv 42 failover v3/s4",
                "#000003 t7 rcv 42 quarantine v0 after 5",
                "#000004 t7 rcv 42 scrub v3/s4>v6/s7",
                "#000005 t7 rcv 42 loss",
                "#000006 t7 rcv 42 wfault v8/s9",
                "#000007 t7 rcv 42 eom v10/s11",
            ]
        );
        for tag in RECOVERY_TAGS {
            assert_eq!(t.recoveries(tag), 1, "{tag}");
        }
        assert_eq!(t.summary(), [("recovery", 8)]);
    }

    /// Emits every [`EventKind`] (each optional field both ways) through
    /// the public emitters.
    fn emit_every_kind(t: &Tracer) {
        let a = t.open_span(3, Class::Demand, Some(42));
        let b = t.open_span(4, Class::Scrub, None);
        t.join(5, a, Class::Prefetch);
        t.queue_depth(5, QueueId::Request, 2);
        t.queue_depth(6, QueueId::Device, 1);
        t.queuing(9, a, Class::Demand, 3, 9);
        t.cache_state(9, 42, LineTag::Empty, LineTag::Filling);
        t.cache_state(30, 42, LineTag::Filling, LineTag::Clean);
        t.cache_state(31, 43, LineTag::Staging, LineTag::DirtyWait);
        t.cache_rekey(32, 43, 44);
        t.dev_io(Lane::Drive(1), 9, 30);
        t.dev_io(Lane::Staging, 30, 31);
        t.fault(33, "drive 0 \"dead\"".into());
        t.mark(34, String::new());
        t.policy_decision(35, "lru", "eject 42");
        t.drive_down(36, 0);
        t.watchdog_fire(36, 0, b);
        t.redispatch(37, b, 0);
        t.drive_up(90, 0);
        t.tenant_admit(91, 7, Class::CopyOut, b);
        t.tenant_throttle(91, 3, Class::Eject, b);
        for step in every_recovery_step() {
            t.recovery(92, 42, step);
        }
        t.close_span(95, a, true);
        t.close_span(96, b, false);
    }

    /// The digest is FNV-1a over exactly the `render_text()` lines,
    /// whether the tracer keeps its events or not. Computed here from the
    /// rendered lines, byte by byte, independently of the streaming sink.
    #[test]
    fn digest_covers_the_rendered_bytes_of_every_kind_kept_or_not() {
        let kept = Tracer::new();
        kept.retain_events();
        emit_every_kind(&kept);
        assert_eq!(kept.summary().len(), 17, "one of every EventKind");
        let mut fnv = 0xcbf2_9ce4_8422_2325u64;
        for line in kept.render_text() {
            for b in line.bytes().chain([b'\n']) {
                fnv = (fnv ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(kept.digest(), fnv);
        let unkept = Tracer::new();
        emit_every_kind(&unkept);
        assert_eq!(unkept.digest(), fnv);
        assert_eq!(unkept.summary(), kept.summary());
        assert_eq!(Tracer::new().digest(), 0xcbf2_9ce4_8422_2325);
    }

    /// A tracer that keeps nothing does not answer "no events".
    #[test]
    #[should_panic(expected = "keeps no events")]
    fn events_of_a_tracer_that_keeps_none_are_refused() {
        let t = Tracer::new();
        t.mark(0, "a".into());
        t.render_text();
    }
}
