//! Deterministic event tracing for the HighLight reproduction.
//!
//! The paper's evaluation (§7, Tables 2–6) is about *where time goes* in
//! the storage hierarchy — device transfers, robot exchanges, queue
//! residency. This crate records that history as a structured stream of
//! events keyed on simulated time: request *spans* (open at enqueue,
//! close at completion), per-op queue residency, cache-line state
//! transitions, device-op intervals, scheduler park/wake activity, and
//! injected faults. The stream is deterministic: with a fixed seed the
//! same run emits byte-identical renders and equal FNV digests, so the
//! whole observed history — not just dispatch order — replays exactly.
//!
//! The crate sits at the bottom of the workspace graph (it depends on
//! nothing), so the simulator, the device models, and the engine can all
//! emit into one [`Tracer`] without dependency cycles. Timestamps are raw
//! `u64` microseconds (the same unit as `hl_sim::time::SimTime`).
//!
//! [`check::tracecheck`] replays a recorded trace and verifies lifecycle
//! invariants: spans open and close exactly once, cache lines follow the
//! legal state machine, queue residency sums reconcile with the engine's
//! counters, coalesced fetches join a live parent span, and device ops
//! never overlap beyond the admitted concurrency.

pub mod check;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

pub use check::{tracecheck, Expectations, Finding};

/// Simulated time in microseconds (mirrors `hl_sim::time::SimTime`
/// without depending on it).
pub type TraceTime = u64;

/// Default bound on retained events. Beyond it the recorder keeps the
/// head of the stream plus a drop counter — derived accumulators and the
/// running digest still cover every emitted event.
pub const DEFAULT_CAP: usize = 65_536;

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

/// Short label used by renders (`d0`, `d1`, …, `st`).
impl fmt::Display for Lane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lane::Drive(d) => write!(f, "d{d}"),
            Lane::Staging => f.write_str("st"),
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

/// One traced occurrence. `S` is the text type of the four labelled
/// kinds: `String` in a recorded [`Event`], `&str` on the way in, so an
/// event is digested — and, past the retention bound, dropped — without
/// its label ever being copied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind<S = String> {
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
    /// A scheduler actor parked awaiting a wake.
    Park {
        /// The actor's name.
        actor: S,
    },
    /// A parked actor was woken.
    Wake {
        /// The actor's name.
        actor: S,
    },
    /// An injected fault or crash fired.
    Fault {
        /// Description of the injection.
        label: S,
    },
    /// Free-form breadcrumb (migrator, prefetcher, cleaner, clock).
    Mark {
        /// The breadcrumb.
        label: S,
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
}

/// One recorded event: a sequence number (emission order), the simulated
/// time it describes, and its kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event<S = String> {
    /// Emission order, starting at 0.
    pub seq: u64,
    /// Simulated time the event describes. Not necessarily monotone in
    /// `seq`: wakes may rewind an idle actor's clock.
    pub at: TraceTime,
    /// What happened.
    pub kind: EventKind<S>,
}

impl<S: fmt::Display> Event<S> {
    /// Writes the stable single-line text form into `out`. This is the
    /// only renderer: [`Event::render`] collects it into a `String` and
    /// the recorder streams it into the running digest, so the digest
    /// covers exactly the bytes a render shows. Byte-identical per seed.
    pub fn write_line(&self, out: &mut impl fmt::Write) -> fmt::Result {
        write!(out, "#{:06} t{} ", self.seq, self.at)?;
        match &self.kind {
            EventKind::SpanOpen { span, class, seg } => match seg {
                Some(s) => write!(out, "s+ {span} {} seg {s}", class.label()),
                None => write!(out, "s+ {span} {} seg -", class.label()),
            },
            EventKind::SpanClose { span, ok } => {
                write!(out, "s- {span} {}", if *ok { "ok" } else { "err" })
            }
            EventKind::Join { span, class } => write!(out, "join {span} {}", class.label()),
            EventKind::Queuing {
                span,
                class,
                from,
                to,
            } => write!(out, "qres {span} {} {from}..{to}", class.label()),
            EventKind::QueueDepth { queue, depth } => {
                write!(out, "qdep {} {depth}", queue.label())
            }
            EventKind::CacheState { seg, from, to } => {
                write!(out, "line {seg} {}>{}", from.label(), to.label())
            }
            EventKind::CacheRekey { old, new } => write!(out, "rekey {old}>{new}"),
            EventKind::DevIo { lane, start, end } => write!(out, "dev {lane} {start}..{end}"),
            EventKind::Park { actor } => write!(out, "park {actor}"),
            EventKind::Wake { actor } => write!(out, "wake {actor}"),
            EventKind::Fault { label } => write!(out, "fault {label}"),
            EventKind::Mark { label } => write!(out, "mark {label}"),
            EventKind::DriveDown { drive } => write!(out, "ddn d{drive}"),
            EventKind::DriveUp { drive } => write!(out, "dup d{drive}"),
            EventKind::WatchdogFire { drive, span } => write!(out, "wdog d{drive} {span}"),
            EventKind::Redispatch { span, from_drive } => {
                write!(out, "redisp {span} d{from_drive}")
            }
            EventKind::TenantAdmit { tenant, class, span } => {
                write!(out, "tadm n{tenant} {} {span}", class.label())
            }
            EventKind::TenantThrottle { tenant, class, span } => {
                write!(out, "tthr n{tenant} {} {span}", class.label())
            }
        }
    }

    /// Stable single-line text render: [`Event::write_line`] into a
    /// fresh `String`.
    pub fn render(&self) -> String {
        let mut line = String::new();
        self.write_line(&mut line)
            .expect("writing into a String cannot fail");
        line
    }
}

impl Event<&str> {
    /// Copies the label of a labelled kind, so the event can outlive the
    /// call that emitted it.
    fn into_owned(self) -> Event {
        use EventKind::*;
        let kind = match self.kind {
            Park { actor } => Park {
                actor: actor.to_string(),
            },
            Wake { actor } => Wake {
                actor: actor.to_string(),
            },
            Fault { label } => Fault {
                label: label.to_string(),
            },
            Mark { label } => Mark {
                label: label.to_string(),
            },
            SpanOpen { span, class, seg } => SpanOpen { span, class, seg },
            SpanClose { span, ok } => SpanClose { span, ok },
            Join { span, class } => Join { span, class },
            Queuing {
                span,
                class,
                from,
                to,
            } => Queuing {
                span,
                class,
                from,
                to,
            },
            QueueDepth { queue, depth } => QueueDepth { queue, depth },
            CacheState { seg, from, to } => CacheState { seg, from, to },
            CacheRekey { old, new } => CacheRekey { old, new },
            DevIo { lane, start, end } => DevIo { lane, start, end },
            DriveDown { drive } => DriveDown { drive },
            DriveUp { drive } => DriveUp { drive },
            WatchdogFire { drive, span } => WatchdogFire { drive, span },
            Redispatch { span, from_drive } => Redispatch { span, from_drive },
            TenantAdmit { tenant, class, span } => TenantAdmit { tenant, class, span },
            TenantThrottle { tenant, class, span } => TenantThrottle { tenant, class, span },
        };
        Event {
            seq: self.seq,
            at: self.at,
            kind,
        }
    }
}

impl Event {
    /// Stable JSON object render (hand-rolled; labels are escaped).
    pub fn render_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let body = match &self.kind {
            EventKind::SpanOpen { span, class, seg } => format!(
                "\"ev\":\"span_open\",\"span\":{span},\"class\":\"{}\",\"seg\":{}",
                class.label(),
                seg.map_or("null".to_string(), |s| s.to_string())
            ),
            EventKind::SpanClose { span, ok } => {
                format!("\"ev\":\"span_close\",\"span\":{span},\"ok\":{ok}")
            }
            EventKind::Join { span, class } => format!(
                "\"ev\":\"join\",\"span\":{span},\"class\":\"{}\"",
                class.label()
            ),
            EventKind::Queuing {
                span,
                class,
                from,
                to,
            } => format!(
                "\"ev\":\"queuing\",\"span\":{span},\"class\":\"{}\",\"from\":{from},\"to\":{to}",
                class.label()
            ),
            EventKind::QueueDepth { queue, depth } => format!(
                "\"ev\":\"queue_depth\",\"queue\":\"{}\",\"depth\":{depth}",
                queue.label()
            ),
            EventKind::CacheState { seg, from, to } => format!(
                "\"ev\":\"cache_state\",\"seg\":{seg},\"from\":\"{}\",\"to\":\"{}\"",
                from.label(),
                to.label()
            ),
            EventKind::CacheRekey { old, new } => {
                format!("\"ev\":\"cache_rekey\",\"old\":{old},\"new\":{new}")
            }
            EventKind::DevIo { lane, start, end } => {
                format!("\"ev\":\"dev_io\",\"lane\":\"{lane}\",\"start\":{start},\"end\":{end}")
            }
            EventKind::Park { actor } => format!("\"ev\":\"park\",\"actor\":\"{}\"", esc(actor)),
            EventKind::Wake { actor } => format!("\"ev\":\"wake\",\"actor\":\"{}\"", esc(actor)),
            EventKind::Fault { label } => format!("\"ev\":\"fault\",\"label\":\"{}\"", esc(label)),
            EventKind::Mark { label } => format!("\"ev\":\"mark\",\"label\":\"{}\"", esc(label)),
            EventKind::DriveDown { drive } => {
                format!("\"ev\":\"drive_down\",\"drive\":{drive}")
            }
            EventKind::DriveUp { drive } => format!("\"ev\":\"drive_up\",\"drive\":{drive}"),
            EventKind::WatchdogFire { drive, span } => {
                format!("\"ev\":\"watchdog_fire\",\"drive\":{drive},\"span\":{span}")
            }
            EventKind::Redispatch { span, from_drive } => format!(
                "\"ev\":\"redispatch\",\"span\":{span},\"from_drive\":{from_drive}"
            ),
            EventKind::TenantAdmit { tenant, class, span } => format!(
                "\"ev\":\"tenant_admit\",\"tenant\":{tenant},\"class\":\"{}\",\"span\":{span}",
                class.label()
            ),
            EventKind::TenantThrottle { tenant, class, span } => format!(
                "\"ev\":\"tenant_throttle\",\"tenant\":{tenant},\"class\":\"{}\",\"span\":{span}",
                class.label()
            ),
        };
        format!("{{\"seq\":{},\"at\":{},{body}}}", self.seq, self.at)
    }

    /// Short kind tag (for `--trace` summaries).
    pub fn kind_tag(&self) -> &'static str {
        match &self.kind {
            EventKind::SpanOpen { .. } => "span_open",
            EventKind::SpanClose { .. } => "span_close",
            EventKind::Join { .. } => "join",
            EventKind::Queuing { .. } => "queuing",
            EventKind::QueueDepth { .. } => "queue_depth",
            EventKind::CacheState { .. } => "cache_state",
            EventKind::CacheRekey { .. } => "cache_rekey",
            EventKind::DevIo { .. } => "dev_io",
            EventKind::Park { .. } => "park",
            EventKind::Wake { .. } => "wake",
            EventKind::Fault { .. } => "fault",
            EventKind::Mark { .. } => "mark",
            EventKind::DriveDown { .. } => "drive_down",
            EventKind::DriveUp { .. } => "drive_up",
            EventKind::WatchdogFire { .. } => "watchdog_fire",
            EventKind::Redispatch { .. } => "redispatch",
            EventKind::TenantAdmit { .. } => "tenant_admit",
            EventKind::TenantThrottle { .. } => "tenant_throttle",
        }
    }
}

/// The recorder behind a [`Tracer`]: the bounded event buffer plus the
/// derived accumulators that downstream counters are built from.
struct Recorder {
    /// Retained head of the event stream.
    events: Vec<Event>,
    /// Retention bound.
    cap: usize,
    /// Events emitted past the bound (still digested and accumulated).
    dropped: u64,
    next_seq: u64,
    next_span: u64,
    /// Running FNV-1a over every rendered line (`\n`-terminated), drops
    /// included — the digest covers the full history, not just the
    /// retained head.
    digest: u64,
    /// Per-class queue-residency sums (from [`EventKind::Queuing`]).
    wait: [TraceTime; 5],
    /// Per-queue depth high-water marks (from [`EventKind::QueueDepth`]).
    hwm: [u32; 2],
    /// Spans opened per class.
    opened: [u64; 5],
    /// Spans closed.
    closed: u64,
    /// Join events emitted.
    joins: u64,
    /// [`EventKind::DriveDown`] events emitted.
    drive_downs: u64,
    /// [`EventKind::DriveUp`] events emitted.
    drive_ups: u64,
    /// [`EventKind::WatchdogFire`] events emitted.
    watchdog_fires: u64,
    /// [`EventKind::Redispatch`] events emitted.
    redispatches: u64,
    /// [`EventKind::TenantAdmit`] events emitted.
    tenant_admits: u64,
    /// [`EventKind::TenantThrottle`] events emitted.
    tenant_throttles: u64,
    /// `policy`-prefixed [`EventKind::Mark`] events emitted (see
    /// [`Tracer::policy_decision`]).
    policy_decisions: u64,
    /// [`EventKind::DevIo`] events emitted, on any lane.
    dev_ops: u64,
    /// Per-drive-lane `(ops, busy time)` sums of [`EventKind::DevIo`]
    /// events, indexed by drive.
    drive_io: Vec<(u64, TraceTime)>,
    /// Currently open spans (deterministic order for snapshots).
    open_spans: BTreeMap<u64, Class>,
    /// Spans that were already open at the last [`Recorder::reset`]:
    /// their closes are legal even though their opens were discarded.
    baseline_open: Vec<(u64, Class)>,
}

impl Recorder {
    fn new(cap: usize) -> Recorder {
        Recorder {
            events: Vec::new(),
            cap,
            dropped: 0,
            next_seq: 0,
            next_span: 0,
            digest: FNV_OFFSET,
            wait: [0; 5],
            hwm: [0; 2],
            opened: [0; 5],
            closed: 0,
            joins: 0,
            drive_downs: 0,
            drive_ups: 0,
            watchdog_fires: 0,
            redispatches: 0,
            tenant_admits: 0,
            tenant_throttles: 0,
            policy_decisions: 0,
            dev_ops: 0,
            drive_io: Vec::new(),
            open_spans: BTreeMap::new(),
            baseline_open: Vec::new(),
        }
    }

    /// Digests the event and, below the retention bound, records it.
    /// Nothing here allocates unless the event is retained: the line is
    /// streamed into the digest, never built, and a borrowed label is
    /// copied only on its way into the ring.
    fn emit(&mut self, at: TraceTime, kind: EventKind<&str>) {
        let ev = Event {
            seq: self.next_seq,
            at,
            kind,
        };
        self.next_seq += 1;
        let mut sink = FnvSink(self.digest);
        ev.write_line(&mut sink)
            .expect("the digest sink cannot fail");
        self.digest = fnv_mix(sink.0, b'\n');
        if self.events.len() < self.cap {
            self.events.push(ev.into_owned());
        } else {
            self.dropped += 1;
        }
    }

    fn reset(&mut self) {
        self.events.clear();
        self.dropped = 0;
        self.digest = FNV_OFFSET;
        self.wait = [0; 5];
        self.hwm = [0; 2];
        self.opened = [0; 5];
        self.closed = 0;
        self.joins = 0;
        self.drive_downs = 0;
        self.drive_ups = 0;
        self.watchdog_fires = 0;
        self.redispatches = 0;
        self.tenant_admits = 0;
        self.tenant_throttles = 0;
        self.policy_decisions = 0;
        self.dev_ops = 0;
        self.drive_io.clear();
        self.baseline_open = self.open_spans.iter().map(|(&s, &c)| (s, c)).collect();
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv_mix(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
}

/// FNV-1a as a [`fmt::Write`] sink: folds whatever is written into it.
struct FnvSink(u64);

impl fmt::Write for FnvSink {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = s.bytes().fold(self.0, fnv_mix);
        Ok(())
    }
}

/// A cloneable handle onto a shared [trace recorder](Tracer::new). Every
/// layer of the stack (scheduler, devices, engine, cache) holds a clone
/// and emits into the same bounded, digested event stream.
#[derive(Clone, Default)]
pub struct Tracer {
    rec: Rc<RefCell<Recorder>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let r = self.rec.borrow();
        write!(
            f,
            "Tracer {{ events: {}, dropped: {} }}",
            r.events.len(),
            r.dropped
        )
    }
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new(DEFAULT_CAP)
    }
}

impl Tracer {
    /// A fresh tracer with the [default retention bound](DEFAULT_CAP).
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// A fresh tracer retaining at most `cap` events (the digest and the
    /// derived accumulators still cover everything emitted).
    pub fn with_capacity(cap: usize) -> Tracer {
        Tracer {
            rec: Rc::new(RefCell::new(Recorder::new(cap))),
        }
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
        r.open_spans.insert(span, class);
        r.emit(at, EventKind::SpanOpen { span, class, seg });
        span
    }

    /// Closes a span (the request's ticket resolved).
    pub fn close_span(&self, at: TraceTime, span: u64, ok: bool) {
        let mut r = self.rec.borrow_mut();
        r.closed += 1;
        r.open_spans.remove(&span);
        r.emit(at, EventKind::SpanClose { span, ok });
    }

    /// Records a coalesced fetch joining the in-flight parent `span`.
    pub fn join(&self, at: TraceTime, span: u64, class: Class) {
        let mut r = self.rec.borrow_mut();
        r.joins += 1;
        r.emit(at, EventKind::Join { span, class });
    }

    /// Records one op's measured queue residency (`from` = enqueue,
    /// `to` = device start) and accumulates it per class.
    pub fn queuing(&self, at: TraceTime, span: u64, class: Class, from: TraceTime, to: TraceTime) {
        let mut r = self.rec.borrow_mut();
        r.wait[class.idx()] += to.saturating_sub(from);
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
    /// it: one op in all, and for a drive lane one op and its duration.
    pub fn dev_io(&self, lane: Lane, start: TraceTime, end: TraceTime) {
        let mut r = self.rec.borrow_mut();
        r.dev_ops += 1;
        if let Lane::Drive(d) = lane {
            let d = d as usize;
            if r.drive_io.len() <= d {
                r.drive_io.resize(d + 1, (0, 0));
            }
            r.drive_io[d].0 += 1;
            r.drive_io[d].1 += end.saturating_sub(start);
        }
        r.emit(start, EventKind::DevIo { lane, start, end });
    }

    /// Records an actor parking.
    pub fn park(&self, at: TraceTime, actor: &str) {
        self.rec.borrow_mut().emit(at, EventKind::Park { actor });
    }

    /// Records a parked actor being woken.
    pub fn wake(&self, at: TraceTime, actor: &str) {
        self.rec.borrow_mut().emit(at, EventKind::Wake { actor });
    }

    /// Records an injected fault or crash.
    pub fn fault(&self, at: TraceTime, label: &str) {
        self.rec.borrow_mut().emit(at, EventKind::Fault { label });
    }

    /// Records a free-form breadcrumb.
    pub fn mark(&self, at: TraceTime, label: &str) {
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
        r.emit(at, EventKind::Mark { label: &label });
    }

    /// Records an I/O-server lane going down.
    pub fn drive_down(&self, at: TraceTime, drive: u32) {
        let mut r = self.rec.borrow_mut();
        r.drive_downs += 1;
        r.emit(at, EventKind::DriveDown { drive });
    }

    /// Records a quarantined lane rejoining the pool as a hot spare.
    pub fn drive_up(&self, at: TraceTime, drive: u32) {
        let mut r = self.rec.borrow_mut();
        r.drive_ups += 1;
        r.emit(at, EventKind::DriveUp { drive });
    }

    /// Records a watchdog deadline expiring on an in-flight device op.
    pub fn watchdog_fire(&self, at: TraceTime, drive: u32, span: u64) {
        let mut r = self.rec.borrow_mut();
        r.watchdog_fires += 1;
        r.emit(at, EventKind::WatchdogFire { drive, span });
    }

    /// Records an orphaned device op re-entering the shared queue.
    pub fn redispatch(&self, at: TraceTime, span: u64, from_drive: u32) {
        let mut r = self.rec.borrow_mut();
        r.redispatches += 1;
        r.emit(at, EventKind::Redispatch { span, from_drive });
    }

    /// Records the fair queue admitting a tenant-tagged request.
    pub fn tenant_admit(&self, at: TraceTime, tenant: u32, class: Class, span: u64) {
        let mut r = self.rec.borrow_mut();
        r.tenant_admits += 1;
        r.emit(at, EventKind::TenantAdmit { tenant, class, span });
    }

    /// Records the fair queue holding a tenant-tagged request back.
    pub fn tenant_throttle(&self, at: TraceTime, tenant: u32, class: Class, span: u64) {
        let mut r = self.rec.borrow_mut();
        r.tenant_throttles += 1;
        r.emit(at, EventKind::TenantThrottle { tenant, class, span });
    }

    // ------------------------------------------------------------------
    // Observation
    // ------------------------------------------------------------------

    /// Events emitted so far (retained + dropped).
    pub fn len(&self) -> u64 {
        self.rec.borrow().next_seq
    }

    /// `true` if nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events emitted past the retention bound.
    pub fn dropped(&self) -> u64 {
        self.rec.borrow().dropped
    }

    /// A snapshot of the retained events.
    pub fn events(&self) -> Vec<Event> {
        self.rec.borrow().events.clone()
    }

    /// The running FNV-1a digest over every rendered line, XORed with the
    /// drop count. Byte-identical histories hash equal.
    pub fn digest(&self) -> u64 {
        let r = self.rec.borrow();
        r.digest ^ r.dropped
    }

    /// Cumulative measured queue residency of `class`.
    pub fn wait(&self, class: Class) -> TraceTime {
        self.rec.borrow().wait[class.idx()]
    }

    /// Queue residency (enqueue to device start) of each retained
    /// [`EventKind::Queuing`] event of `class`, sorted ascending.
    pub fn residencies(&self, class: Class) -> Vec<TraceTime> {
        let mut out: Vec<TraceTime> = self
            .rec
            .borrow()
            .events
            .iter()
            .filter_map(|ev| match ev.kind {
                EventKind::Queuing {
                    class: c, from, to, ..
                } if c == class => Some(to - from),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out
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
        self.rec.borrow().closed
    }

    /// Join events recorded.
    pub fn joins(&self) -> u64 {
        self.rec.borrow().joins
    }

    /// [`EventKind::DriveDown`] events recorded.
    pub fn drive_downs(&self) -> u64 {
        self.rec.borrow().drive_downs
    }

    /// [`EventKind::DriveUp`] events recorded.
    pub fn drive_ups(&self) -> u64 {
        self.rec.borrow().drive_ups
    }

    /// [`EventKind::WatchdogFire`] events recorded.
    pub fn watchdog_fires(&self) -> u64 {
        self.rec.borrow().watchdog_fires
    }

    /// [`EventKind::Redispatch`] events recorded.
    pub fn redispatches(&self) -> u64 {
        self.rec.borrow().redispatches
    }

    /// [`EventKind::TenantAdmit`] events recorded.
    pub fn tenant_admits(&self) -> u64 {
        self.rec.borrow().tenant_admits
    }

    /// [`EventKind::TenantThrottle`] events recorded.
    pub fn tenant_throttles(&self) -> u64 {
        self.rec.borrow().tenant_throttles
    }

    /// [`Tracer::policy_decision`] marks recorded.
    pub fn policy_decisions(&self) -> u64 {
        self.rec.borrow().policy_decisions
    }

    /// [`EventKind::DevIo`] events recorded, on any lane.
    pub fn dev_ops(&self) -> u64 {
        self.rec.borrow().dev_ops
    }

    /// `(ops, busy time)` recorded on drive lane `drive`.
    pub fn drive_io(&self, drive: u32) -> (u64, TraceTime) {
        let r = self.rec.borrow();
        r.drive_io.get(drive as usize).copied().unwrap_or((0, 0))
    }

    /// The retained [`EventKind::DevIo`] intervals `keep` selects.
    fn dev_intervals(&self, keep: impl Fn(Lane) -> bool) -> Vec<(TraceTime, TraceTime)> {
        let r = self.rec.borrow();
        let io = r.events.iter().filter_map(|ev| match ev.kind {
            EventKind::DevIo { lane, start, end } if keep(lane) => Some((start, end)),
            _ => None,
        });
        io.collect()
    }

    /// The most device ops in flight at one instant, over the retained
    /// events (a lower bound once the trace is truncated). An op
    /// starting exactly when another ends overlaps it — the queue handed
    /// the device its next request before the completion was consumed —
    /// and a zero-length op occupies its instant.
    pub fn peak_in_flight(&self) -> usize {
        check::peak_overlap(&self.dev_intervals(|_| true))
    }

    /// The most drive lanes busy at one instant, over the retained
    /// events: half-open intervals, so a drive handing off from one op
    /// to the next at the same instant is not two, a zero-length op is
    /// nothing, and the staging lane does not count.
    pub fn drive_peak(&self) -> usize {
        check::peak_overlap_strict(&self.dev_intervals(|l| matches!(l, Lane::Drive(_))))
    }

    /// Currently open spans, in id order.
    pub fn open_spans(&self) -> Vec<(u64, Class)> {
        self.rec
            .borrow()
            .open_spans
            .iter()
            .map(|(&s, &c)| (s, c))
            .collect()
    }

    /// Spans that were open at the last [`Self::reset`] (their closes
    /// appear without matching opens).
    pub fn baseline_open(&self) -> Vec<(u64, Class)> {
        self.rec.borrow().baseline_open.clone()
    }

    /// Renders the retained events as text lines.
    pub fn render_text(&self) -> Vec<String> {
        self.rec.borrow().events.iter().map(Event::render).collect()
    }

    /// Renders the retained events as a JSON array.
    pub fn render_json(&self) -> String {
        let body: Vec<String> = self
            .rec
            .borrow()
            .events
            .iter()
            .map(Event::render_json)
            .collect();
        format!("[{}]", body.join(","))
    }

    /// Per-kind event counts over the retained events (for `--trace`
    /// summaries).
    pub fn summary(&self) -> Vec<(&'static str, u64)> {
        let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        for ev in self.rec.borrow().events.iter() {
            *counts.entry(ev.kind_tag()).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// Clears the event buffer, the digest, and every derived accumulator
    /// while remembering which spans are still in flight (their closes
    /// stay legal). Span and sequence ids keep counting, so ids never
    /// repeat across resets.
    pub fn reset(&self) {
        self.rec.borrow_mut().reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_covers_drops() {
        let run = || {
            let t = Tracer::with_capacity(4);
            for i in 0..10u64 {
                t.mark(i, "tick");
            }
            (t.digest(), t.dropped(), t.len())
        };
        let (d1, dropped, len) = run();
        let (d2, _, _) = run();
        assert_eq!(d1, d2);
        assert_eq!(dropped, 6);
        assert_eq!(len, 10);
        // A different history hashes differently.
        let t = Tracer::with_capacity(4);
        for i in 0..10u64 {
            t.mark(i, "tock");
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
        assert_eq!(t.peak_in_flight(), 3, "lanes and admission order don't matter");
        let t = Tracer::new();
        t.dev_io(Lane::Staging, 5, 5);
        t.dev_io(Lane::Drive(0), 5, 5);
        assert_eq!(t.peak_in_flight(), 2, "zero-length ops occupy their instant");
        assert_eq!(Tracer::new().peak_in_flight(), 0);
    }

    #[test]
    fn drive_peak_is_strict_and_sees_only_drive_lanes() {
        let t = Tracer::new();
        t.dev_io(Lane::Drive(0), 0, 10);
        t.dev_io(Lane::Drive(0), 10, 20);
        t.dev_io(Lane::Drive(1), 5, 5);
        t.dev_io(Lane::Staging, 0, 100);
        assert_eq!(t.drive_peak(), 1, "a handoff is legal; an instant is nothing");
        assert_eq!(t.peak_in_flight(), 3);
        t.dev_io(Lane::Drive(1), 5, 25);
        assert_eq!(t.drive_peak(), 2);
    }

    #[test]
    fn dev_io_totals_survive_ring_truncation() {
        let t = Tracer::with_capacity(4);
        for i in 0..100u64 {
            t.dev_io(Lane::Drive((i % 2) as u32), i, i + 3);
            t.dev_io(Lane::Staging, i, i + 1);
        }
        assert_eq!(t.dropped(), 196);
        assert_eq!(t.dev_ops(), 200);
        assert_eq!(t.drive_io(0), (50, 150));
        assert_eq!(t.drive_io(1), (50, 150));
        assert_eq!(t.drive_io(7), (0, 0));
        // The peaks read the four retained events: lower bounds.
        assert_eq!((t.peak_in_flight(), t.drive_peak()), (4, 2));
        t.reset();
        assert_eq!((t.dev_ops(), t.drive_io(0)), (0, (0, 0)));
    }

    #[test]
    fn reset_preserves_open_spans_as_baseline() {
        let t = Tracer::new();
        let a = t.open_span(0, Class::Prefetch, Some(1));
        t.queue_depth(0, QueueId::Request, 5);
        t.reset();
        assert_eq!(t.len() - t.events().len() as u64, 2, "seq keeps counting");
        assert_eq!(t.queue_hwm(QueueId::Request), 0);
        assert_eq!(t.baseline_open(), vec![(a, Class::Prefetch)]);
        // The stale span's close is still recorded cleanly.
        t.close_span(9, a, true);
        assert!(t.open_spans().is_empty());
    }

    #[test]
    fn drive_health_events_render_and_count() {
        let t = Tracer::new();
        t.drive_down(10, 1);
        t.watchdog_fire(10, 1, 7);
        t.redispatch(11, 7, 1);
        t.drive_up(50, 1);
        assert_eq!(t.drive_downs(), 1);
        assert_eq!(t.drive_ups(), 1);
        assert_eq!(t.watchdog_fires(), 1);
        assert_eq!(t.redispatches(), 1);
        let text = t.render_text();
        assert_eq!(text[0], "#000000 t10 ddn d1");
        assert_eq!(text[1], "#000001 t10 wdog d1 7");
        assert_eq!(text[2], "#000002 t11 redisp 7 d1");
        assert_eq!(text[3], "#000003 t50 dup d1");
        assert!(t.render_json().contains("\"ev\":\"watchdog_fire\""));
        t.reset();
        assert_eq!(t.drive_downs(), 0);
    }

    #[test]
    fn tenant_events_render_and_count() {
        let t = Tracer::new();
        let s = t.open_span(0, Class::Demand, Some(3));
        t.tenant_admit(5, 2, Class::Demand, s);
        t.tenant_throttle(6, 7, Class::Prefetch, s);
        assert_eq!(t.tenant_admits(), 1);
        assert_eq!(t.tenant_throttles(), 1);
        let text = t.render_text();
        assert_eq!(text[1], "#000001 t5 tadm n2 demand 0");
        assert_eq!(text[2], "#000002 t6 tthr n7 prefetch 0");
        assert!(t.render_json().contains("\"ev\":\"tenant_admit\""));
        assert!(t.render_json().contains("\"ev\":\"tenant_throttle\""));
        t.reset();
        assert_eq!(t.tenant_admits(), 0);
        assert_eq!(t.tenant_throttles(), 0);
    }

    #[test]
    fn renders_are_stable() {
        let t = Tracer::new();
        t.open_span(3, Class::Demand, Some(42));
        t.cache_state(4, 42, LineTag::Empty, LineTag::Filling);
        let text = t.render_text();
        assert_eq!(text[0], "#000000 t3 s+ 0 demand seg 42");
        assert_eq!(text[1], "#000001 t4 line 42 empty>filling");
        let json = t.render_json();
        assert!(json.starts_with("[{\"seq\":0,"));
        assert!(json.contains("\"ev\":\"cache_state\""));
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
        t.park(31, "io-server 1");
        t.wake(1_000_000, "io-server 1");
        t.fault(33, "drive 0 \"dead\"");
        t.mark(34, "");
        t.policy_decision(35, "lru", "eject 42");
        t.drive_down(36, 0);
        t.watchdog_fire(36, 0, b);
        t.redispatch(37, b, 0);
        t.drive_up(90, 0);
        t.tenant_admit(91, 7, Class::CopyOut, b);
        t.tenant_throttle(91, 3, Class::Eject, b);
        t.close_span(95, a, true);
        t.close_span(96, b, false);
    }

    /// The digest is FNV-1a over exactly the `render_text()` lines —
    /// whether an event was kept or dropped past the ring cap — XOR the
    /// drop count. Computed here from the rendered lines of an uncapped
    /// tracer, byte by byte, independently of the streaming sink.
    #[test]
    fn digest_covers_the_rendered_bytes_of_every_kind_kept_or_dropped() {
        let full = Tracer::new();
        emit_every_kind(&full);
        assert_eq!(full.summary().len(), 18, "one of every EventKind");
        let mut fnv = 0xcbf2_9ce4_8422_2325u64;
        for line in full.render_text() {
            for b in line.bytes().chain([b'\n']) {
                fnv = (fnv ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let emitted = full.len();
        for cap in [usize::MAX, 11, 0] {
            let t = Tracer::with_capacity(cap);
            emit_every_kind(&t);
            let dropped = emitted.saturating_sub(cap as u64);
            assert_eq!(t.dropped(), dropped, "cap {cap}");
            assert_eq!(t.digest(), fnv ^ dropped, "cap {cap}");
            assert_eq!(t.events(), full.events()[..(emitted - dropped) as usize]);
        }
    }
}
