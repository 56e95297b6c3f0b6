//! Trace invariant checking.
//!
//! The recorder feeds every event to a checker as it is emitted, and
//! [`tracecheck`] finishes the check: it adds the end-of-trace findings
//! to the ones found on the way. The checker is a *separate* reading of
//! the history: the recorder's derived accumulators are maintained at
//! emission time from the emitter's arguments, while the checker
//! recomputes its own state from the events, so a disagreement between
//! the two (or with the engine's own counters, passed in as
//! [`Expectations`]) is a bug. Its state is bounded by what is live: a
//! span's entry goes when the span closes, a line's when the line goes
//! `empty`, a watchdog's when its span is re-dispatched or resolved. The
//! one thing it keeps per event is each device op's interval (24 bytes),
//! which the peak and down-window sweeps read when the check finishes.
//!
//! Checked invariants:
//!
//! 1. **Span lifecycle** — every span opens exactly once and closes
//!    exactly once; closes reference a known open span; optionally, no
//!    span is left open at the end of the trace.
//! 2. **Cache-line state machine** — transitions follow the legal
//!    machine (empty → filling/staging/clean/dirtywait; filling → clean;
//!    staging → dirtywait/clean; dirtywait → clean; any → empty on
//!    discard), and each event's `from` matches the tracked state.
//! 3. **Queue residency reconciliation** — the per-class sums of
//!    `Queuing` durations equal the engine's reported wait counters.
//! 4. **Coalescing** — every `Join` references a span that is open at
//!    the time of the join (a live parent op).
//! 5. **Device concurrency** — the peak overlap recomputed from `DevIo`
//!    intervals does not exceed the admitted concurrency.
//! 6. **Per-drive serialization** — when the drive-lane count is given,
//!    intervals on one drive lane never overlap (a physical drive does
//!    one transfer at a time; a back-to-back handoff at the same instant
//!    is legal), no drive lane beyond the configured count appears, and
//!    the number of simultaneously busy drive lanes never exceeds it.
//! 7. **Drive health lifecycle** — `DriveDown`/`DriveUp` events pair up
//!    per drive (no down-while-down, no up-while-up); no `DevIo`
//!    interval on a lane intersects that lane's down window; watchdog
//!    fires and re-dispatches reference spans that are open at the time;
//!    and every span a watchdog fired for is later re-dispatched or
//!    resolved (no orphaned waiter). With the drive-lane count given,
//!    the cross-lane busy peak is additionally bounded by the *healthy*
//!    drive count at each instant.
//! 8. **Tenant fair-queue lifecycle** — `TenantAdmit` and
//!    `TenantThrottle` events reference spans that are open at the time
//!    of the event (a held or admitted request is necessarily in
//!    flight), and no open span is admitted twice (a request dispatches
//!    once; re-dispatch after a drive fault is a `Redispatch`, not a
//!    second admit).
//! 9. **Recovery steps** (§10) — a `retry` follows a read fault of the
//!    same copy at the same instant; a `failover` follows a read fault
//!    of its segment and names a home other than the faulted one it
//!    leaves; once a volume is quarantined no recovery step names it
//!    again; and after a permanent `loss` on a segment, that segment's
//!    open fetch span closes `err`.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use crate::{
    BlockHashBuilder, Class, Event, EventKind, Lane, LineTag, RecoveryStep, TraceTime, Tracer,
    RECOVERY_TAGS,
};

/// External truths the trace is checked against.
#[derive(Clone, Debug, Default)]
pub struct Expectations {
    /// Per-class queue-residency sums the engine reports (`SvcStats`
    /// wait counters), in [`Class::ALL`] order. `None` skips the
    /// reconciliation.
    pub wait: Option<[TraceTime; 5]>,
    /// The admitted peak device concurrency. `None` skips the overlap
    /// check.
    pub max_dev_overlap: Option<usize>,
    /// Number of jukebox drive lanes the engine ran with. `Some(n)`
    /// tightens the overlap invariant: per-drive intervals must never
    /// overlap, no `Lane::Drive(d)` with `d >= n` may appear, and at most
    /// `n` drive lanes may be busy at once. `None` skips the per-drive
    /// checks.
    pub drive_lanes: Option<usize>,
    /// Require every span to be closed by the end of the trace (set
    /// `false` when checking mid-flight).
    pub require_all_closed: bool,
}

impl Expectations {
    /// Expectations for a quiesced engine: all spans closed, residency
    /// reconciled against `wait`, overlap bounded by `peak`.
    pub fn quiesced(wait: [TraceTime; 5], peak: usize) -> Expectations {
        Expectations {
            wait: Some(wait),
            max_dev_overlap: Some(peak),
            drive_lanes: None,
            require_all_closed: true,
        }
    }

    /// Enables the tightened per-drive invariant for an engine that ran
    /// with `n` drive lanes.
    pub fn with_drive_lanes(mut self, n: usize) -> Expectations {
        self.drive_lanes = Some(n);
        self
    }
}

/// One invariant violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Sequence number of the offending event (`u64::MAX` for
    /// whole-trace findings).
    pub seq: u64,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.seq == u64::MAX {
            write!(f, "[trace] {}", self.message)
        } else {
            write!(f, "[#{:06}] {}", self.seq, self.message)
        }
    }
}

fn whole(message: String) -> Finding {
    Finding {
        seq: u64::MAX,
        message,
    }
}

fn legal_line_transition(from: LineTag, to: LineTag) -> bool {
    use LineTag::*;
    if to == Empty {
        // Any line may be discarded/ejected.
        return from != Empty;
    }
    matches!(
        (from, to),
        (Empty, Filling)
            | (Empty, Staging)
            | (Empty, Clean)
            | (Empty, DirtyWait)
            | (Filling, Clean)
            | (Staging, DirtyWait)
            | (Staging, Clean)
            | (DirtyWait, Clean)
    )
}

/// Peak overlap of the given intervals: an op starting exactly when
/// another ends counts as overlapping (back-to-back handoff), and
/// zero-duration ops occupy their instant.
fn peak_overlap(intervals: impl Iterator<Item = (TraceTime, TraceTime)>) -> usize {
    sweep(intervals.map(|(s, e)| (s, e.saturating_add(1))))
}

/// Peak overlap under *strict* half-open `[start, end)` semantics: an op
/// starting exactly when another ends does not overlap it (that is a
/// legal back-to-back handoff on a physical drive), and zero-duration
/// ops occupy nothing. Used for the per-drive invariant, where handoffs
/// at the same instant are the normal case.
fn peak_overlap_strict(intervals: impl Iterator<Item = (TraceTime, TraceTime)>) -> usize {
    sweep(intervals.filter(|&(s, e)| e > s))
}

/// The most half-open `[start, end)` intervals covering one instant.
fn sweep(intervals: impl Iterator<Item = (TraceTime, TraceTime)>) -> usize {
    let (mut starts, mut ends): (Vec<TraceTime>, Vec<TraceTime>) = intervals.unzip();
    starts.sort_unstable();
    ends.sort_unstable();
    let (mut ei, mut cur, mut peak) = (0usize, 0usize, 0usize);
    for s in starts {
        // A backwards interval (a finding of its own) may end before any
        // start: it covers nothing.
        while ei < ends.len() && ends[ei] <= s {
            cur = cur.saturating_sub(1);
            ei += 1;
        }
        cur += 1;
        peak = peak.max(cur);
    }
    peak
}

/// Finishes the check the recorder has fed every event to since the
/// tracer was made, and returns every invariant violation found (empty =
/// the trace is consistent): the findings seen as the events arrived,
/// then the end-of-trace checks against `expect`. No event is read
/// again, and a check can be finished any number of times.
pub fn tracecheck(tracer: &Tracer, expect: &Expectations) -> Vec<Finding> {
    tracer.rec.borrow_mut().checker.finish(expect)
}

/// What the checker knows of one open span.
struct Live {
    class: Class,
    /// A fetch span's (demand or prefetch) segment, or [`NOT_A_FETCH`]:
    /// what a permanent loss is matched against. Tertiary segment
    /// numbers are `u32`s, which keeps an entry of the live-span table
    /// at 16 bytes; a span naming a wider one is not taken for a fetch.
    fetch_seg: u32,
    /// A permanent loss was declared on its segment while it was open.
    lost: bool,
    /// The fair queue admitted it.
    admitted: bool,
    /// A lane that abandoned its op pushed it back into the device queue.
    redispatched: bool,
}

/// [`Live::fetch_seg`] of a span that is not a fetch.
const NOT_A_FETCH: u32 = u32::MAX;

/// One drive lane's serialization, streamed. Its ops arrive in start
/// order, so an overlap shows as an op starting before the lane is free.
#[derive(Clone, Copy, Default)]
struct DriveLane {
    last_start: TraceTime,
    /// The latest end of a non-empty op so far.
    busy_until: TraceTime,
    /// Two ops overlapped, or one started before its predecessor: the
    /// finish sweeps this lane's intervals for its exact peak.
    recheck: bool,
}

/// How many findings seen as events arrive are listed; past it they are
/// counted, so a broken stream's checker stays bounded too.
const LISTED_FINDINGS: usize = 1_000;

/// The invariant checker the recorder feeds at emission.
#[derive(Default)]
pub(crate) struct Checker {
    /// Findings so far, in event order: the first [`LISTED_FINDINGS`].
    findings: Vec<Finding>,
    /// Findings seen past [`LISTED_FINDINGS`].
    unlisted: u64,
    /// Open spans. Hashed: a read that lists them sorts them.
    open: HashMap<u64, Live, BlockHashBuilder>,
    /// One past the highest span id opened. The recorder hands span ids
    /// out densely and in order, so every id below it has been opened
    /// and, unless it is open, closed.
    opened_below: u64,
    /// Opens of an already opened id, per span (a broken stream only).
    reopens: BTreeMap<u64, u64>,
    /// Closes of a span that was not open, per span (a broken stream
    /// only).
    stray_closes: BTreeMap<u64, u64>,
    /// Spans re-dispatched while not open (a broken stream only).
    stray_redispatches: BTreeSet<u64>,
    /// Cache-line state per tertiary segment (absent = empty). Hashed;
    /// nothing iterates it.
    lines: HashMap<u64, LineTag, BlockHashBuilder>,
    /// Queue residency recomputed per class.
    wait: [TraceTime; 5],
    /// Per drive lane, by index.
    drives: Vec<DriveLane>,
    /// Every device op, with the lane it occupied.
    dev: Vec<(Lane, TraceTime, TraceTime)>,
    /// `(peak in flight, drive peak)` over `dev`, until the next op.
    peaks: Option<(usize, usize)>,
    /// Currently down drives and when they went down (the first
    /// [`EventKind::DriveDown`] after their last [`EventKind::DriveUp`]).
    down: BTreeMap<u32, TraceTime>,
    /// Closed down windows: (drive, from, until).
    windows: Vec<(u32, TraceTime, TraceTime)>,
    /// Watchdog fires whose span is neither re-dispatched nor resolved
    /// yet: (event seq, span).
    watchdogs: Vec<(u64, u64)>,
    /// The latest recovery read fault: (time, segment, copy).
    read_fault: Option<(TraceTime, u64, (u32, u32))>,
    /// Quarantined volumes and when each was quarantined.
    quarantined: BTreeMap<u32, TraceTime>,
}

impl Checker {
    /// Checks one event against the state so far and updates it.
    pub(crate) fn feed(&mut self, ev: &Event) {
        let Checker {
            findings,
            unlisted,
            open,
            ..
        } = self;
        let mut fail = |message: fmt::Arguments| {
            if findings.len() < LISTED_FINDINGS {
                findings.push(Finding {
                    seq: ev.seq,
                    message: message.to_string(),
                });
            } else {
                *unlisted += 1;
            }
        };
        match &ev.kind {
            EventKind::SpanOpen { span, class, seg } => {
                if *span < self.opened_below {
                    let n = self.reopens.entry(*span).or_insert(1);
                    *n += 1;
                    fail(format_args!("span {span} opened {n} times"));
                }
                self.opened_below = self.opened_below.max(span + 1);
                let live = Live {
                    class: *class,
                    fetch_seg: match (class, seg.map(u32::try_from)) {
                        (Class::Demand | Class::Prefetch, Some(Ok(s))) => s,
                        _ => NOT_A_FETCH,
                    },
                    lost: false,
                    admitted: false,
                    redispatched: false,
                };
                if open.insert(*span, live).is_some() {
                    fail(format_args!("span {span} re-opened while still open"));
                }
            }
            EventKind::SpanClose { span, ok } => {
                let closed = open.remove(span);
                if let (Some(Live { lost: true, .. }), true) = (&closed, ok) {
                    fail(format_args!(
                        "span {span} closed ok after a permanent loss of its segment"
                    ));
                }
                if closed.is_none() {
                    let n = self.stray_closes.entry(*span).or_insert(0);
                    *n += 1;
                    match *n + u64::from(*span < self.opened_below) {
                        1 => fail(format_args!("span {span} closed but was never open")),
                        n => fail(format_args!("span {span} closed {n} times")),
                    }
                }
                self.watchdogs.retain(|&(_, s)| s != *span);
            }
            EventKind::Join { span, .. } => {
                if !open.contains_key(span) {
                    fail(format_args!(
                        "coalesced fetch joined span {span}, which is not a live parent op"
                    ));
                }
            }
            EventKind::Queuing {
                span,
                class,
                from,
                to,
            } => {
                if to < from {
                    fail(format_args!(
                        "queuing interval runs backwards: {from}..{to}"
                    ));
                }
                let wait = &mut self.wait[*class as usize];
                *wait = wait.saturating_add(to.saturating_sub(*from));
                // The op's span must still be in flight while it queues.
                if !open.contains_key(span) {
                    fail(format_args!(
                        "queuing recorded for span {span}, which is not open"
                    ));
                }
            }
            EventKind::QueueDepth { .. } => {}
            EventKind::CacheState { seg, from, to } => {
                let tracked = self.lines.get(seg).copied().unwrap_or(LineTag::Empty);
                if tracked != *from {
                    fail(format_args!(
                        "cache line {seg}: transition claims from={} but tracked state is {}",
                        from.label(),
                        tracked.label()
                    ));
                }
                if !legal_line_transition(*from, *to) {
                    fail(format_args!(
                        "cache line {seg}: illegal transition {}>{}",
                        from.label(),
                        to.label()
                    ));
                }
                if *to == LineTag::Empty {
                    self.lines.remove(seg);
                } else {
                    self.lines.insert(*seg, *to);
                }
            }
            EventKind::CacheRekey { old, new } => match self.lines.remove(old) {
                Some(state) => {
                    self.lines.insert(*new, state);
                }
                None => fail(format_args!(
                    "rekey of {old}>{new}: no line tracked for {old}"
                )),
            },
            EventKind::DevIo { lane, start, end } => {
                if end < start {
                    fail(format_args!("device op runs backwards: {start}..{end}"));
                }
                self.dev.push((*lane, *start, *end));
                self.peaks = None;
                if let Lane::Drive(d) = *lane {
                    let d = d as usize;
                    if self.drives.len() <= d {
                        self.drives.resize(d + 1, DriveLane::default());
                    }
                    let l = &mut self.drives[d];
                    let busy = end > start && *start < l.busy_until;
                    l.recheck |= busy || *start < l.last_start;
                    l.last_start = *start;
                    if end > start {
                        l.busy_until = l.busy_until.max(*end);
                    }
                }
            }
            EventKind::DriveDown { drive } => {
                if self.down.contains_key(drive) {
                    fail(format_args!(
                        "drive d{drive} marked down while already down"
                    ));
                } else {
                    self.down.insert(*drive, ev.at);
                }
            }
            EventKind::DriveUp { drive } => match self.down.remove(drive) {
                Some(since) => self.windows.push((*drive, since, ev.at)),
                None => fail(format_args!("drive d{drive} marked up but was not down")),
            },
            EventKind::WatchdogFire { span, .. } => {
                let settled = match open.get(span) {
                    Some(live) => live.redispatched,
                    None => {
                        fail(format_args!(
                            "watchdog fired for span {span}, which is not open"
                        ));
                        *span < self.opened_below
                            || self.stray_closes.contains_key(span)
                            || self.stray_redispatches.contains(span)
                    }
                };
                if !settled {
                    self.watchdogs.push((ev.seq, *span));
                }
            }
            EventKind::Redispatch { span, .. } => {
                match open.get_mut(span) {
                    Some(live) => live.redispatched = true,
                    None => {
                        fail(format_args!(
                            "re-dispatch of span {span}, which is not open"
                        ));
                        self.stray_redispatches.insert(*span);
                    }
                }
                self.watchdogs.retain(|&(_, s)| s != *span);
            }
            EventKind::TenantAdmit { tenant, span, .. } => match open.get_mut(span) {
                Some(live) if live.admitted => {
                    fail(format_args!("span {span} admitted twice by the fair queue"));
                }
                Some(live) => live.admitted = true,
                None => fail(format_args!(
                    "tenant n{tenant} admit references span {span}, which is not open"
                )),
            },
            EventKind::TenantThrottle { tenant, span, .. } => {
                if !open.contains_key(span) {
                    fail(format_args!(
                        "tenant n{tenant} throttle references span {span}, which is not open"
                    ));
                }
            }
            EventKind::Recovery { seg, step } => {
                let tag = RECOVERY_TAGS[step.index()];
                for vol in step.volumes() {
                    if let Some(since) = self.quarantined.get(&vol) {
                        fail(format_args!(
                            "recovery step {tag} of seg {seg} names v{vol}, quarantined at t{since}"
                        ));
                    }
                }
                match *step {
                    RecoveryStep::ReadFault { copy } => {
                        self.read_fault = Some((ev.at, *seg, copy));
                    }
                    RecoveryStep::Retry { copy, .. } => {
                        if self.read_fault != Some((ev.at, *seg, copy)) {
                            fail(format_args!(
                                "retry of seg {seg} v{}/s{} at t{} follows no read fault of that copy then",
                                copy.0, copy.1, ev.at
                            ));
                        }
                    }
                    RecoveryStep::Failover { copy } => match self.read_fault {
                        Some((_, s, left)) if s == *seg && left != copy => {}
                        Some((_, s, left)) if s == *seg => fail(format_args!(
                            "failover of seg {seg} names v{}/s{}, the home it leaves",
                            left.0, left.1
                        )),
                        _ => fail(format_args!(
                            "failover of seg {seg} follows no read fault of that segment"
                        )),
                    },
                    RecoveryStep::Quarantine { vol, .. } => {
                        self.quarantined.entry(vol).or_insert(ev.at);
                    }
                    RecoveryStep::PermanentLoss => {
                        let fetch_seg = u32::try_from(*seg).ok().filter(|&s| s != NOT_A_FETCH);
                        let mut any = false;
                        for live in open.values_mut().filter(|l| Some(l.fetch_seg) == fetch_seg) {
                            live.lost = true;
                            any = true;
                        }
                        if !any {
                            fail(format_args!(
                                "permanent loss of seg {seg} with no open fetch span"
                            ));
                        }
                    }
                    RecoveryStep::ScrubCopy { .. }
                    | RecoveryStep::WriteFault { .. }
                    | RecoveryStep::EndOfMedium { .. } => {}
                }
            }
            EventKind::Fault { .. } | EventKind::Mark { .. } => {}
        }
    }

    /// `(peak in flight, drive peak)`: see [`Tracer::peak_in_flight`]
    /// and [`Tracer::drive_peak`]. Read-outs, [`tracecheck`] among them,
    /// sweep once per new device op.
    pub(crate) fn peaks(&mut self) -> (usize, usize) {
        let dev = &self.dev;
        *self.peaks.get_or_insert_with(|| {
            let drive = dev.iter().filter(|(l, _, _)| matches!(l, Lane::Drive(_)));
            (
                peak_overlap(dev.iter().map(|&(_, s, e)| (s, e))),
                peak_overlap_strict(drive.map(|&(_, s, e)| (s, e))),
            )
        })
    }

    /// Each drive's down windows `(drive, down, up)`: the closed ones in
    /// the order they closed, then the drives still down (`up` is
    /// `None`) in drive order.
    pub(crate) fn down_windows(
        &self,
    ) -> impl Iterator<Item = (u32, TraceTime, Option<TraceTime>)> + '_ {
        let closed = self.windows.iter().map(|&(d, s, e)| (d, s, Some(e)));
        closed.chain(self.down.iter().map(|(&d, &s)| (d, s, None)))
    }

    /// Currently open spans, in id order.
    pub(crate) fn live_spans(&self) -> Vec<(u64, Class)> {
        let mut live: Vec<(u64, Class)> = self.open.iter().map(|(&s, l)| (s, l.class)).collect();
        live.sort_unstable_by_key(|&(s, _)| s);
        live
    }

    /// The findings so far plus the end-of-trace checks against `expect`.
    fn finish(&mut self, expect: &Expectations) -> Vec<Finding> {
        let mut findings = self.findings.clone();
        if self.unlisted > 0 {
            findings.push(whole(format!(
                "{} more finding(s) as events arrived, counted but not listed",
                self.unlisted
            )));
        }
        // Every watchdog-fired span must have been handed to another lane
        // or resolved; otherwise its waiters are orphaned forever.
        for &(seq, span) in &self.watchdogs {
            findings.push(Finding {
                seq,
                message: format!(
                    "watchdog fired for span {span} but the op was neither re-dispatched nor resolved"
                ),
            });
        }
        // Drives still down at the end of the trace close open-ended
        // windows (legitimately: a dead drive may never come back).
        let windows: Vec<(u32, TraceTime, TraceTime)> = self
            .down_windows()
            .map(|(d, s, e)| (d, s, e.unwrap_or(TraceTime::MAX)))
            .collect();
        // No device op may execute on a lane inside that lane's down
        // window. An op *ending* exactly at the down time is clean:
        // faults are detected at op start, so a successful transfer
        // always precedes the detection-time DriveDown.
        if !windows.is_empty() {
            for &(lane, s, e) in &self.dev {
                if let Lane::Drive(d) = lane {
                    let ee = if e > s { e } else { s.saturating_add(1) };
                    for &(wd, ws, we) in &windows {
                        if wd == d && s < we && ws < ee {
                            findings.push(whole(format!(
                                "device op at t{s}..t{e} on drive lane d{d}, which was down t{ws}..t{we}"
                            )));
                        }
                    }
                }
            }
        }

        if expect.require_all_closed && !self.open.is_empty() {
            let ids: Vec<String> = self
                .live_spans()
                .into_iter()
                .map(|(s, class)| format!("{s} ({})", class.label()))
                .collect();
            findings.push(whole(format!(
                "{} span(s) left open at end of trace: {}",
                self.open.len(),
                ids.join(", ")
            )));
        }
        if let Some(expected) = expect.wait {
            for class in Class::ALL {
                let got = self.wait[class as usize];
                let want = expected[class as usize];
                if got != want {
                    findings.push(whole(format!(
                        "queue residency mismatch for {}: trace sums {got}, engine reports {want}",
                        class.label()
                    )));
                }
            }
        }
        let (peak_in_flight, drive_peak) = self.peaks();
        // From the engine this is a value against itself (`io_peak_in_flight`
        // is this sweep over these intervals); kept because `benchmark/`
        // builds `Expectations::quiesced(wait, peak)` — a benchmark-only
        // PR can drop it.
        if let Some(max) = expect.max_dev_overlap {
            if peak_in_flight > max {
                findings.push(whole(format!(
                    "device ops overlap beyond admitted concurrency: trace peak {peak_in_flight} > admitted {max}"
                )));
            }
        }
        if let Some(drives) = expect.drive_lanes {
            for &(lane, _, _) in &self.dev {
                match lane {
                    Lane::Drive(d) if d as usize >= drives => findings.push(whole(format!(
                        "device op on drive lane d{d}, but the engine ran with {drives} drive(s)"
                    ))),
                    _ => {}
                }
            }
            for (d, lane) in self.drives.iter().enumerate() {
                if !lane.recheck {
                    continue;
                }
                let on_d = |&&(l, _, _): &&(Lane, TraceTime, TraceTime)| l == Lane::Drive(d as u32);
                let peak =
                    peak_overlap_strict(self.dev.iter().filter(on_d).map(|&(_, s, e)| (s, e)));
                if peak > 1 {
                    findings.push(whole(format!(
                        "drive d{d} ran {peak} ops at once: per-drive intervals must never overlap"
                    )));
                }
            }
            if drive_peak > drives {
                findings.push(whole(format!(
                    "{drive_peak} drive-lane ops in flight at once, but the engine ran with {drives} drive(s)"
                )));
            }
            // With down windows recorded, tighten the cross-lane bound to
            // the *healthy* drive count at each instant: interval ends
            // first, then health changes, then interval starts, so a
            // handoff at the very moment a drive dies is judged fairly.
            if !windows.is_empty() {
                let mut sweep: Vec<(TraceTime, u8, i64)> = Vec::new();
                for &(lane, s, e) in &self.dev {
                    if matches!(lane, Lane::Drive(_)) && e > s {
                        sweep.push((s, 2, 1));
                        sweep.push((e, 0, -1));
                    }
                }
                for &(_, ws, we) in &windows {
                    sweep.push((ws, 1, -1));
                    if we != TraceTime::MAX {
                        sweep.push((we, 1, 1));
                    }
                }
                sweep.sort_unstable();
                let (mut busy, mut healthy) = (0i64, drives as i64);
                for (t, class, delta) in sweep {
                    match class {
                        1 => healthy += delta,
                        _ => busy += delta,
                    }
                    if class == 2 && busy > healthy.max(0) {
                        findings.push(whole(format!(
                            "{busy} drive-lane ops in flight at t{t} with only {healthy} healthy drive(s)"
                        )));
                        break;
                    }
                }
            }
        }
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueueId;

    #[test]
    fn clean_lifecycle_has_no_findings() {
        let t = Tracer::new();
        let s = t.open_span(0, Class::Demand, Some(4));
        t.queue_depth(0, QueueId::Request, 1);
        t.queuing(2_000, s, Class::Demand, 0, 2_000);
        t.cache_state(2_000, 4, LineTag::Empty, LineTag::Filling);
        t.dev_io(Lane::Drive(0), 2_000, 10_000);
        t.cache_state(10_000, 4, LineTag::Filling, LineTag::Clean);
        t.close_span(10_000, s, true);
        let f = tracecheck(&t, &Expectations::quiesced([2_000, 0, 0, 0, 0], 1));
        assert!(f.is_empty(), "unexpected findings: {f:?}");
    }

    #[test]
    fn unclosed_span_is_a_finding() {
        let t = Tracer::new();
        t.open_span(0, Class::Scrub, None);
        let f = tracecheck(
            &t,
            &Expectations {
                require_all_closed: true,
                ..Expectations::default()
            },
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("left open"));
        // Mid-flight checks tolerate it.
        assert!(tracecheck(&t, &Expectations::default()).is_empty());
    }

    #[test]
    fn double_close_and_unknown_close_are_findings() {
        let t = Tracer::new();
        let s = t.open_span(0, Class::Demand, Some(1));
        t.close_span(1, s, true);
        t.close_span(2, s, true);
        t.close_span(3, 999, false);
        let f = tracecheck(&t, &Expectations::default());
        assert_eq!(f.len(), 2);
        assert!(f[0].message.contains("closed 2 times"));
        assert!(f[1].message.contains("never open"));
    }

    #[test]
    fn illegal_cache_transition_is_a_finding() {
        let t = Tracer::new();
        t.cache_state(0, 7, LineTag::Empty, LineTag::Clean);
        t.cache_state(1, 7, LineTag::Clean, LineTag::Filling);
        let f = tracecheck(&t, &Expectations::default());
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("illegal transition clean>filling"));
    }

    #[test]
    fn mistracked_from_state_is_a_finding() {
        let t = Tracer::new();
        t.cache_state(0, 7, LineTag::Empty, LineTag::Staging);
        // Claims the line is filling, but it is staging.
        t.cache_state(1, 7, LineTag::Filling, LineTag::Clean);
        let f = tracecheck(&t, &Expectations::default());
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("tracked state is staging"));
    }

    #[test]
    fn rekey_moves_the_tracked_state() {
        let t = Tracer::new();
        t.cache_state(0, 7, LineTag::Empty, LineTag::DirtyWait);
        t.cache_rekey(1, 7, 9);
        t.cache_state(2, 9, LineTag::DirtyWait, LineTag::Clean);
        assert!(tracecheck(&t, &Expectations::default()).is_empty());
    }

    #[test]
    fn join_requires_a_live_parent() {
        let t = Tracer::new();
        let s = t.open_span(0, Class::Prefetch, Some(2));
        t.join(1, s, Class::Demand);
        t.close_span(2, s, true);
        t.join(3, s, Class::Demand);
        let f = tracecheck(&t, &Expectations::default());
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("not a live parent"));
    }

    #[test]
    fn residency_mismatch_is_a_finding() {
        let t = Tracer::new();
        let s = t.open_span(0, Class::CopyOut, Some(3));
        t.queuing(5, s, Class::CopyOut, 0, 5);
        t.close_span(5, s, true);
        let f = tracecheck(&t, &Expectations::quiesced([0, 0, 4, 0, 0], 8));
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("trace sums 5, engine reports 4"));
    }

    #[test]
    fn excess_device_overlap_is_a_finding() {
        let t = Tracer::new();
        t.dev_io(Lane::Drive(0), 0, 100);
        t.dev_io(Lane::Drive(1), 50, 150);
        t.dev_io(Lane::Staging, 60, 160);
        let f = tracecheck(
            &t,
            &Expectations {
                max_dev_overlap: Some(2),
                ..Expectations::default()
            },
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("trace peak 3 > admitted 2"));
    }

    #[test]
    fn same_drive_overlap_is_a_finding_but_handoffs_are_not() {
        let t = Tracer::new();
        // Overlapping ops on d0; a back-to-back handoff on d1 is legal.
        t.dev_io(Lane::Drive(0), 0, 100);
        t.dev_io(Lane::Drive(0), 90, 150);
        t.dev_io(Lane::Drive(1), 0, 50);
        t.dev_io(Lane::Drive(1), 50, 80);
        let f = tracecheck(&t, &Expectations::default().with_drive_lanes(2));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("drive d0 ran 2 ops at once"));
    }

    #[test]
    fn drive_lane_beyond_the_pool_is_a_finding() {
        let t = Tracer::new();
        t.dev_io(Lane::Drive(3), 0, 10);
        let f = tracecheck(&t, &Expectations::default().with_drive_lanes(2));
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("drive lane d3"));
    }

    #[test]
    fn staging_lane_is_exempt_from_the_drive_bound() {
        let t = Tracer::new();
        // Two drives busy plus concurrent staging traffic: clean under
        // the tightened invariant (the disk arm serializes staging in
        // simulated time; the drive bound only counts drive lanes).
        t.dev_io(Lane::Drive(0), 0, 100);
        t.dev_io(Lane::Drive(1), 10, 90);
        t.dev_io(Lane::Staging, 20, 80);
        let f = tracecheck(&t, &Expectations::default().with_drive_lanes(2));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn fault_lifecycle_with_redispatch_is_clean() {
        let t = Tracer::new();
        // d0 hangs mid-op: watchdog fires, the lane goes down, the op is
        // re-dispatched and completes on d1; d0 later heals (hot spare).
        let s = t.open_span(0, Class::Demand, Some(9));
        t.watchdog_fire(5_000, 0, s);
        t.drive_down(5_000, 0);
        t.redispatch(5_000, s, 0);
        t.dev_io(Lane::Drive(1), 5_000, 9_000);
        t.close_span(9_000, s, true);
        t.drive_up(20_000, 0);
        let f = tracecheck(&t, &Expectations::default().with_drive_lanes(2));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn drive_down_up_pairing_is_enforced() {
        let t = Tracer::new();
        t.drive_down(10, 0);
        t.drive_down(20, 0);
        t.drive_up(30, 0);
        t.drive_up(40, 1);
        let f = tracecheck(&t, &Expectations::default());
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("already down"));
        assert!(f[1].message.contains("was not down"));
        // The window opens at the first down, not the repeated one.
        assert_eq!(t.down_windows(), vec![(0, 10, Some(30))]);
    }

    #[test]
    fn dev_io_inside_a_down_window_is_a_finding() {
        let t = Tracer::new();
        t.dev_io(Lane::Drive(0), 50, 100);
        t.drive_down(100, 0);
        t.dev_io(Lane::Drive(0), 150, 180);
        t.drive_up(200, 0);
        t.dev_io(Lane::Drive(0), 200, 250);
        let f = tracecheck(&t, &Expectations::default());
        // Only the op inside the window fires: the op ending exactly at
        // the down instant and the one starting at the up instant are
        // legal boundary cases.
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("down t100..t200"));
    }

    #[test]
    fn dev_io_on_a_never_recovered_drive_is_a_finding() {
        let t = Tracer::new();
        t.drive_down(10, 2);
        t.dev_io(Lane::Drive(2), 500, 600);
        let f = tracecheck(&t, &Expectations::default());
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("drive lane d2"));
    }

    #[test]
    fn watchdog_span_must_be_redispatched_or_resolved() {
        let t = Tracer::new();
        let s = t.open_span(0, Class::Prefetch, Some(3));
        t.watchdog_fire(100, 1, s);
        // Neither re-dispatched nor closed: its waiters are orphaned.
        let f = tracecheck(&t, &Expectations::default());
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("neither re-dispatched nor resolved"));
        // A failed close still counts as resolving the waiters.
        t.close_span(200, s, false);
        assert!(tracecheck(&t, &Expectations::default()).is_empty());
    }

    #[test]
    fn watchdog_and_redispatch_need_an_open_span() {
        let t = Tracer::new();
        t.watchdog_fire(10, 0, 77);
        t.redispatch(11, 77, 0);
        let f = tracecheck(&t, &Expectations::default());
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("watchdog fired for span 77"));
        assert!(f[1].message.contains("re-dispatch of span 77"));
    }

    #[test]
    fn busy_peak_is_bounded_by_healthy_drives() {
        let t = Tracer::new();
        t.drive_down(100, 0);
        // d0 runs an op while down: both the window check and the
        // healthy-count sweep object.
        t.dev_io(Lane::Drive(0), 120, 200);
        t.dev_io(Lane::Drive(1), 120, 200);
        let f = tracecheck(&t, &Expectations::default().with_drive_lanes(2));
        assert!(f.iter().any(|f| f.message.contains("healthy")), "{f:?}");
        assert!(f.iter().any(|f| f.message.contains("was down")), "{f:?}");
    }

    #[test]
    fn tenant_events_need_an_open_span() {
        let t = Tracer::new();
        let s = t.open_span(0, Class::Demand, Some(2));
        t.tenant_admit(1, 0, Class::Demand, s);
        t.tenant_throttle(1, 1, Class::Prefetch, s);
        t.close_span(2, s, true);
        assert!(tracecheck(&t, &Expectations::default()).is_empty());
        // After the close, both events are findings.
        t.tenant_admit(3, 0, Class::Demand, 99);
        t.tenant_throttle(3, 1, Class::Prefetch, 99);
        let f = tracecheck(&t, &Expectations::default());
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("admit references span 99"));
        assert!(f[1].message.contains("throttle references span 99"));
    }

    /// Whatever order the checker's and the recorder's tables keep, what
    /// they are read as is ordered: open spans and the "left open"
    /// finding by id, residencies by value. Spans 0..8 open, the even
    /// ones close (out of the order they opened in, as far as the table
    /// is concerned), a line is re-keyed, and a close of a closed span
    /// comes in as a stray. Seen red, each sabotage alone, with the
    /// span and residency tables hashed: `open_spans()` without its
    /// sort; the "left open" finding read straight off the span table;
    /// `residencies()` expanded straight off the residency table.
    #[test]
    fn open_spans_the_left_open_finding_and_residencies_read_in_order() {
        let t = Tracer::new();
        let class = |i: u64| Class::ALL[i as usize % Class::ALL.len()];
        let spans: Vec<u64> = (0..8).map(|i| t.open_span(i, class(i), Some(i))).collect();
        let residency = [40, 3, 17, 3, 900, 0, 250, 11];
        for (&s, r) in spans.iter().zip(residency) {
            t.queuing(1_000, s, Class::Demand, 1_000 - r, 1_000);
        }
        for &s in spans.iter().step_by(2) {
            t.close_span(2_000, s, true);
        }
        t.cache_state(2_000, 5, LineTag::Empty, LineTag::Staging);
        t.cache_rekey(2_001, 5, 9);
        t.cache_state(2_002, 9, LineTag::Staging, LineTag::DirtyWait);
        t.close_span(2_003, 2, true);

        let odd = [1, 3, 5, 7].map(|s| (s, class(s)));
        assert_eq!(t.open_spans(), odd);
        assert_eq!(
            t.residencies(Class::Demand),
            [0, 3, 3, 11, 17, 40, 250, 900]
        );
        let f = tracecheck(
            &t,
            &Expectations {
                require_all_closed: true,
                ..Expectations::default()
            },
        );
        let messages: Vec<&str> = f.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(
            messages,
            [
                "span 2 closed 2 times",
                "4 span(s) left open at end of trace: 1 (eject), 3 (prefetch), 5 (demand), 7 (copyout)"
            ]
        );
    }

    use crate::RecoveryStep::{Failover, PermanentLoss, Quarantine, ReadFault, Retry};

    /// What `fetch_segment` traces when a fetch of segment 9 retries
    /// copy v0/s1, quarantines volume 0, fails over to v1/s1, and loses
    /// the segment there; then the fetch span closes `err`.
    fn lost_fetch(t: &Tracer) -> u64 {
        let s = t.open_span(0, Class::Demand, Some(9));
        t.recovery(10, 9, ReadFault { copy: (0, 1) });
        t.recovery(
            10,
            9,
            Retry {
                copy: (0, 1),
                attempt: 1,
            },
        );
        t.recovery(60, 9, ReadFault { copy: (0, 1) });
        t.recovery(
            60,
            9,
            Quarantine {
                vol: 0,
                failures: 2,
            },
        );
        t.recovery(60, 9, Failover { copy: (1, 1) });
        t.recovery(60, 9, ReadFault { copy: (1, 1) });
        t.recovery(60, 9, PermanentLoss);
        s
    }

    /// The recovery-step invariants (§10), each broken alone on a
    /// stream that is clean without the break. In the engine, each was
    /// seen red by a sabotage applied alone in a copy of the tree:
    ///   * a retry stamped after its backoff, not at its fault —
    ///     `tests/trace_props.rs` (a retry with no read fault then);
    ///   * a failover naming the copy it leaves — `fault_recovery.rs`'s
    ///     volume-loss scenario (`assert_clean`) and `trace_props.rs`
    ///     (each also names the quarantined volume it leaves);
    ///   * `fetch_segment` reading a segment's one home although its
    ///     volume is quarantined — the read fault on it in
    ///     `trace_props.rs`;
    ///   * `refuse` closing a lost fetch's span `ok` — the loss rule in
    ///     `trace_props.rs` and `recovery_edges.rs`'s dispatch-time
    ///     refusals.
    #[test]
    fn recovery_steps_keep_the_fault_invariants() {
        let t = Tracer::new();
        let s = lost_fetch(&t);
        t.close_span(60, s, false);
        assert!(tracecheck(&t, &Expectations::default()).is_empty());

        // A retry at another instant, and of another copy.
        let t = Tracer::new();
        let s = lost_fetch(&t);
        t.close_span(60, s, false);
        t.recovery(70, 9, ReadFault { copy: (1, 1) });
        let retry = |copy, at| {
            t.recovery(at, 9, Retry { copy, attempt: 1 });
        };
        retry((1, 1), 71);
        retry((2, 1), 70);
        let f = tracecheck(&t, &Expectations::default());
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("retry of seg 9 v1/s1 at t71"));
        assert!(f[1].message.contains("retry of seg 9 v2/s1 at t70"));

        // A failover to the home it leaves, and one after no read fault
        // of its segment.
        let t = Tracer::new();
        t.recovery(5, 3, ReadFault { copy: (2, 0) });
        t.recovery(5, 3, Failover { copy: (2, 0) });
        t.recovery(6, 4, Failover { copy: (2, 0) });
        let f = tracecheck(&t, &Expectations::default());
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("names v2/s0, the home it leaves"));
        assert!(f[1].message.contains("seg 4 follows no read fault"));

        // A step naming a quarantined volume, a second quarantine of it
        // among them.
        let t = Tracer::new();
        let s = lost_fetch(&t);
        t.close_span(60, s, false);
        t.recovery(80, 5, ReadFault { copy: (0, 3) });
        t.recovery(
            80,
            5,
            Quarantine {
                vol: 0,
                failures: 3,
            },
        );
        let f = tracecheck(&t, &Expectations::default());
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0]
            .message
            .contains("rfault of seg 5 names v0, quarantined at t60"));
        assert!(f[1].message.contains("quarantine of seg 5 names v0"));

        // A lost fetch's span closing ok, and a loss with no fetch open:
        // a copy-out span on the segment is not one.
        let t = Tracer::new();
        let s = lost_fetch(&t);
        t.close_span(60, s, true);
        let c = t.open_span(90, Class::CopyOut, Some(9));
        t.recovery(90, 9, PermanentLoss);
        t.close_span(91, c, true);
        let f = tracecheck(&t, &Expectations::default());
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0]
            .message
            .contains("span 0 closed ok after a permanent loss"));
        assert!(f[1]
            .message
            .contains("loss of seg 9 with no open fetch span"));
    }

    #[test]
    fn double_admit_of_one_span_is_a_finding() {
        let t = Tracer::new();
        let s = t.open_span(0, Class::Demand, Some(2));
        t.tenant_admit(1, 0, Class::Demand, s);
        t.tenant_admit(2, 0, Class::Demand, s);
        t.close_span(3, s, true);
        let f = tracecheck(&t, &Expectations::default());
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("admitted twice"));
    }
}
