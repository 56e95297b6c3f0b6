//! Trace invariant checking.
//!
//! [`tracecheck`] replays a recorded trace and verifies the lifecycle
//! rules the engine is supposed to obey. It is a *separate* reading of
//! the history: the recorder's derived accumulators are maintained
//! eagerly at emission time, while the checker recomputes everything
//! from the retained events, so a disagreement between the two (or with
//! the engine's own counters, passed in as [`Expectations`]) is a bug.
//!
//! Checked invariants:
//!
//! 1. **Span lifecycle** — every span opens exactly once and closes
//!    exactly once; closes reference a known open span (or one carried
//!    over a reset as baseline); optionally, no span is left open at the
//!    end of the trace.
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
//! 8. **Lane sharing** — when the configured jukebox drive count is
//!    given and exceeds the engine's lane count, the silent sharing is
//!    itself reported as a finding.
//! 9. **Tenant fair-queue lifecycle** — `TenantAdmit` and
//!    `TenantThrottle` events reference spans that are open at the time
//!    of the event (a held or admitted request is necessarily in
//!    flight), and no span is admitted twice (a request dispatches
//!    once; re-dispatch after a drive fault is a `Redispatch`, not a
//!    second admit).

use std::collections::{BTreeMap, BTreeSet};

use crate::{Class, Event, EventKind, Lane, LineTag, TraceTime, Tracer};

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
    /// Number of drives the jukebox was *configured* with. When this
    /// exceeds `drive_lanes` the engine silently shares lanes across
    /// drives; `Some(n)` turns that into an explicit finding. `None`
    /// skips the check.
    pub configured_drives: Option<usize>,
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
            configured_drives: None,
            require_all_closed: true,
        }
    }

    /// Enables the tightened per-drive invariant for an engine that ran
    /// with `n` drive lanes.
    pub fn with_drive_lanes(mut self, n: usize) -> Expectations {
        self.drive_lanes = Some(n);
        self
    }

    /// Declares the jukebox's configured drive count, enabling the
    /// lane-sharing finding when it exceeds the engine's lane count.
    pub fn with_configured_drives(mut self, n: usize) -> Expectations {
        self.configured_drives = Some(n);
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
pub(crate) fn peak_overlap(intervals: &[(TraceTime, TraceTime)]) -> usize {
    if intervals.is_empty() {
        return 0;
    }
    let mut starts: Vec<TraceTime> = intervals.iter().map(|&(s, _)| s).collect();
    let mut ends: Vec<TraceTime> = intervals
        .iter()
        .map(|&(_, e)| e.saturating_add(1))
        .collect();
    starts.sort_unstable();
    ends.sort_unstable();
    let (mut si, mut ei) = (0usize, 0usize);
    let (mut cur, mut peak) = (0usize, 0usize);
    while si < starts.len() {
        if starts[si] < ends[ei] {
            cur += 1;
            peak = peak.max(cur);
            si += 1;
        } else {
            cur -= 1;
            ei += 1;
        }
    }
    peak
}

/// Peak overlap under *strict* half-open `[start, end)` semantics: an op
/// starting exactly when another ends does not overlap it (that is a
/// legal back-to-back handoff on a physical drive), and zero-duration
/// ops occupy nothing. Used for the per-drive invariant, where handoffs
/// at the same instant are the normal case.
pub(crate) fn peak_overlap_strict(intervals: &[(TraceTime, TraceTime)]) -> usize {
    let mut starts: Vec<TraceTime> = Vec::new();
    let mut ends: Vec<TraceTime> = Vec::new();
    for &(s, e) in intervals {
        if e > s {
            starts.push(s);
            ends.push(e);
        }
    }
    starts.sort_unstable();
    ends.sort_unstable();
    let (mut si, mut ei) = (0usize, 0usize);
    let (mut cur, mut peak) = (0usize, 0usize);
    while si < starts.len() {
        if starts[si] < ends[ei] {
            cur += 1;
            peak = peak.max(cur);
            si += 1;
        } else {
            cur -= 1;
            ei += 1;
        }
    }
    peak
}

/// Replays the tracer's retained events and returns every invariant
/// violation found (empty = the trace is consistent).
///
/// A truncated trace (events emitted past the retention bound) cannot be
/// verified and is itself reported as a finding; size test scenarios
/// under the bound, or raise it with [`Tracer::with_capacity`].
pub fn tracecheck(tracer: &Tracer, expect: &Expectations) -> Vec<Finding> {
    let mut findings = Vec::new();
    if tracer.dropped() > 0 {
        findings.push(whole(format!(
            "trace truncated: {} events dropped past the retention bound",
            tracer.dropped()
        )));
        return findings;
    }
    let events = tracer.events();

    // Span bookkeeping, seeded with the spans carried over a reset.
    let mut open: BTreeMap<u64, Class> = tracer.baseline_open().into_iter().collect();
    let mut ever_opened: BTreeMap<u64, u64> = BTreeMap::new(); // span -> open count
    let mut ever_closed: BTreeMap<u64, u64> = BTreeMap::new();
    // Cache-line state per tertiary segment (absent = empty).
    let mut lines: BTreeMap<u64, LineTag> = BTreeMap::new();
    // Queue residency recomputed per class.
    let mut wait = [0u64; 5];
    // Device intervals, with the lane each occupied.
    let mut devops: Vec<(Lane, TraceTime, TraceTime)> = Vec::new();
    // Drive health bookkeeping (down windows, watchdog/re-dispatch spans).
    let mut health = HealthState::default();
    // Spans the fair queue has admitted (each at most once).
    let mut admitted: BTreeSet<u64> = BTreeSet::new();

    for ev in &events {
        check_event(
            ev,
            &mut findings,
            &mut open,
            &mut ever_opened,
            &mut ever_closed,
            &mut lines,
            &mut wait,
            &mut devops,
            &mut health,
            &mut admitted,
        );
    }
    // Drives still down at the end of the trace close open-ended windows
    // (legitimately: a dead drive may never come back).
    for (d, since) in std::mem::take(&mut health.down) {
        health.windows.push((d, since, TraceTime::MAX));
    }
    // Every watchdog-fired span must have been handed to another lane or
    // resolved; otherwise its waiters are orphaned forever.
    for &(seq, span) in &health.watchdogs {
        if !health.redispatched.contains(&span) && !ever_closed.contains_key(&span) {
            findings.push(Finding {
                seq,
                message: format!(
                    "watchdog fired for span {span} but the op was neither re-dispatched nor resolved"
                ),
            });
        }
    }
    // No device op may execute on a lane inside that lane's down window.
    // An op *ending* exactly at the down time is clean: faults are
    // detected at op start, so a successful transfer always precedes the
    // detection-time DriveDown.
    for &(lane, s, e) in &devops {
        if let Lane::Drive(d) = lane {
            let ee = if e > s { e } else { s.saturating_add(1) };
            for &(wd, ws, we) in &health.windows {
                if wd == d && s < we && ws < ee {
                    findings.push(whole(format!(
                        "device op at t{s}..t{e} on drive lane d{d}, which was down t{ws}..t{we}"
                    )));
                }
            }
        }
    }

    if expect.require_all_closed && !open.is_empty() {
        let ids: Vec<String> = open
            .iter()
            .map(|(s, c)| format!("{s} ({})", c.label()))
            .collect();
        findings.push(whole(format!(
            "{} span(s) left open at end of trace: {}",
            open.len(),
            ids.join(", ")
        )));
    }
    if let Some(expected) = expect.wait {
        for class in Class::ALL {
            let got = wait[class as usize];
            let want = expected[class as usize];
            if got != want {
                findings.push(whole(format!(
                    "queue residency mismatch for {}: trace sums {got}, engine reports {want}",
                    class.label()
                )));
            }
        }
    }
    // From the engine this is a value against itself (`io_peak_in_flight`
    // is this sweep over these events); kept because `benchmark/` builds
    // `Expectations::quiesced(wait, peak)` — a benchmark-only PR can drop it.
    if let Some(max) = expect.max_dev_overlap {
        let peak = tracer.peak_in_flight();
        if peak > max {
            findings.push(whole(format!(
                "device ops overlap beyond admitted concurrency: trace peak {peak} > admitted {max}"
            )));
        }
    }
    if let Some(drives) = expect.drive_lanes {
        let mut per_drive: BTreeMap<u32, Vec<(TraceTime, TraceTime)>> = BTreeMap::new();
        for &(lane, s, e) in &devops {
            if let Lane::Drive(d) = lane {
                if (d as usize) >= drives {
                    findings.push(whole(format!(
                        "device op on drive lane d{d}, but the engine ran with {drives} drive(s)"
                    )));
                }
                per_drive.entry(d).or_default().push((s, e));
            }
        }
        for (d, ivals) in &per_drive {
            let peak = peak_overlap_strict(ivals);
            if peak > 1 {
                findings.push(whole(format!(
                    "drive d{d} ran {peak} ops at once: per-drive intervals must never overlap"
                )));
            }
        }
        let peak = tracer.drive_peak();
        if peak > drives {
            findings.push(whole(format!(
                "{peak} drive-lane ops in flight at once, but the engine ran with {drives} drive(s)"
            )));
        }
        // With down windows recorded, tighten the cross-lane bound to the
        // *healthy* drive count at each instant: interval ends first,
        // then health changes, then interval starts, so a handoff at the
        // very moment a drive dies is judged fairly.
        if !health.windows.is_empty() {
            let mut sweep: Vec<(TraceTime, u8, i64)> = Vec::new();
            for &(lane, s, e) in &devops {
                if matches!(lane, Lane::Drive(_)) && e > s {
                    sweep.push((s, 2, 1));
                    sweep.push((e, 0, -1));
                }
            }
            for &(_, ws, we) in &health.windows {
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
    if let (Some(configured), Some(lanes)) = (expect.configured_drives, expect.drive_lanes) {
        if configured > lanes {
            findings.push(whole(format!(
                "jukebox configured with {configured} drives but the engine ran {lanes} lane(s): drives silently share lanes"
            )));
        }
    }
    findings
}

/// Drive-health state accumulated while replaying the trace.
#[derive(Default)]
struct HealthState {
    /// Currently-down drives and when they went down.
    down: BTreeMap<u32, TraceTime>,
    /// Completed down windows: (drive, from, until) — `until` is
    /// `TraceTime::MAX` for a drive still down at end of trace.
    windows: Vec<(u32, TraceTime, TraceTime)>,
    /// Watchdog fires: (event seq, span fired for).
    watchdogs: Vec<(u64, u64)>,
    /// Spans that were re-dispatched to another lane.
    redispatched: BTreeSet<u64>,
}

#[allow(clippy::too_many_arguments)]
fn check_event(
    ev: &Event,
    findings: &mut Vec<Finding>,
    open: &mut BTreeMap<u64, Class>,
    ever_opened: &mut BTreeMap<u64, u64>,
    ever_closed: &mut BTreeMap<u64, u64>,
    lines: &mut BTreeMap<u64, LineTag>,
    wait: &mut [u64; 5],
    devops: &mut Vec<(Lane, TraceTime, TraceTime)>,
    health: &mut HealthState,
    admitted: &mut BTreeSet<u64>,
) {
    let mut fail = |msg: String| {
        findings.push(Finding {
            seq: ev.seq,
            message: msg,
        })
    };
    match &ev.kind {
        EventKind::SpanOpen { span, class, .. } => {
            let n = ever_opened.entry(*span).or_insert(0);
            *n += 1;
            if *n > 1 {
                fail(format!("span {span} opened {n} times"));
            }
            if open.insert(*span, *class).is_some() {
                fail(format!("span {span} re-opened while still open"));
            }
        }
        EventKind::SpanClose { span, .. } => {
            let n = ever_closed.entry(*span).or_insert(0);
            *n += 1;
            if *n > 1 {
                fail(format!("span {span} closed {n} times"));
            } else if open.remove(span).is_none() {
                fail(format!("span {span} closed but was never open"));
            }
        }
        EventKind::Join { span, .. } => {
            if !open.contains_key(span) {
                fail(format!(
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
                fail(format!("queuing interval runs backwards: {from}..{to}"));
            }
            wait[*class as usize] += to.saturating_sub(*from);
            // The op's span must still be in flight while it queues.
            if !open.contains_key(span) {
                fail(format!("queuing recorded for span {span}, which is not open"));
            }
        }
        EventKind::QueueDepth { .. } => {}
        EventKind::CacheState { seg, from, to } => {
            let tracked = lines.get(seg).copied().unwrap_or(LineTag::Empty);
            if tracked != *from {
                fail(format!(
                    "cache line {seg}: transition claims from={} but tracked state is {}",
                    from.label(),
                    tracked.label()
                ));
            }
            if !legal_line_transition(*from, *to) {
                fail(format!(
                    "cache line {seg}: illegal transition {}>{}",
                    from.label(),
                    to.label()
                ));
            }
            if *to == LineTag::Empty {
                lines.remove(seg);
            } else {
                lines.insert(*seg, *to);
            }
        }
        EventKind::CacheRekey { old, new } => match lines.remove(old) {
            Some(state) => {
                lines.insert(*new, state);
            }
            None => fail(format!("rekey of {old}>{new}: no line tracked for {old}")),
        },
        EventKind::DevIo { lane, start, end } => {
            if end < start {
                fail(format!("device op runs backwards: {start}..{end}"));
            }
            devops.push((*lane, *start, *end));
        }
        EventKind::DriveDown { drive } => {
            if health.down.insert(*drive, ev.at).is_some() {
                fail(format!("drive d{drive} marked down while already down"));
            }
        }
        EventKind::DriveUp { drive } => match health.down.remove(drive) {
            Some(since) => health.windows.push((*drive, since, ev.at)),
            None => fail(format!("drive d{drive} marked up but was not down")),
        },
        EventKind::WatchdogFire { span, .. } => {
            if !open.contains_key(span) {
                fail(format!("watchdog fired for span {span}, which is not open"));
            }
            health.watchdogs.push((ev.seq, *span));
        }
        EventKind::Redispatch { span, .. } => {
            if !open.contains_key(span) {
                fail(format!("re-dispatch of span {span}, which is not open"));
            }
            health.redispatched.insert(*span);
        }
        EventKind::TenantAdmit { tenant, span, .. } => {
            if !open.contains_key(span) {
                fail(format!(
                    "tenant n{tenant} admit references span {span}, which is not open"
                ));
            }
            if !admitted.insert(*span) {
                fail(format!("span {span} admitted twice by the fair queue"));
            }
        }
        EventKind::TenantThrottle { tenant, span, .. } => {
            if !open.contains_key(span) {
                fail(format!(
                    "tenant n{tenant} throttle references span {span}, which is not open"
                ));
            }
        }
        EventKind::Park { .. }
        | EventKind::Wake { .. }
        | EventKind::Fault { .. }
        | EventKind::Mark { .. } => {}
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
    fn lane_sharing_is_reported_when_configured_drives_exceed_lanes() {
        let t = Tracer::new();
        t.dev_io(Lane::Drive(0), 0, 10);
        let f = tracecheck(
            &t,
            &Expectations::default()
                .with_drive_lanes(2)
                .with_configured_drives(4),
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("silently share lanes"));
        // Matching counts are clean.
        let f = tracecheck(
            &t,
            &Expectations::default()
                .with_drive_lanes(2)
                .with_configured_drives(2),
        );
        assert!(f.is_empty(), "{f:?}");
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

    #[test]
    fn truncated_trace_is_reported_not_verified() {
        let t = Tracer::with_capacity(1);
        t.mark(0, "a");
        t.mark(1, "b");
        let f = tracecheck(&t, &Expectations::default());
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("truncated"));
    }
}
