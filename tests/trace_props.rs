//! Property test for the tracing layer: under *any* small workload of
//! demand fetches, prefetches, copy-outs, ejects, and scrubs, crossed
//! with *any* fault plan (transient read faults, volume deaths, early
//! end-of-medium, robot jams), the recorded trace must satisfy every
//! `tracecheck` invariant, and the engine's counters must stay mutually
//! consistent with the recorder's span accounting:
//!
//! - `coalesced_fetches <= queued_requests` — a joiner rides an op that
//!   was itself queued;
//! - `permanent_losses <= fetch spans opened` — every declared loss is
//!   the death of one queued fetch op (demand or prefetch), never a
//!   phantom.
//!
//! And for the renderer: every line equals the `core::fmt` form it was
//! written in before (kept here as the oracle), and the digest is FNV-1a
//! over exactly those lines — past the six-wide sequence pad too.

use highlight::rig::RigSpec;
use highlight::segcache::LineState;
use hl_footprint::Footprint;
use hl_trace::{Class, Event, EventKind, Lane, LineTag, QueueId, RecoveryStep, Tracer};
use hl_vdev::{FaultConfig, FaultPlan};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_workload_under_random_faults_is_trace_clean(
        seed in 0u64..1_000_000_000,
        ops in proptest::collection::vec(
            (0u8..5, 0u32..4, 0u32..8, 1u64..30_000), 1..24),
        transient_milli in 0u32..200,
        eom_milli in 0u32..200,
        jam_milli in 0u32..200,
        kill_vol in 0u32..8,
    ) {
        let (tio, jb, map) = RigSpec::with_lines(40..44).build();
        // Every segment has media-side bytes, so any fetch that fails
        // does so because of an injected fault, not missing data.
        for vol in 0..4u32 {
            for slot in 0..8u32 {
                let fill = (vol * 8 + slot + 1) as u8;
                jb.poke_segment(vol, slot, &vec![fill; 1 << 20]).unwrap();
            }
        }
        // A couple of replicas so the failover path can fire too.
        tio.replicas().borrow_mut().add(map.tert_seg(0, 0), 1, 0);
        jb.poke_segment(1, 0, &vec![1u8; 1 << 20]).unwrap();

        let plan = FaultPlan::new(FaultConfig {
            transient_read_p: f64::from(transient_milli) / 1000.0,
            early_eom_p: f64::from(eom_milli) / 1000.0,
            swap_jam_p: f64::from(jam_milli) / 1000.0,
            ..FaultConfig::none(seed)
        });
        // Half the cases also lose a whole volume mid-run.
        if kill_vol < 4 {
            plan.fail_volume_at(kill_vol, 40_000);
        }
        plan.set_tracer(tio.tracer());
        jb.set_fault_plan(plan);

        let mut t = 0u64;
        for (i, &(kind, vol, slot, dt)) in ops.iter().enumerate() {
            t += dt;
            let seg = map.tert_seg(vol, slot);
            match kind {
                0 => { tio.enqueue_demand(t, seg); }
                1 => { tio.enqueue_prefetch(t, seg); }
                2 => { tio.enqueue_eject(t, seg); }
                3 => {
                    // A copy-out needs a sealed staging line; skip when
                    // the cache refuses (full, or the segment is
                    // already resident in another state).
                    let cache = tio.cache();
                    let fresh = cache.borrow().peek(seg).is_none();
                    let sealed = fresh
                        && cache
                            .borrow_mut()
                            .allocate(seg, LineState::Staging, t)
                            .is_some();
                    if sealed {
                        tio.cache().borrow_mut().set_state(seg, LineState::DirtyWait);
                        tio.enqueue_copy_out(t, seg);
                    }
                }
                _ => { tio.enqueue_scrub(t); }
            }
            // Drain often enough that the bounded queue never refuses.
            if i % 8 == 7 {
                tio.pump();
            }
        }
        tio.pump();

        let findings = tio.trace_findings();
        prop_assert!(
            findings.is_empty(),
            "tracecheck findings under seed {seed}:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        let s = tio.stats();
        let tr = tio.tracer();
        prop_assert!(
            s.coalesced_fetches <= s.queued_requests,
            "coalesced {} > queued {}", s.coalesced_fetches, s.queued_requests
        );
        let fetch_spans = tr.spans_opened(Class::Demand) + tr.spans_opened(Class::Prefetch);
        prop_assert!(
            s.permanent_losses <= fetch_spans,
            "permanent losses {} > fetch spans {}", s.permanent_losses, fetch_spans
        );
        // The recorder and the engine agree on coalescing.
        prop_assert_eq!(tr.joins(), s.coalesced_fetches);
        // Every span the engine opened was closed by the drain.
        prop_assert_eq!(tr.open_spans().len(), 0);
    }
}

/// The renderer before it stopped going through `core::fmt`, kept
/// verbatim as the oracle every render must equal byte for byte; the
/// recovery line, which came later, is written in the same form.
fn oracle(ev: &Event) -> String {
    use std::fmt::{self, Write};

    struct OracleLane(Lane);
    impl fmt::Display for OracleLane {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self.0 {
                Lane::Drive(d) => write!(f, "d{d}"),
                Lane::Staging => f.write_str("st"),
            }
        }
    }

    let mut out = String::new();
    let w = &mut out;
    write!(w, "#{:06} t{} ", ev.seq, ev.at).unwrap();
    match &ev.kind {
        EventKind::SpanOpen { span, class, seg } => match seg {
            Some(s) => write!(w, "s+ {span} {} seg {s}", class.label()),
            None => write!(w, "s+ {span} {} seg -", class.label()),
        },
        EventKind::SpanClose { span, ok } => {
            write!(w, "s- {span} {}", if *ok { "ok" } else { "err" })
        }
        EventKind::Join { span, class } => write!(w, "join {span} {}", class.label()),
        EventKind::Queuing {
            span,
            class,
            from,
            to,
        } => write!(w, "qres {span} {} {from}..{to}", class.label()),
        EventKind::QueueDepth { queue, depth } => {
            write!(w, "qdep {} {depth}", queue.label())
        }
        EventKind::CacheState { seg, from, to } => {
            write!(w, "line {seg} {}>{}", from.label(), to.label())
        }
        EventKind::CacheRekey { old, new } => write!(w, "rekey {old}>{new}"),
        EventKind::DevIo { lane, start, end } => {
            let lane = OracleLane(*lane);
            write!(w, "dev {lane} {start}..{end}")
        }
        EventKind::Fault { label } => write!(w, "fault {label}"),
        EventKind::Mark { label } => write!(w, "mark {label}"),
        EventKind::DriveDown { drive } => write!(w, "ddn d{drive}"),
        EventKind::DriveUp { drive } => write!(w, "dup d{drive}"),
        EventKind::WatchdogFire { drive, span } => write!(w, "wdog d{drive} {span}"),
        EventKind::Redispatch { span, from_drive } => {
            write!(w, "redisp {span} d{from_drive}")
        }
        EventKind::TenantAdmit {
            tenant,
            class,
            span,
        } => {
            write!(w, "tadm n{tenant} {} {span}", class.label())
        }
        EventKind::TenantThrottle {
            tenant,
            class,
            span,
        } => {
            write!(w, "tthr n{tenant} {} {span}", class.label())
        }
        EventKind::Recovery { seg, step } => {
            write!(w, "rcv {seg} ").unwrap();
            match *step {
                RecoveryStep::ReadFault { copy: (v, s) } => write!(w, "rfault v{v}/s{s}"),
                RecoveryStep::Retry {
                    copy: (v, s),
                    attempt,
                } => write!(w, "retry v{v}/s{s} #{attempt}"),
                RecoveryStep::Failover { copy: (v, s) } => write!(w, "failover v{v}/s{s}"),
                RecoveryStep::Quarantine { vol, failures } => {
                    write!(w, "quarantine v{vol} after {failures}")
                }
                RecoveryStep::ScrubCopy {
                    from: (fv, fs),
                    to: (tv, ts),
                } => write!(w, "scrub v{fv}/s{fs}>v{tv}/s{ts}"),
                RecoveryStep::PermanentLoss => write!(w, "loss"),
                RecoveryStep::WriteFault { copy: (v, s) } => write!(w, "wfault v{v}/s{s}"),
                RecoveryStep::EndOfMedium { copy: (v, s) } => write!(w, "eom v{v}/s{s}"),
            }
        }
    }
    .unwrap();
    out
}

/// FNV-1a over `lines`, each `\n`-terminated: what the digest must be.
fn fnv_of_lines<'a>(lines: impl IntoIterator<Item = &'a String>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for line in lines {
        for b in line.bytes().chain([b'\n']) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// An edge value, a small one, or `raw` itself.
fn pick(sel: u8, raw: u64) -> u64 {
    match sel % 4 {
        0 => 0,
        1 => u64::MAX,
        2 => raw % 1_000,
        _ => raw,
    }
}

/// [`pick`] for a `u32` field.
fn pick32(sel: u8, raw: u64) -> u32 {
    match sel % 4 {
        0 => 0,
        1 => u32::MAX,
        2 => (raw % 1_000) as u32,
        _ => raw as u32,
    }
}

/// Labels with multi-byte UTF-8, an empty one and separators inside.
const LABELS: [&str; 6] = [
    "",
    "tick",
    "drive 0 \"dead\"",
    "é",
    "日本語 ok",
    "🦀 a..b>c",
];

/// One emit through the public emitters: `kind` picks the emitter (every
/// [`EventKind`], the policy-decision form of `Mark` too), the `(sel, raw)`
/// pairs its numbers.
fn emit(t: &Tracer, op: (u8, u8, u64, u8, u64, u8)) {
    let (kind, sa, a, sb, b, small) = op;
    let (x, y) = (pick(sa, a), pick(sb, b));
    let class = Class::ALL[small as usize % 5];
    let tag = [
        LineTag::Empty,
        LineTag::Filling,
        LineTag::Staging,
        LineTag::DirtyWait,
        LineTag::Clean,
    ];
    let label = LABELS[small as usize % LABELS.len()];
    match kind {
        0 => drop(t.open_span(x, class, (small % 2 == 0).then_some(y))),
        1 => t.close_span(x, y, small % 2 == 0),
        2 => t.join(x, y, class),
        3 => t.queuing(x, y, class, pick(sb.wrapping_add(1), a), pick(sa, b)),
        4 => {
            let q = [QueueId::Request, QueueId::Device][small as usize % 2];
            t.queue_depth(x, q, pick32(sb, b));
        }
        5 => t.cache_state(x, y, tag[small as usize % 5], tag[b as usize % 5]),
        6 => t.cache_rekey(x, y, pick(sb.wrapping_add(1), a)),
        // Drive lanes index per-lane tables: keep them small.
        7 => {
            let lane = match small % 3 {
                0 => Lane::Staging,
                d => Lane::Drive(u32::from(d)),
            };
            t.dev_io(lane, x, y);
        }
        8 => t.fault(x, label.to_string()),
        9 => t.mark(x, label.to_string()),
        10 => t.policy_decision(x, label, LABELS[b as usize % LABELS.len()]),
        11 => t.drive_down(x, pick32(sb, b)),
        12 => t.drive_up(x, pick32(sb, b)),
        13 => t.watchdog_fire(x, pick32(sb, b), y),
        14 => t.redispatch(x, y, pick32(sa, a)),
        15 => t.tenant_admit(x, pick32(sb, b), class, y),
        16 => t.tenant_throttle(x, pick32(sb, b), class, y),
        _ => {
            let copy = (pick32(sa, a), pick32(sb, b));
            let n = pick32(sb.wrapping_add(1), a);
            let step = match small % 8 {
                0 => RecoveryStep::ReadFault { copy },
                1 => RecoveryStep::Retry { copy, attempt: n },
                2 => RecoveryStep::Failover { copy },
                3 => RecoveryStep::Quarantine {
                    vol: copy.0,
                    failures: n,
                },
                4 => RecoveryStep::ScrubCopy {
                    from: copy,
                    to: (n, copy.0),
                },
                5 => RecoveryStep::PermanentLoss,
                6 => RecoveryStep::WriteFault { copy },
                _ => RecoveryStep::EndOfMedium { copy },
            };
            t.recovery(x, y, step);
        }
    }
}

/// Every kept event's render equals the oracle's, and the first one is
/// `#first_seq`.
fn check_renders(t: &Tracer, first_seq: u64) -> Result<(), TestCaseError> {
    let events = t.events();
    let lines = t.render_text();
    prop_assert_eq!(events.len(), lines.len());
    for (ev, line) in events.iter().zip(&lines) {
        prop_assert_eq!(line, &oracle(ev), "render of {:?}", ev);
    }
    prop_assert_eq!(events.first().map(|e| e.seq), Some(first_seq));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every render equals the oracle's, and the digest is FNV-1a over
    /// the rendered lines — over random streams of every event kind with
    /// 0, `u64::MAX` and `u32::MAX` in each number, and multi-byte
    /// labels. Seen red, each sabotage alone in `Event::write_line`: the
    /// space before a span's class dropped; the sequence number written
    /// unpadded.
    #[test]
    fn every_render_equals_the_fmt_oracle_and_the_digest_folds_it(
        ops in proptest::collection::vec(
            (0u8..18, 0u8..4, any::<u64>(), 0u8..4, any::<u64>(), 0u8..30), 1..64),
    ) {
        let t = Tracer::new();
        t.retain_events();
        for &op in &ops {
            emit(&t, op);
        }
        check_renders(&t, 0)?;
        prop_assert_eq!(t.digest(), fnv_of_lines(&t.render_text()));
    }
}

/// Past `#999999` the sequence number outgrows its six-wide pad. The
/// first 999 990 events are digested unkept; the oracle renders them
/// from what was emitted, and the kept tail — one of every kind — from
/// the events.
#[test]
fn renders_past_the_six_digit_sequence_pad_equal_the_oracle() {
    const HEAD: u64 = 999_990;
    let t = Tracer::new();
    for i in 0..HEAD {
        t.queue_depth(i, QueueId::Device, 1);
    }
    t.retain_events();
    for kind in 0..18u8 {
        emit(
            &t,
            (kind, kind, u64::MAX - u64::from(kind), kind + 1, 7, kind),
        );
    }
    check_renders(&t, HEAD).unwrap();
    let head = (0..HEAD).map(|i| {
        oracle(&Event {
            seq: i,
            at: i,
            kind: EventKind::QueueDepth {
                queue: QueueId::Device,
                depth: 1,
            },
        })
    });
    let all: Vec<String> = head.chain(t.render_text()).collect();
    assert!(
        all[1_000_000].starts_with("#1000000 t"),
        "{}",
        all[1_000_000]
    );
    assert_eq!(t.digest(), fnv_of_lines(&all));
}
