//! Trace-invariant integration tests: the queue engine's coalescing,
//! priority, and backpressure scenarios — and the Table 4 migration
//! pipeline — replayed under the event recorder, with the `tracecheck`
//! engine verifying every lifecycle rule and the `SvcStats` counters
//! reconciling against the span residency recomputed from the raw
//! event stream.

use highlight::rig::{assert_clean, RigSpec};
use highlight::segcache::LineState;
use hl_footprint::{Footprint, Jukebox, JukeboxConfig};
use hl_sim::Scheduler;
use hl_trace::{Class, EventKind, QueueId};
use hl_vdev::{Disk, DiskProfile};

/// Coalesced fetches under the recorder: the joiners emit `Join` events
/// referencing the live parent span, the engine's `coalesced_fetches`
/// counter matches the recorder's join count, and the whole trace is
/// invariant-clean.
#[test]
fn coalesced_fetches_trace_one_span_with_joins() {
    let (tio, jb, map) = RigSpec::with_lines(40..44).build();
    let seg = map.tert_seg(1, 2);
    jb.poke_segment(1, 2, &vec![9u8; 1 << 20]).unwrap();

    let t1 = tio.enqueue_demand(0, seg);
    let t2 = tio.enqueue_prefetch(1_000, seg);
    let t3 = tio.enqueue_demand(2_000, seg);
    tio.pump();
    t1.fetch_result().unwrap();
    t2.fetch_result().unwrap();
    t3.fetch_result().unwrap();

    let tr = tio.tracer();
    let s = tio.stats();
    assert_eq!(s.coalesced_fetches, 2);
    assert_eq!(tr.joins(), s.coalesced_fetches);
    // One demand span was opened and serviced; the joiners opened no
    // span of their own.
    assert_eq!(tr.spans_opened(Class::Demand), 1);
    assert_eq!(tr.spans_opened(Class::Prefetch), 0);
    assert_clean(&tio);
}

/// Priority dispatch under the recorder: the device-start `Queuing`
/// events come out in class-priority order even though the requests
/// were enqueued in reverse, and the trace is invariant-clean.
#[test]
fn dispatch_priority_is_visible_in_queuing_events() {
    let (tio, jb, map) = RigSpec::with_lines(40..44).build();
    tio.tracer().retain_events();
    let demand_seg = map.tert_seg(0, 0);
    let prefetch_seg = map.tert_seg(0, 1);
    let copyout_seg = map.tert_seg(2, 0);
    jb.poke_segment(0, 0, &vec![1u8; 1 << 20]).unwrap();
    jb.poke_segment(0, 1, &vec![2u8; 1 << 20]).unwrap();
    tio.cache()
        .borrow_mut()
        .allocate(copyout_seg, LineState::Staging, 0)
        .unwrap();
    tio.cache()
        .borrow_mut()
        .set_state(copyout_seg, LineState::DirtyWait);

    let scrub = tio.enqueue_scrub(0);
    let prefetch = tio.enqueue_prefetch(0, prefetch_seg);
    let copyout = tio.enqueue_copy_out(0, copyout_seg);
    let demand = tio.enqueue_demand(0, demand_seg);
    tio.pump();
    demand.fetch_result().unwrap();
    prefetch.fetch_result().unwrap();
    copyout.copyout_result().unwrap();
    assert!(scrub.scrub_result().unrecoverable.is_empty());

    let serviced: Vec<Class> = tio
        .tracer()
        .events()
        .iter()
        .filter_map(|ev| match ev.kind {
            EventKind::Queuing { class, .. } => Some(class),
            _ => None,
        })
        .collect();
    assert_eq!(
        serviced,
        [Class::Demand, Class::CopyOut, Class::Prefetch, Class::Scrub],
        "device starts must follow class priority"
    );
    assert_clean(&tio);
}

/// Backpressure under the recorder: filling the bounded request queue
/// to its cap leaves the recorder's high-water mark (which *is* the
/// `SvcStats` one — the stat derives from it) at the cap, and the
/// refused drain closes every span so the quiesced check still passes.
#[test]
fn request_queue_highwater_derives_from_the_recorder() {
    let (tio, _jb, map) = RigSpec::with_lines(40..42).build();
    let mut sched: Scheduler<()> = Scheduler::new();
    tio.attach_engine(&mut sched);

    let cap = 64;
    for i in 0..cap {
        let seg = map.tert_seg((i % 4) as u32, (i / 4 % 8) as u32);
        assert!(tio.try_enqueue_copy_out(0, seg).is_some());
    }
    assert!(tio.try_enqueue_copy_out(0, map.tert_seg(0, 0)).is_none());
    assert_eq!(tio.tracer().queue_hwm(QueueId::Request), cap as u32);
    assert_eq!(tio.stats().reqq_hwm, cap as u32);

    sched.run(&mut ());
    assert_eq!(tio.queue_depths(), (0, 0));
    // Every copy-out was refused (no sealed line): 64 spans opened, 64
    // closed, none leaked.
    assert_eq!(tio.tracer().spans_opened(Class::CopyOut), cap as u64);
    assert_eq!(tio.tracer().spans_closed(), cap as u64);
    assert_clean(&tio);
}

/// The SvcStats-vs-span-residency reconciliation, done by hand: the
/// per-class wait counters the engine reports must equal the sums of
/// `Queuing` span durations recomputed from the raw event stream, and
/// the queue high-water marks must equal the max of the `QueueDepth`
/// events. (tracecheck performs the same replay internally; this test
/// proves the counters are *derived from* the recorder, not a parallel
/// tally that could drift.)
#[test]
fn svcstats_reconcile_with_span_residency() {
    let (tio, jb, map) = RigSpec::with_lines(40..43).build();
    tio.tracer().retain_events();
    jb.poke_segment(0, 3, &vec![5u8; 1 << 20]).unwrap();
    jb.poke_segment(1, 1, &vec![6u8; 1 << 20]).unwrap();
    let a = map.tert_seg(0, 3);
    let b = map.tert_seg(1, 1);
    tio.enqueue_demand(0, a);
    tio.enqueue_prefetch(0, b);
    tio.enqueue_scrub(0);
    tio.pump();
    let staged = map.tert_seg(3, 0);
    tio.cache()
        .borrow_mut()
        .allocate(staged, LineState::Staging, 0)
        .unwrap();
    tio.cache()
        .borrow_mut()
        .set_state(staged, LineState::DirtyWait);
    tio.enqueue_copy_out(0, staged);
    tio.enqueue_eject(0, a);
    tio.pump();

    let mut by_class = [0u64; 5];
    let mut reqq_max = 0u32;
    let mut devq_max = 0u32;
    for ev in tio.tracer().events() {
        match ev.kind {
            EventKind::Queuing {
                class, from, to, ..
            } => by_class[class as usize] += to - from,
            EventKind::QueueDepth { queue, depth } => match queue {
                QueueId::Request => reqq_max = reqq_max.max(depth),
                QueueId::Device => devq_max = devq_max.max(depth),
            },
            _ => {}
        }
    }
    let s = tio.stats();
    assert_eq!(
        [
            s.wait_demand,
            s.wait_eject,
            s.wait_copyout,
            s.wait_prefetch,
            s.wait_scrub
        ],
        by_class,
        "SvcStats wait counters diverge from Queuing span sums"
    );
    assert_eq!(s.reqq_hwm, reqq_max, "request-queue HWM diverges");
    assert_eq!(s.devq_hwm, devq_max, "device-queue HWM diverges");
    assert!(
        by_class.iter().sum::<u64>() > 0,
        "scenario recorded no residency"
    );
    assert_clean(&tio);
}

/// The Table 4 migration pipeline (migrator + I/O server + Footprint
/// write, small scale) under the recorder: zero tracecheck findings,
/// a reproducible digest, and a trace that actually contains the
/// pipeline's span/queuing/device traffic.
#[test]
fn migration_pipeline_shape_is_trace_clean() {
    use hl_bench::pipeline::{run, PipelineConfig};
    fn small() -> hl_bench::pipeline::PipelineResult {
        let src = Disk::new(DiskProfile::RZ57, 300_000, None);
        let jukebox = Jukebox::new(JukeboxConfig::hp6300_paper(), None);
        run(PipelineConfig {
            segments: 12,
            src_disk: src,
            staging_disk: None,
            jukebox,
            demand: None,
        })
    }
    let r = small();
    assert!(
        r.trace_findings.is_empty(),
        "tracecheck findings on the migration pipeline: {:?}",
        r.trace_findings
    );
    assert_eq!(
        r.trace_digest,
        small().trace_digest,
        "same-seed pipeline runs must hash to the same trace digest"
    );
    let count = |tag: &str| {
        r.trace_summary
            .iter()
            .find(|(k, _)| *k == tag)
            .map_or(0, |&(_, n)| n)
    };
    assert_eq!(
        count("span_open"),
        12,
        "one copy-out span per migrated segment"
    );
    assert_eq!(count("span_close"), count("span_open"));
    assert!(count("queuing") > 0, "no queue residency recorded");
    assert!(count("dev_io") > 0, "no device intervals recorded");
}

/// Replica traffic is device time like any other: with one replica
/// configured a copy-out books *two* drive-lane `DevIo` intervals
/// (primary + replica) and twice the drive busy time of an unreplicated
/// one, and a scrub pass that re-replicates books its read and its
/// write too — so the per-drive no-overlap and no-I/O-while-down
/// invariants see that traffic.
#[test]
fn replica_and_scrub_transfers_are_admitted_device_time() {
    use hl_trace::Lane;
    let on_drive = |e: &hl_trace::Event| match e.kind {
        EventKind::DevIo { lane, .. } => matches!(lane, Lane::Drive(_)),
        _ => false,
    };
    let drive_ios =
        |tio: &highlight::TertiaryIo| tio.tracer().events().iter().filter(|e| on_drive(e)).count();
    let copy_out = |copies: u32| {
        let (tio, _jb, map) = RigSpec::with_lines(40..44).build();
        tio.tracer().retain_events();
        tio.set_replication(copies);
        let seg = map.tert_seg(0, 0);
        let cache = tio.cache();
        cache
            .borrow_mut()
            .allocate(seg, LineState::Staging, 0)
            .expect("staging line");
        cache.borrow_mut().set_state(seg, LineState::DirtyWait);
        let end = tio.copy_out(0, seg).expect("copy-out");
        (tio, end)
    };
    let (plain, _) = copy_out(0);
    let one_write: u64 = plain.stats().drive_busy.iter().sum();
    assert_eq!(drive_ios(&plain), 1);

    let (tio, end) = copy_out(1);
    assert_eq!(drive_ios(&tio), 2, "primary and replica writes");
    let st = tio.stats();
    assert_eq!(st.drive_ops.iter().sum::<u64>(), 2);
    assert!(st.drive_busy.iter().sum::<u64>() >= 2 * one_write);
    assert_eq!(tio.io_ops(), 3, "cache-disk read + two media writes");

    // Lose the replica's record; the scrub re-reads the primary and
    // writes a fresh copy: two more drive intervals.
    tio.replicas().borrow_mut().forget_volume(1);
    let report = tio.scrub(end);
    assert_eq!(report.copies_made, 1);
    assert_eq!(drive_ios(&tio), 4, "scrub read + scrub write");
    assert_clean(&tio);
}
