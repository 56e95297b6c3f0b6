//! Integration tests for the event-driven tertiary engine: duplicate
//! fetches coalesce onto one media read, bounded queues push back, and
//! per-seed engine traces replay byte-identically. (Priority dispatch
//! order is covered by `tests/trace_invariants.rs`.)

use highlight::requests::DISPATCH_CPU;
use highlight::rig::RigSpec;
use highlight::segcache::LineState;
use hl_footprint::Footprint;
use hl_sim::Scheduler;

/// Satellite: N interleaved readers of one tertiary segment perform
/// exactly one media read and observe the same `ready_at`.
#[test]
fn interleaved_fetches_of_one_segment_coalesce_to_one_media_read() {
    let (tio, jb, map) = RigSpec::with_lines(40..44).build();
    let seg = map.tert_seg(1, 2);
    jb.poke_segment(1, 2, &vec![9u8; 1 << 20]).unwrap();
    assert_eq!(jb.stats().reads, 0, "poke is not a media read");

    // Two demand readers and a prefetch all arrive before the engine
    // runs; one more demand arrives after, while the fetch is queued.
    let t1 = tio.enqueue_demand(0, seg);
    let t2 = tio.enqueue_prefetch(1_000, seg);
    let t3 = tio.enqueue_demand(2_000, seg);
    tio.pump();

    assert_eq!(jb.stats().reads, 1, "coalesced fetch reads the media once");
    let (disk_seg, ready) = t1.fetch_result().unwrap();
    assert_eq!(t2.fetch_result().unwrap(), (disk_seg, ready));
    assert_eq!(t3.fetch_result().unwrap(), (disk_seg, ready));
    let s = tio.stats();
    assert_eq!(s.demand_fetches, 1, "one logical fetch filled the line");
    assert_eq!(s.coalesced_fetches, 2, "two joiners shared it");

    // A straggler after the fill is a plain cache hit, still no new read.
    let t4 = tio.enqueue_demand(ready, seg);
    tio.pump();
    assert_eq!(t4.fetch_result().unwrap(), (disk_seg, ready));
    assert_eq!(jb.stats().reads, 1);
}

/// The bounded request queue refuses work once full: the non-blocking
/// enqueue returns `None` and the producer is expected to park.
#[test]
fn try_enqueue_copy_out_pushes_back_at_the_queue_cap() {
    let (tio, _jb, map) = RigSpec::with_lines(40..42).build();
    // Park the engine on an external scheduler we never run, so nothing
    // drains while we fill the queue.
    let mut sched: Scheduler<()> = Scheduler::new();
    tio.attach_engine(&mut sched);

    let cap = 64; // requests.rs `REQQ_CAP`
    for i in 0..cap {
        let seg = map.tert_seg((i % 4) as u32, (i / 4 % 8) as u32);
        assert!(
            tio.try_enqueue_copy_out(0, seg).is_some(),
            "request {i} should fit"
        );
    }
    assert!(
        tio.try_enqueue_copy_out(0, map.tert_seg(0, 0)).is_none(),
        "request {cap} must be refused"
    );
    let (reqq, devq) = tio.queue_depths();
    assert_eq!((reqq, devq), (cap, 0));
    assert_eq!(tio.stats().reqq_hwm, cap as u32);

    // Draining the engine resolves every ticket (all refused here: no
    // line is sealed) and empties the queues.
    sched.run(&mut ());
    assert_eq!(tio.queue_depths(), (0, 0));
}

/// Satellite: identical request histories produce byte-identical engine
/// traces (and equal digests) across independent runs.
#[test]
fn engine_trace_replays_byte_identical() {
    fn scenario() -> (Vec<String>, u64) {
        let (tio, jb, map) = RigSpec::with_lines(40..43).build();
        jb.poke_segment(0, 3, &vec![5u8; 1 << 20]).unwrap();
        jb.poke_segment(1, 1, &vec![6u8; 1 << 20]).unwrap();
        let a = map.tert_seg(0, 3);
        let b = map.tert_seg(1, 1);
        tio.enqueue_demand(0, a);
        tio.enqueue_prefetch(0, b);
        tio.enqueue_demand(DISPATCH_CPU, b);
        tio.enqueue_scrub(DISPATCH_CPU);
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
        assert_eq!(tio.tracer().dropped(), 0);
        (tio.tracer().render_text(), tio.trace_digest())
    }

    let (lines_a, digest_a) = scenario();
    let (lines_b, digest_b) = scenario();
    assert_eq!(lines_a, lines_b);
    assert_eq!(digest_a, digest_b);
    assert!(!lines_a.is_empty());
}
