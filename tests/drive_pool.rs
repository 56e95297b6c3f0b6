//! Multi-drive I/O-server pool integration tests: demand fetches to
//! different volumes overlap when the jukebox has two drives and
//! serialize when it has one; the volume-affinity scheduler batches
//! same-platter ops per media swap; the starvation guard bounds how
//! long a bypassed op waits behind an affinity batch; and the pool's
//! schedule stays byte-deterministic per seed. Every scenario also runs
//! the tracecheck engine, which now enforces the tightened per-drive
//! invariant (ops on one drive lane never overlap; concurrency across
//! lanes is bounded by the drive count).
//!
//! The degraded-mode tests (DESIGN.md §6f) script drive faults into the
//! jukebox: a dead drive's orphaned op re-dispatches to the survivor, a
//! hung drive trips the watchdog and rejoins as a hot spare when it
//! heals, and a dead solo pool retires and surfaces errors instead of
//! hanging.
//!
//! Accounting pins (ISSUE 21): the literal `SvcStats`, `io_ops()`,
//! `io_peak_in_flight()` and drive-fault lines in the drive-death and
//! solo-drive tests were taken while the I/O server's interval tracker
//! and the `SvcStats` counters were ledgers of their own (and the lines
//! a fault log's render) and hold now that each is read off the tracer.
//! The injected fault's line comes from a tracer of the plan's own, so
//! the engine's trace, and the solo test's digest, stay as they were.
//! Seen to go red, each sabotage applied alone and reverted:
//!   * `admit_drive_io` not emitting its `dev_io` — the drive-death pin
//!     reads `drive_ops` [0, 0, ..] for [2, 1, ..], and the two-drive
//!     overlap test reads a `drive_peak` of 0.
//!   * `mark_lane_down` not emitting its `drive_down` — both tests'
//!     `ddn` lines come out empty.

use std::rc::Rc;

use highlight::rig::{assert_clean, RigSpec};
use highlight::{SvcStats, TertiaryIo, UniformMap};
use hl_footprint::{Footprint, Jukebox};
use hl_lfs::config::AddressMap;
use hl_sim::Scheduler;
use hl_trace::Tracer;
use hl_vdev::{FaultConfig, FaultPlan};

/// The default rig (64 disk segments, 4 volumes × 8 slots, cache lines
/// `40..52`) with `drives` jukebox drives.
/// The engine's `ddn`/`dup` lines and the `fault` lines of the plan's
/// own tracer `faults`, each without its sequence number.
fn drive_fault_lines(tio: &TertiaryIo, faults: &Tracer) -> Vec<String> {
    let health = tio.tracer().render_text().into_iter();
    let health = health.filter(|l| l.contains(" ddn ") || l.contains(" dup "));
    let lines = health.chain(faults.render_text());
    lines
        .map(|l| l[l.find(' ').unwrap() + 1..].to_string())
        .collect()
}

/// A tracer for a fault plan's `fault` lines alone, kept apart from the
/// engine's trace.
fn plan_tracer(plan: &FaultPlan) -> Tracer {
    let faults = Tracer::new();
    faults.retain_events();
    plan.set_tracer(faults.clone());
    faults
}

fn rig(drives: usize) -> (Rc<TertiaryIo>, Jukebox, UniformMap) {
    RigSpec {
        drives,
        ..RigSpec::default()
    }
    .build()
}

/// Primes volumes 0 and 1 into the drive pool, then issues two demand
/// fetches of *different* volumes together. Returns the concurrent
/// phase's wall-clock, the per-drive busy peak, and the engine.
fn concurrent_fetch_run(drives: usize) -> (u64, u32, Rc<TertiaryIo>) {
    let (tio, jb, map) = rig(drives);
    for vol in 0..2 {
        for slot in 0..2 {
            jb.poke_segment(vol, slot, &vec![vol as u8 + 1; 1 << 20])
                .unwrap();
        }
    }
    // Prime: swap each platter into a drive (with two drives they land
    // on different lanes; with one they ping-pong through the solo
    // drive, which ends holding volume 1).
    let pa = tio.enqueue_demand(0, map.tert_seg(0, 0));
    let pb = tio.enqueue_demand(0, map.tert_seg(1, 0));
    tio.pump();
    let (_, ra) = pa.fetch_result().unwrap();
    let (_, rb) = pb.fetch_result().unwrap();
    let t0 = ra.max(rb);
    // The measured phase: both platters resident, two fresh segments.
    let a = tio.enqueue_demand(t0, map.tert_seg(0, 1));
    let b = tio.enqueue_demand(t0, map.tert_seg(1, 1));
    tio.pump();
    let (_, ra) = a.fetch_result().unwrap();
    let (_, rb) = b.fetch_result().unwrap();
    let peak = tio.stats().drive_peak;
    (ra.max(rb) - t0, peak, tio)
}

#[test]
fn concurrent_fetches_overlap_with_two_drives_and_serialize_with_one() {
    let (dur1, peak1, tio1) = concurrent_fetch_run(1);
    let (dur2, peak2, tio2) = concurrent_fetch_run(2);
    // One drive: the second fetch needs the platter the solo drive
    // doesn't hold — a swap — and the lane's intervals never overlap.
    assert_eq!(peak1, 1, "solo drive must serialize its media reads");
    // Two drives: affinity routes each fetch to the lane holding its
    // platter, and the two media reads run at the same time.
    assert_eq!(peak2, 2, "two lanes should be busy at once");
    assert!(
        dur2 < dur1,
        "2-drive wall-clock t{dur2} should beat 1-drive t{dur1}"
    );
    let st = tio2.stats();
    assert!(st.drive_ops[0] > 0, "writer lane served a fetch");
    assert!(st.drive_ops[1] > 0, "reader lane served a fetch");
    assert_clean(&tio1);
    assert_clean(&tio2);
}

/// Interleaved prefetches A,B,A,B,A,B on a solo drive: the affinity
/// scheduler reorders the drain into two per-volume batches, so the
/// robot swaps twice instead of six times.
#[test]
fn volume_affinity_batches_ops_per_swap() {
    let (tio, jb, map) = rig(1);
    for slot in 0..3 {
        jb.poke_segment(0, slot, &vec![3u8; 1 << 20]).unwrap();
        jb.poke_segment(1, slot, &vec![4u8; 1 << 20]).unwrap();
    }
    let tickets: Vec<_> = (0..3)
        .flat_map(|slot| {
            [
                tio.enqueue_prefetch(0, map.tert_seg(0, slot)),
                tio.enqueue_prefetch(0, map.tert_seg(1, slot)),
            ]
        })
        .collect();
    tio.pump();
    for t in tickets {
        t.fetch_result().unwrap();
    }
    assert_eq!(
        jb.stats().swaps,
        2,
        "six interleaved prefetches across two platters should cost two swaps"
    );
    let st = tio.stats();
    assert_eq!(
        st.affinity_hits, 4,
        "two ops per batch rode the loaded platter"
    );
    assert_eq!(st.starvation_promotions, 0, "no op aged past the bound");
    assert_clean(&tio);
}

/// A demand fetch of volume B that arrives *before* a burst of volume-A
/// prefetches is bypassed by affinity picks — but only
/// `AFFINITY_BOUND` times, after which the starvation guard promotes
/// it ahead of the rest of the batch.
#[test]
fn starvation_guard_bounds_demand_wait_behind_an_affinity_batch() {
    let (tio, jb, map) = rig(1);
    for slot in 0..7 {
        jb.poke_segment(0, slot, &vec![5u8; 1 << 20]).unwrap();
    }
    jb.poke_segment(1, 0, &vec![6u8; 1 << 20]).unwrap();

    let mut sched: Scheduler<()> = Scheduler::new();
    tio.attach_engine(&mut sched);
    // Prime: one volume-A prefetch keeps the lane busy (swap + read)
    // while everything below enters the device queue behind it.
    let prime = tio.enqueue_prefetch(0, map.tert_seg(0, 0));
    // The demand for volume B arrives first...
    let demand = tio.enqueue_demand(100_000, map.tert_seg(1, 0));
    // ...then a burst of volume-A prefetches that affinity will prefer.
    let burst: Vec<_> = (1..7)
        .map(|slot| tio.enqueue_prefetch(200_000, map.tert_seg(0, slot)))
        .collect();
    sched.run(&mut ());

    prime.fetch_result().unwrap();
    let (_, demand_ready) = demand.fetch_result().unwrap();
    let last_prefetch = burst
        .iter()
        .map(|t| t.fetch_result().unwrap().1)
        .max()
        .unwrap();
    let st = tio.stats();
    assert_eq!(
        st.starvation_promotions, 1,
        "the bypassed demand must be promoted exactly once"
    );
    assert!(
        demand_ready < last_prefetch,
        "promoted demand (t{demand_ready}) must not drain the whole batch \
         (last prefetch t{last_prefetch})"
    );
    assert_clean(&tio);
}

/// The pool's schedule — lane assignment, affinity picks, robot
/// serialization — is part of the engine's determinism contract: two
/// runs of the same scenario produce byte-identical traces and equal
/// trace digests.
#[test]
fn pool_schedule_is_byte_deterministic_per_seed() {
    let run = || {
        let (tio, jb, map) = rig(2);
        tio.tracer().retain_events();
        for slot in 0..3 {
            jb.poke_segment(0, slot, &vec![7u8; 1 << 20]).unwrap();
            jb.poke_segment(1, slot, &vec![8u8; 1 << 20]).unwrap();
        }
        let mut tickets = vec![
            tio.enqueue_demand(0, map.tert_seg(0, 0)),
            tio.enqueue_demand(0, map.tert_seg(1, 0)),
        ];
        for slot in 1..3 {
            tickets.push(tio.enqueue_prefetch(1_000, map.tert_seg(0, slot)));
            tickets.push(tio.enqueue_prefetch(1_000, map.tert_seg(1, slot)));
        }
        tio.pump();
        for t in tickets {
            t.fetch_result().unwrap();
        }
        assert_clean(&tio);
        (tio.tracer().render_text(), tio.trace_digest())
    };
    let (la, da) = run();
    let (lb, db) = run();
    assert_eq!(la, lb, "traces diverged between identical runs");
    assert_eq!(da, db, "trace digests diverged");
}

/// Primes volumes 0 and 1 into a 2-drive pool with `oracle` bytes in
/// their first four slots; returns the engine, jukebox, map, the quiesce
/// time, and the volume drive 1 ended up holding.
fn primed_two_drive_rig(oracle: &[u8]) -> (Rc<TertiaryIo>, Jukebox, UniformMap, u64, u32) {
    let (tio, jb, map) = rig(2);
    tio.tracer().retain_events();
    for vol in 0..2 {
        for slot in 0..4 {
            jb.poke_segment(vol, slot, oracle).unwrap();
        }
    }
    let pa = tio.enqueue_demand(0, map.tert_seg(0, 0));
    let pb = tio.enqueue_demand(0, map.tert_seg(1, 0));
    tio.pump();
    let (_, ra) = pa.fetch_result().unwrap();
    let (_, rb) = pb.fetch_result().unwrap();
    let mut loaded = Vec::new();
    jb.loaded_volumes_into(&mut loaded);
    let vol1 = loaded[1].expect("drive 1 holds a platter");
    (tio, jb, map, ra.max(rb), vol1)
}

/// A drive dies with a demand fetch routed at it: the observing lane
/// marks it down, abandons its platter, and the orphaned op re-runs on
/// the surviving drive — same ticket, byte-identical contents.
#[test]
fn drive_death_mid_fetch_redispatches_to_survivor() {
    let oracle: Vec<u8> = (0..1usize << 20)
        .map(|i| (i as u8).wrapping_mul(3))
        .collect();
    let (tio, jb, map, t0, vol1) = primed_two_drive_rig(&oracle);
    let plan = FaultPlan::new(FaultConfig::none(11));
    plan.fail_drive_at(1, t0);
    let faults = plan_tracer(&plan);
    jb.set_fault_plan(plan);
    // This fetch's platter sits in the (now dead) drive 1, so affinity
    // routes it straight into the fault.
    let t = tio.enqueue_demand(t0 + 1, map.tert_seg(vol1, 1));
    tio.pump();
    let (disk_seg, _) = t.fetch_result().expect("the survivor must serve the fetch");
    let mut back = vec![0u8; oracle.len()];
    tio.disks_handle()
        .peek(map.seg_base(disk_seg) as u64, &mut back)
        .unwrap();
    assert_eq!(back, oracle, "re-dispatched fetch returned wrong bytes");
    let st = tio.stats();
    assert_eq!(st.drive_down, 1, "exactly one down event");
    assert!(st.redispatched >= 1, "the orphan must be re-dispatched");
    assert_eq!(st.watchdog_fired, 0, "a dead drive fails fast, no watchdog");
    assert_eq!(tio.lane_health(), vec![true, false]);
    assert_clean(&tio);
    assert_eq!(
        st,
        SvcStats {
            demand_fetches: 3,
            fetch_time: 64_055_296,
            queuing: 10_000,
            queued_requests: 3,
            reqq_hwm: 2,
            devq_hwm: 2,
            wait_demand: 10_000,
            drive_ops: [2, 1, 0, 0, 0, 0, 0, 0],
            drive_busy: [4_612_875, 2_272_510, 0, 0, 0, 0, 0, 0],
            drive_peak: 1,
            affinity_hits: 1,
            drive_down: 1,
            redispatched: 1,
            ..SvcStats::default()
        }
    );
    assert_eq!((tio.io_ops(), tio.io_peak_in_flight()), (6, 2));
    assert_eq!(
        drive_fault_lines(&tio, &faults),
        ["t30325182 ddn d1", "t30325182 fault drive dead d1"]
    );
}

/// A hung drive trips the watchdog (nominal op time × slack), the op
/// re-dispatches, and once the hang window clears the quarantined lane's
/// probe ladder brings it back as a hot spare that takes new work.
#[test]
fn watchdog_fires_on_hang_and_the_spare_rejoins() {
    let oracle: Vec<u8> = (0..1usize << 20)
        .map(|i| (i as u8).wrapping_mul(5))
        .collect();
    let (tio, jb, map, t0, vol1) = primed_two_drive_rig(&oracle);
    let plan = FaultPlan::new(FaultConfig::none(13));
    plan.hang_drive_at(1, t0, hl_sim::time::secs(30.0));
    jb.set_fault_plan(plan);
    let t = tio.enqueue_demand(t0 + 1, map.tert_seg(vol1, 1));
    tio.pump();
    let (_, end) = t
        .fetch_result()
        .expect("re-dispatch must complete the fetch");
    let st = tio.stats();
    assert!(st.watchdog_fired >= 1, "the hang must trip the watchdog");
    assert_eq!(st.drive_down, 1);
    assert!(st.redispatched >= 1);
    // The hang healed before the first probe, so the lane rejoined.
    let ups = tio
        .tracer()
        .events()
        .iter()
        .filter(|e| matches!(e.kind, hl_trace::EventKind::DriveUp { .. }))
        .count();
    assert_eq!(ups, 1, "the healed drive must rejoin");
    assert_eq!(tio.lane_health(), vec![true, true]);
    // The rejoined spare serves fresh work: the failover swap pulled
    // the abandoned platter into drive 0 and ejected the other volume,
    // so a fetch of that volume needs a fresh swap — the idle spare
    // steps first and takes it.
    let other = 1 - vol1;
    let ops_before = tio.stats().drive_ops[1];
    let t2 = tio.enqueue_demand(end, map.tert_seg(other, 2));
    tio.pump();
    t2.fetch_result().expect("post-rejoin fetch");
    assert!(
        tio.stats().drive_ops[1] > ops_before,
        "the rejoined spare never took work"
    );
    assert_clean(&tio);
}

/// The solo drive dies: its probe ladder runs dry, the lane retires,
/// and the drained pool fails every ticket — in *both* queues — instead
/// of hanging the waiters (or panicking). The first batch fills the
/// device queue (three demands, two sealed copy-outs, three prefetches;
/// the eject between them finishes inline); the second arrives after
/// the service process has parked on the full device queue, so one
/// request of every class is still in the request queue when the last
/// lane retires. The digest pins the whole refusal order.
#[test]
fn solo_drive_death_retires_the_pool_and_fails_tickets() {
    use highlight::segcache::LineState;
    let (tio, jb, map) = rig(1);
    tio.tracer().retain_events();
    jb.poke_segment(0, 0, &vec![9u8; 1 << 20]).unwrap();
    let plan = FaultPlan::new(FaultConfig::none(17));
    plan.fail_drive_at(0, 0);
    let faults = plan_tracer(&plan);
    jb.set_fault_plan(plan);
    let seal = |slot: u32| {
        let seg = map.tert_seg(3, slot);
        let cache = tio.cache();
        cache
            .borrow_mut()
            .allocate(seg, LineState::Staging, 0)
            .expect("staging line");
        cache.borrow_mut().set_state(seg, LineState::DirtyWait);
        seg
    };
    let t = tio.enqueue_demand(0, map.tert_seg(0, 0));
    let mut rest = Vec::new();
    for (at, base) in [(0, 1), (hl_sim::time::secs(1.0), 4)] {
        rest.push(tio.enqueue_demand(at, map.tert_seg(0, base)));
        rest.push(tio.enqueue_demand(at, map.tert_seg(1, base)));
        rest.push(tio.enqueue_eject(at, map.tert_seg(2, base)));
        rest.push(tio.enqueue_copy_out(at, seal(base)));
        rest.push(tio.enqueue_copy_out(at, seal(base + 1)));
        for slot in base..base + 3 {
            rest.push(tio.enqueue_prefetch(at, map.tert_seg(2, slot)));
        }
        rest.push(tio.enqueue_scrub(at));
    }
    tio.pump();
    assert!(
        t.fetch_result().is_err(),
        "a dead pool must surface the error"
    );
    assert!(rest.iter().all(|t| t.is_done()), "a ticket was lost");
    assert_eq!(tio.queue_depths(), (0, 0));
    let st = tio.stats();
    assert_eq!(st.drive_down, 1);
    assert_eq!(st.devq_hwm, 8, "the device queue filled before the drain");
    assert_eq!(tio.lane_health(), vec![false]);
    assert_clean(&tio);
    assert_eq!(tio.trace_digest(), 0x11a7_329f_c4ba_e0b8);
    assert_eq!(
        st,
        SvcStats {
            queuing: 2_000,
            queued_requests: 19,
            reqq_hwm: 19,
            devq_hwm: 8,
            wait_demand: 2_000,
            wait_eject: 6_000,
            drive_down: 1,
            redispatched: 1,
            ..SvcStats::default()
        }
    );
    assert_eq!((tio.io_ops(), tio.io_peak_in_flight()), (0, 0));
    assert_eq!(
        drive_fault_lines(&tio, &faults),
        ["t2000 ddn d0", "t2000 fault drive dead d0"]
    );
    assert_eq!(t.fetch_result().unwrap_err().to_string(), "device offline");
}

/// The engine runs one lane per drive, at most `MAX_DRIVES`: a jukebox
/// with more drives is refused when the engine is built, rather than
/// having its extra drives share a lane.
#[test]
#[should_panic(expected = "drives; the engine runs 1 to")]
fn more_drives_than_lanes_is_refused() {
    rig(highlight::MAX_DRIVES + 1);
}
