//! The two structures every simulated event passes through — the
//! scheduler's run queue and the tracer's digest — allocate nothing in
//! steady state, the structure every file block passes through — the
//! buffer cache — allocates only the block, and a segment crossing
//! between the levels allocates only the medium's slot array. Exact
//! counts, so the day a `format!`, a per-step `Vec` or a staging copy
//! creeps back this goes red.
//!
//! A binary of its own: it installs a counting global allocator. The
//! count is per thread, so the harness's other threads cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use highlight::rig::RigSpec;
use highlight::segcache::LineState;
use hl_footprint::{Footprint, Jukebox, JukeboxConfig};
use hl_lfs::buffer::BufCache;
use hl_lfs::LBlock;
use hl_sim::{Actor, ActorId, Scheduler, SimTime, Step, Waker};
use hl_trace::{Class, Tracer};
use hl_vdev::{Block, BlockDev, Disk, DiskProfile, BLOCK_SIZE};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; counting touches only a const-initialised
// thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed on as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed on as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are passed on as received.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) this thread makes while `f` runs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// A tracer whose ring is already full: every further event is digested
/// and dropped.
fn full_tracer() -> Tracer {
    let t = Tracer::with_capacity(8);
    for i in 0..8 {
        t.mark(i, "fill");
    }
    t
}

/// What the actors below step against: a step counter, and the actors'
/// own ids (known only once both are spawned).
#[derive(Default)]
struct World {
    steps: u64,
    ids: Vec<ActorId>,
}

/// Yields one period ahead, forever.
struct Periodic(SimTime);
impl Actor<World> for Periodic {
    fn step(&mut self, w: &mut World, now: SimTime) -> Step {
        w.steps += 1;
        Step::Yield(now + self.0)
    }
}

#[test]
fn ten_thousand_steps_of_yielding_actors_allocate_nothing() {
    const ACTORS: u64 = 64;
    let mut sched = Scheduler::new();
    for i in 0..ACTORS {
        sched.spawn_at(i, Periodic(ACTORS));
    }
    // Actor `i` runs at every `t ≡ i (mod ACTORS)`: one step per time
    // unit, so the horizon counts steps.
    let mut w = World::default();
    sched.run_until(&mut w, ACTORS - 1);
    assert_eq!(w.steps, ACTORS, "warm-up: every actor once");
    let allocs = allocs_during(|| {
        sched.run_until(&mut w, ACTORS - 1 + 10_000);
    });
    assert_eq!(w.steps, ACTORS + 10_000);
    assert_eq!(allocs, 0);
}

/// Wakes the other actor one tick on, then parks.
struct PingPong {
    me: usize,
    waker: Waker,
}
impl Actor<World> for PingPong {
    fn step(&mut self, w: &mut World, now: SimTime) -> Step {
        w.steps += 1;
        self.waker.wake(w.ids[1 - self.me], now + 1);
        Step::Park
    }
    fn name(&self) -> &str {
        "ping-pong"
    }
}

#[test]
fn ten_thousand_traced_park_wake_steps_allocate_nothing() {
    let tracer = full_tracer();
    let mut sched = Scheduler::new();
    sched.set_tracer(tracer.clone());
    let waker = sched.waker();
    let mut w = World::default();
    w.ids.push(sched.spawn_at(
        0,
        PingPong {
            me: 0,
            waker: waker.clone(),
        },
    ));
    w.ids.push(sched.spawn_parked(PingPong { me: 1, waker }));
    // One step per time unit again. The warm-up grows the wake inbox and
    // the buffer it is swapped with to their steady size.
    sched.run_until(&mut w, 9);
    assert_eq!(w.steps, 10);
    let (events, dropped) = (tracer.len(), tracer.dropped());
    let allocs = allocs_during(|| {
        sched.run_until(&mut w, 9 + 10_000);
    });
    assert_eq!(w.steps, 10 + 10_000);
    // Every step parked one actor and woke the other.
    assert_eq!(tracer.len() - events, 20_000);
    assert_eq!(tracer.dropped() - dropped, 20_000);
    assert_eq!(allocs, 0);
}

#[test]
fn ten_thousand_park_wake_queuing_emits_past_the_cap_allocate_nothing() {
    let tracer = full_tracer();
    let dropped = tracer.dropped();
    let allocs = allocs_during(|| {
        for i in 0..10_000u64 {
            match i % 3 {
                0 => tracer.park(i, "fleet-worker"),
                1 => tracer.wake(i, "fleet-worker"),
                _ => tracer.queuing(i, i, Class::Demand, i - 2, i),
            }
        }
    });
    assert_eq!(tracer.dropped() - dropped, 10_000);
    assert_eq!(allocs, 0);
}

/// A buffer-cache miss on a full cache: the incoming block's box goes in,
/// the least recently used block goes out.
fn miss(cache: &mut BufCache, l: u32) {
    let block = vec![0u8; 4096].into_boxed_slice();
    cache.insert(1, LBlock::Data(l), block, false, l);
    cache.shrink_to_capacity();
}

#[test]
fn a_warm_buffer_cache_allocates_the_incoming_block_and_nothing_else() {
    // The paper's 3.2 MB cache.
    const BLOCKS: u32 = 800;
    let mut cache = BufCache::new(BLOCKS as u64 * 4096, 4096);
    // Warm-up: the slab reaches capacity + 1 slots and the index its
    // steady table; from here every miss reuses the slot just freed.
    let warm = 10 * BLOCKS;
    for l in 0..warm {
        miss(&mut cache, l);
    }
    assert_eq!(cache.len(), BLOCKS as usize);

    let allocs = allocs_during(|| {
        for l in warm..warm + 10_000 {
            miss(&mut cache, l);
        }
    });
    assert_eq!(allocs, 10_000, "one box per miss: no node, no growth");
    assert_eq!(cache.len(), BLOCKS as usize);

    // Hits, and a block's trip to the dirty list and back.
    let newest = warm + 10_000 - 1;
    let allocs = allocs_during(|| {
        for i in 0..10_000 {
            let lb = LBlock::Data(newest - i % BLOCKS);
            assert!(cache.get(1, lb).is_some());
            assert!(cache.get_mut(1, lb).is_some());
            cache.mark_dirty(1, lb);
            cache.mark_clean(1, lb, i);
        }
    });
    assert_eq!(allocs, 0);
}

/// The engine's two whole-segment moves, by reference, on devices alone:
/// a fetch (medium → cache line) and a copy-out (line → medium) of one
/// 256-block segment that both levels already hold. Seen red (300) with
/// the jukebox copying what it is handed into a buffer of its own.
#[test]
fn a_fetch_and_copy_out_round_trip_allocates_one_slot_array() {
    const LINE: u64 = 2;
    let disk = Disk::new(DiskProfile::RZ57, LINE + 256, None);
    let jb = Jukebox::new(
        JukeboxConfig {
            volumes: 1,
            segments_per_volume: 1,
            ..JukeboxConfig::hp6300_paper()
        },
        None,
    );
    jb.poke_segment(0, 0, &vec![7u8; 1 << 20]).unwrap();
    disk.poke(LINE, &vec![0u8; 1 << 20]).unwrap();
    let mut staged = vec![Block::zeroed(BLOCK_SIZE); 256];
    let mut t = 0;
    let mut round_trip = || {
        let (r, _) = jb.read_segment_on(t, 0, 0, 0, &mut staged).unwrap();
        let w = disk.write_blocks(r.end, LINE, &staged).unwrap();
        let r = disk.read_blocks(w.end, LINE, &mut staged).unwrap();
        let (w, _) = jb.write_segment_on(r.end, 0, 0, 0, &staged).unwrap();
        t = w.end;
    };
    round_trip();
    let allocs = allocs_during(|| {
        for _ in 0..100 {
            round_trip();
        }
    });
    assert_eq!(
        allocs, 100,
        "one slot array per media write, nothing per block"
    );
    let mut back = vec![0u8; 1 << 20];
    jb.peek_segment(0, 0, &mut back).unwrap();
    assert!(back.iter().all(|&b| b == 7));
}

/// The same round trip through the engine — demand fetch, seal,
/// copy-out, eject — once the trace ring is full (so its events are
/// digested and dropped, as in a long run).
///
/// 18 allocations: the two requests' records (ticket, boxed request,
/// queue and directory nodes: 9 for the fetch, 6 for the copy-out, 2 for
/// the eject), which do not depend on the segment's size — the same
/// round trip allocated 17 when the engine staged bytes — and the
/// medium's one slot array. A staging array per op, or a copy of the
/// segment anywhere on the way, adds to it (the copying jukebox above
/// reads 20 here).
#[test]
fn an_engine_round_trip_allocates_one_slot_array_beyond_its_requests() {
    let (tio, jb, map) = RigSpec::with_lines(40..41).build();
    let seg = map.tert_seg(0, 0);
    jb.poke_segment(0, 0, &vec![7u8; 1 << 20]).unwrap();
    let mut t = 0;
    let mut round_trip = || {
        let (_, ready) = tio.demand_fetch(t, seg).unwrap();
        tio.cache()
            .borrow_mut()
            .set_state(seg, LineState::DirtyWait);
        t = tio.copy_out(ready, seg).unwrap();
        assert!(tio.eject(seg));
    };
    for _ in 0..2_000 {
        round_trip();
    }
    assert!(tio.tracer().dropped() > 0, "warm-up fills the trace ring");
    let allocs = allocs_during(|| {
        for _ in 0..100 {
            round_trip();
        }
    });
    assert_eq!(allocs, 100 * 18);
}
