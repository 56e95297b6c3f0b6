//! The two structures every simulated event passes through — the
//! scheduler's run queue and the tracer's digest — allocate nothing in
//! steady state, and the structure every file block passes through — the
//! buffer cache — allocates only the block. Exact counts, so the day a
//! `format!` or a per-step `Vec` creeps back this goes red.
//!
//! A binary of its own: it installs a counting global allocator. The
//! count is per thread, so the harness's other threads cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hl_lfs::buffer::BufCache;
use hl_lfs::LBlock;
use hl_sim::{Actor, ActorId, Scheduler, SimTime, Step, Waker};
use hl_trace::{Class, Tracer};

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
