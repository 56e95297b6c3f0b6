//! The two structures simulated events pass through — the scheduler's
//! run queue, and for a request's events the tracer's digest — allocate
//! nothing in steady state, the structure every file block passes
//! through — the buffer cache — allocates only the block, a segment
//! crossing between the levels allocates only the medium's slot array,
//! and an actor parking on a request's ticket and being woken by the
//! engine allocates nothing. Exact counts, so the day a `format!`, a
//! per-step `Vec` or a staging copy creeps back this goes red.
//!
//! A binary of its own: it installs a counting global allocator. The
//! count is per thread, so the harness's other threads cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use highlight::requests::Ticket;
use highlight::rig::RigSpec;
use highlight::segcache::LineState;
use highlight::TertiaryIo;
use hl_footprint::{Footprint, Jukebox, JukeboxConfig};
use hl_lfs::buffer::BufCache;
use hl_lfs::types::SegNo;
use hl_lfs::LBlock;
use hl_sim::{Actor, ActorId, Scheduler, SimTime, Step, Waker};
use hl_trace::{Class, Lane, Tracer};
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
        t.mark(i, "fill".into());
    }
    t
}

/// What the actors below step against: a step counter, the actors' own
/// ids (known only once both are spawned), and allocation-count marks.
#[derive(Default)]
struct World {
    steps: u64,
    ids: Vec<ActorId>,
    marks: Vec<u64>,
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
}

#[test]
fn ten_thousand_park_wake_steps_allocate_nothing() {
    let mut sched = Scheduler::new();
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
    let allocs = allocs_during(|| {
        sched.run_until(&mut w, 9 + 10_000);
    });
    // Every step parked one actor and woke the other.
    assert_eq!(w.steps, 10 + 10_000);
    assert_eq!(allocs, 0);
}

/// The events one request emits — its span opening, its queue residency,
/// its device interval, its span closing — once the ring is full.
#[test]
fn ten_thousand_span_queuing_dev_io_emits_past_the_cap_allocate_nothing() {
    let tracer = full_tracer();
    let request = |i: u64| match i % 4 {
        0 => assert_eq!(tracer.open_span(i, Class::Demand, Some(i)), i / 4),
        1 => tracer.queuing(i, i / 4, Class::Demand, i - 1, i),
        2 => tracer.dev_io(Lane::Drive(1), i, i + 1),
        _ => tracer.close_span(i, i / 4, true),
    };
    // One request first: the per-drive totals and the open-span map grow
    // to their steady size.
    (0..4).for_each(request);
    let dropped = tracer.dropped();
    let allocs = allocs_during(|| (4..10_004).for_each(request));
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
    for _ in 0..4_000 {
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

/// Demand-fetches its segment, parks on the ticket, ejects the line and
/// parks on that ticket too, `trips` times, marking the allocation count
/// as each trip starts.
struct FetchEject {
    tio: Rc<TertiaryIo>,
    seg: SegNo,
    trips: usize,
    waiting: Option<Ticket>,
    fetched: bool,
}
impl Actor<World> for FetchEject {
    fn step(&mut self, w: &mut World, now: SimTime) -> Step {
        if let Some(t) = &self.waiting {
            if t.wait(w.ids[0]) {
                return Step::Park;
            }
            self.waiting = None;
        }
        let ticket = if self.fetched {
            self.fetched = false;
            self.tio.enqueue_eject(now, self.seg)
        } else if w.marks.len() < self.trips {
            w.marks.push(ALLOCS.with(Cell::get));
            self.fetched = true;
            self.tio.enqueue_demand(now, self.seg)
        } else {
            return Step::Done;
        };
        self.waiting = Some(ticket);
        Step::Yield(now)
    }
}

/// The fetch and eject of the round trip above, on an engine attached to
/// the caller's scheduler, with the caller parked on each ticket until
/// the engine wakes it. Once warm, a trip allocates 11 times — what the
/// pumped engine spends on the same two requests with no waiter at all —
/// so registering the waiter and waking it allocate nothing. Seen red
/// (12) with the waiters in a plain `Vec`.
#[test]
fn parking_on_a_ticket_and_being_woken_allocate_nothing() {
    let (tio, jb, map) = RigSpec::with_lines(40..41).build();
    let seg = map.tert_seg(0, 0);
    jb.poke_segment(0, 0, &vec![7u8; 1 << 20]).unwrap();
    let mut t = 0;
    let mut pumped = || {
        let (_, ready) = tio.demand_fetch(t, seg).unwrap();
        assert!(tio.eject(seg));
        t = ready;
    };
    for _ in 0..8_000 {
        pumped();
    }
    assert!(tio.tracer().dropped() > 0, "warm-up fills the trace ring");
    let allocs = allocs_during(|| (0..100).for_each(|_| pumped()));
    assert_eq!(allocs, 100 * 11);

    // The attached engine, 8 000 trips of warm-up and 100 measured, in
    // one run: a trip is measured from its start to the next one's.
    const TRIPS: usize = 8_101;
    let (tio, jb, map) = RigSpec::with_lines(40..41).build();
    jb.poke_segment(0, 0, &vec![7u8; 1 << 20]).unwrap();
    let mut sched = Scheduler::new();
    tio.attach_engine(&mut sched);
    let mut w = World {
        marks: Vec::with_capacity(TRIPS),
        ..World::default()
    };
    w.ids.push(sched.spawn_at(
        0,
        FetchEject {
            tio: tio.clone(),
            seg: map.tert_seg(0, 0),
            trips: TRIPS,
            waiting: None,
            fetched: false,
        },
    ));
    sched.run(&mut w);
    assert_eq!(w.marks.len(), TRIPS);
    assert_eq!(tio.stats().demand_fetches, TRIPS as u64);
    assert!(tio.tracer().dropped() > 0, "warm-up fills the trace ring");
    let allocs = w.marks[TRIPS - 1] - w.marks[TRIPS - 101];
    assert_eq!(allocs, 100 * 11);
}
