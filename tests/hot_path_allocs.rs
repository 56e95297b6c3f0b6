//! The two structures simulated events pass through — the scheduler's
//! run queue, and for a request's events the tracer's digest — allocate
//! nothing in steady state, the structure every file block passes
//! through — the buffer cache — allocates only the block, the LFS moves
//! a block by handle (a read miss allocates nothing, a write and its
//! sync one block per block written), a segment
//! crossing between the levels allocates only the medium's slot array,
//! an oracle segment poked onto a rig's media allocates one block and
//! one slot array, and an actor parking on a request's ticket and being woken by the
//! engine allocates nothing. Exact counts, so the day a `format!`, a
//! per-step `Vec` or a staging copy creeps back this goes red.
//!
//! A binary of its own: it installs a counting global allocator. The
//! count is per thread, so the harness's other threads cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use highlight::requests::{Inbox, Ticket};
use highlight::rig::RigSpec;
use highlight::segcache::LineState;
use highlight::TertiaryIo;
use hl_footprint::{Footprint, Jukebox, JukeboxConfig};
use hl_lfs::buffer::BufCache;
use hl_lfs::config::{LfsConfig, LinearMap, NoTertiary};
use hl_lfs::types::SegNo;
use hl_lfs::ufs::Ufs;
use hl_lfs::{LBlock, Lfs};
use hl_sim::{Actor, ActorId, Clock, Scheduler, SimTime, Step, Waker};
use hl_trace::{Class, Lane, Tracer};
use hl_vdev::{Block, BlockDev, Disk, DiskProfile, BLOCK_SIZE};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation of `size` bytes on this thread.
fn count(size: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + size as u64));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; counting touches only const-initialised
// thread-local `Cell`s, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed on as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

/// Allocations, and bytes allocated, while `f` runs.
fn allocs_and_bytes_during(f: impl FnOnce()) -> (u64, u64) {
    let before = BYTES.with(Cell::get);
    let allocs = allocs_during(f);
    (allocs, BYTES.with(Cell::get) - before)
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

/// A buffer-cache miss on a full cache: the incoming block goes in, the
/// least recently used block goes out.
fn miss(cache: &mut BufCache, l: u32) {
    cache.insert(1, LBlock::Data(l), Block::zeroed(4096), false, l);
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
    assert_eq!(allocs, 10_000, "one block per miss: no node, no growth");
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

/// A base LFS on an RZ57 of 24 segments every block of which has been
/// written once, so the disk store's index is at its full size and a
/// write of block handles replaces entries without growing it.
fn lfs_on_a_written_disk() -> Lfs {
    let nblocks = 2 + 24 * 256;
    let disk = Rc::new(Disk::new(DiskProfile::RZ57, nblocks, None));
    disk.poke(0, &vec![0u8; nblocks as usize * BLOCK_SIZE])
        .unwrap();
    let cfg = LfsConfig::base(Clock::new());
    let map = Rc::new(LinearMap::for_device(nblocks, cfg.blocks_per_seg(), 2));
    Lfs::mkfs(disk.clone(), map.clone(), Rc::new(NoTertiary), cfg.clone()).expect("mkfs");
    Lfs::mount(disk, map, Rc::new(NoTertiary), cfg).expect("mount")
}

/// A sequential read of a disk-resident 1 MB file from a cold buffer
/// cache: 64 KB calls, 16-block clusters (the first stops at the
/// indirect block), each block a handle the disk store lends the cache.
/// Zero allocations for the whole file, so zero per block: the copy to
/// the caller is the only time its bytes move. Seen red (256, one per
/// block) with `read_scratch` put back: the cluster read as bytes into
/// a reusable buffer and each block copied out of it.
#[test]
fn an_lfs_read_miss_of_a_resident_cluster_allocates_nothing() {
    const BLOCKS: usize = 256;
    let mut fs = lfs_on_a_written_disk();
    let ino = fs.create("/f").expect("create");
    let data: Vec<u8> = (0..BLOCKS * BLOCK_SIZE).map(|i| (i % 251) as u8).collect();
    fs.write(ino, 0, &data).expect("write");
    fs.sync().expect("sync");
    let mut call = vec![0u8; 16 * BLOCK_SIZE];
    let mut read_all = |fs: &mut Lfs| {
        fs.drop_caches();
        for (k, want) in data.chunks(call.len()).enumerate() {
            let off = (k * call.len()) as u64;
            assert_eq!(fs.read(ino, off, &mut call).expect("read"), call.len());
            assert!(call[..] == *want);
        }
    };
    // Warm-up: the cache's slab and index, the inode map and the
    // read-ahead hint reach their steady size.
    read_all(&mut fs);
    let misses = fs.stats().cache_misses;
    let allocs = allocs_during(|| read_all(&mut fs));
    assert_eq!(
        fs.stats().cache_misses - misses,
        BLOCKS as u64 + 1,
        "every block and Ind1 missed"
    );
    assert_eq!(allocs, 0);
}

/// Full-block overwrites of a file's synced direct blocks through
/// `Lfs::write`, then `sync` (one partial: the blocks and the inode).
/// Each block costs one allocation — the fresh block the caller's bytes
/// are copied into — and the partial a constant (30): its handle array,
/// its summary and inode blocks, the writer's key and FINFO lists. The
/// block counts compared lie in one growth step of those lists (9 to 16
/// entries), so their difference is the per-block cost alone. Seen red
/// (6 for the 3 blocks) with the writer handing the device copies of
/// the cached blocks instead of their handles.
#[test]
fn an_lfs_write_and_sync_allocates_one_block_per_block_written() {
    let mut fs = lfs_on_a_written_disk();
    let ino = fs.create("/f").expect("create");
    let data = vec![0x5au8; 16 * BLOCK_SIZE];
    fs.write(ino, 0, &data).expect("write");
    fs.sync().expect("sync");
    let write_sync = |fs: &mut Lfs, blocks: usize| {
        allocs_during(|| {
            fs.write(ino, 0, &data[..blocks * BLOCK_SIZE])
                .expect("write");
            fs.sync().expect("sync");
        })
    };
    write_sync(&mut fs, 16);
    let partials = fs.stats().partials_written;
    let (nine, twelve) = (write_sync(&mut fs, 9), write_sync(&mut fs, 12));
    assert_eq!(
        fs.stats().partials_written - partials,
        2,
        "one partial each"
    );
    assert_eq!(twelve - nine, 3, "one allocation per block written");
    assert_eq!(nine - 9, 30, "the partial's own allocations");
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

/// Building a scenario/shard rig pokes the oracle image onto each of its
/// 64 tertiary segments as one shared block: per segment the block and
/// the slot's handle array (2 allocations, 4 KB and 8 KB of bytes), plus
/// one handle run reused for every segment. Nothing per block, and no
/// segment's bytes. Seen red (256 allocations, and 2 109 472 bytes a
/// segment) with the per-slot `poke_segment(&seg_image(..))` put back.
#[test]
fn building_an_oracle_rig_allocates_per_segment_not_per_block() {
    const SEGS: u64 = 4 * 16;
    let with = RigSpec::cache_disk(16, 4, 16, 2, 1993);
    let without = RigSpec {
        image_seed: None,
        ..with.clone()
    };
    let cost = |spec: &RigSpec| allocs_and_bytes_during(|| drop(spec.build()));
    cost(&with);
    let ((allocs, bytes), (bare_allocs, bare_bytes)) = (cost(&with), cost(&without));
    assert_eq!(allocs - bare_allocs, 2 * SEGS + 1);
    assert!(
        bytes - bare_bytes < SEGS * 16 * 1024,
        "{} bytes per segment",
        (bytes - bare_bytes) / SEGS
    );
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
/// as each trip starts. One ticket is open at a time, so the token the
/// engine posts is taken and dropped.
struct FetchEject {
    tio: Rc<TertiaryIo>,
    seg: SegNo,
    trips: usize,
    waiting: Option<Ticket>,
    inbox: Inbox,
    fetched: bool,
}
impl Actor<World> for FetchEject {
    fn step(&mut self, w: &mut World, now: SimTime) -> Step {
        if let Some(t) = &self.waiting {
            if t.wait(w.ids[0], &self.inbox, 0) {
                return Step::Park;
            }
            self.inbox.pop();
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
/// so registering the waiter under its token, posting the token and
/// waking the waiter allocate nothing. Seen red (12), each sabotage
/// alone: the waiters in a plain `Vec`; an inbox that gives its buffer
/// back whenever it empties.
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
            inbox: Inbox::new(),
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

/// Holds its open requests in a slab indexed by token, as a fleet worker
/// does: each trip demand-fetches both `segs`, registering each ticket
/// once under its slot's token, answers each fetch only when its token
/// arrives in the inbox, then ejects both lines the same way. Marks the
/// allocation count as each trip starts.
struct SlabWorker {
    tio: Rc<TertiaryIo>,
    segs: [SegNo; 2],
    trips: usize,
    open: Vec<Option<Ticket>>,
    inbox: Inbox,
    ejecting: bool,
}
impl Actor<World> for SlabWorker {
    fn step(&mut self, w: &mut World, now: SimTime) -> Step {
        while let Some(token) = self.inbox.pop() {
            let t = self.open[token as usize].take().expect("open");
            if !self.ejecting {
                assert!(t.fetch_result().is_ok());
            }
        }
        if self.open.iter().any(Option::is_some) {
            return Step::Park;
        }
        self.ejecting = !self.ejecting;
        if !self.ejecting {
            if w.marks.len() == self.trips {
                return Step::Done;
            }
            w.marks.push(ALLOCS.with(Cell::get));
        }
        for (slot, &seg) in self.segs.iter().enumerate() {
            let t = if self.ejecting {
                self.tio.enqueue_eject(now, seg)
            } else {
                self.tio.enqueue_demand(now, seg)
            };
            if t.wait(w.ids[0], &self.inbox, slot as u64) {
                self.open[slot] = Some(t);
            }
        }
        Step::Yield(now)
    }
}

/// A worker that answers from its inbox: a warmed trip of two fetches and
/// two ejects, each registered once under a token and answered when the
/// engine posts it, allocates 22 times — twice the single parked trip's
/// 11, which is what the requests themselves cost — so registering
/// under a token, posting it and taking it allocate nothing. Seen red
/// (26), each sabotage alone: every registration allocated, as a `Vec`
/// of waiters would; an inbox that gives its buffer back whenever it
/// empties.
#[test]
fn a_warmed_worker_answers_through_its_inbox_without_allocating() {
    const TRIPS: usize = 4_101;
    let (tio, jb, map) = RigSpec::with_lines(40..42).build();
    jb.poke_segment(0, 0, &vec![7u8; 1 << 20]).unwrap();
    jb.poke_segment(0, 1, &vec![9u8; 1 << 20]).unwrap();
    let mut sched = Scheduler::new();
    tio.attach_engine(&mut sched);
    let mut w = World {
        marks: Vec::with_capacity(TRIPS),
        ..World::default()
    };
    w.ids.push(sched.spawn_at(
        0,
        SlabWorker {
            tio: tio.clone(),
            segs: [map.tert_seg(0, 0), map.tert_seg(0, 1)],
            trips: TRIPS,
            open: vec![None, None],
            inbox: Inbox::new(),
            ejecting: true,
        },
    ));
    sched.run(&mut w);
    assert_eq!(w.marks.len(), TRIPS);
    assert_eq!(tio.stats().demand_fetches, 2 * TRIPS as u64);
    assert!(tio.tracer().dropped() > 0, "warm-up fills the trace ring");
    let allocs = w.marks[TRIPS - 1] - w.marks[TRIPS - 101];
    assert_eq!(allocs, 100 * 22);
}
