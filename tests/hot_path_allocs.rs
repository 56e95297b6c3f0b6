//! The two structures simulated events pass through — the scheduler's
//! run queue, and for a request's events the tracer's digest and checker
//! — allocate nothing once warm: the tracer with one span live, and with
//! 256 live spans and 64 cache lines once its hashed tables have grown
//! to their size (but for the checker's amortised list of device
//! intervals; while those tables were B-trees, only the one-span case
//! held), the structure every file block passes
//! through — the buffer cache — allocates only the block, the LFS moves
//! a block by handle (a read miss allocates nothing, a write and its
//! sync one block per block written), a mounted HighLight's read of a
//! cached block allocates nothing and its overwrite of one only the new
//! block (the access tracker updates its extents in place), a segment
//! crossing between the levels allocates nothing (each level keeps the
//! other's array of block handles),
//! an oracle segment poked onto a rig's media allocates one block and
//! one handle array, a request's way through the engine's queues to a
//! drive and back allocates its boxed record and its ticket cell and
//! nothing else (no scratch list in the fair queue, the device scheduler,
//! the drive table or the fetch's choice of home), an actor parking on a
//! request's ticket and being woken by the engine allocates nothing, a
//! demand fetch of a resident segment allocates nothing, a request frame
//! and its reply crossing a server connection allocate nothing, a
//! resident fleet's request allocates nothing, and a cold fleet's extra
//! requests are pinned by count. Exact counts, so the day a `format!`, a
//! per-step `Vec` or a staging copy creeps back this goes red.
//!
//! A binary of its own: it installs a counting global allocator. The
//! count is per thread, so the harness's other threads cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use highlight::requests::{Inbox, Ticket};
use highlight::rig::{hp6300, HlRig, RigSpec};
use highlight::segcache::LineState;
use highlight::TertiaryIo;
use hl_footprint::{Footprint, Jukebox, JukeboxConfig};
use hl_lfs::buffer::BufCache;
use hl_lfs::config::{LfsConfig, LinearMap, NoTertiary};
use hl_lfs::types::SegNo;
use hl_lfs::ufs::Ufs;
use hl_lfs::{LBlock, Lfs};
use hl_server::{
    run_fleet, Connection, FleetConfig, Req, RequestFrame, ResponseFrame, ShardSpec, StormConfig,
};
use hl_sim::time::MS;
use hl_sim::{Actor, ActorId, Clock, Scheduler, SimTime, Step, Waker};
use hl_trace::{Class, Lane, LineTag, Tracer};
use hl_vdev::{Block, BlockDev, Disk, DiskProfile, BLOCK_SIZE, SEGMENT_ORIGIN};

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
/// its device interval, its span closing — into a tracer that keeps no
/// events, as every tracer outside tests does. Each is digested and
/// checked as it arrives. The open, queuing and close emits allocate
/// nothing; the device interval goes on the checker's interval list,
/// whose amortised growth (a doubling from 4 to 4 096 slots over 2 501
/// intervals) is the only allocation left.
#[test]
fn ten_thousand_span_queuing_dev_io_emits_allocate_only_the_interval_lists_growth() {
    let tracer = Tracer::new();
    let request = |i: u64| match i % 4 {
        0 => assert_eq!(tracer.open_span(i, Class::Demand, Some(i)), i / 4),
        1 => tracer.queuing(i, i / 4, Class::Demand, i - 1, i),
        2 => tracer.dev_io(Lane::Drive(1), i, i + 1),
        _ => tracer.close_span(i, i / 4, true),
    };
    // One request first: the per-drive totals, the residency counts and
    // the checker's span and lane tables grow to their steady size.
    (0..4).for_each(request);
    let mut by_kind = [0u64; 4];
    for i in 4..10_004 {
        by_kind[(i % 4) as usize] += allocs_during(|| request(i));
    }
    assert_eq!(tracer.len(), 10_004);
    assert_eq!(by_kind, [0, 0, 10, 0]);
    assert_eq!(hl_trace::tracecheck(&tracer, &Default::default()), vec![]);
}

/// A tracer as a cold fleet's shard holds it: 256 spans live at once
/// and 64 clean cache lines. 10 000 times the oldest span closes and a
/// new one opens, and 30 000 times a line moves on: one line after
/// another is discarded, refilled and turns clean again. Once warm (the
/// live spans turned over 10 000 times, every line clean), none of it
/// allocates: the checker's live-span and line tables are hashed, and a
/// hashed table keeps its slots when an entry leaves. (The span table
/// grows once, about 2 000 turnovers in, when the slots departed spans
/// left marked use up its free budget; it rehashes in place after
/// that.) At first the opens allocated 1 633 times and the transitions
/// 981, while both tables were `BTreeMap`s: a B-tree splits a node as
/// keys arrive and frees one as they leave.
#[test]
fn a_warm_tracer_with_256_live_spans_and_64_lines_allocates_nothing() {
    const LIVE: u64 = 256;
    const LINES: u64 = 64;
    let tracer = Tracer::new();
    let cycle = |i: u64| {
        tracer.close_span(i, i, true);
        assert_eq!(tracer.open_span(i, Class::Demand, Some(i)), i + LIVE);
    };
    let step = [LineTag::Clean, LineTag::Empty, LineTag::Filling];
    let transition = |i: u64| {
        let phase = i as usize % step.len();
        let to = step[(phase + 1) % step.len()];
        tracer.cache_state(i, i / 3 % LINES, step[phase], to);
    };
    (0..LIVE).for_each(|i| assert_eq!(tracer.open_span(0, Class::Demand, Some(i)), i));
    (0..10_000).for_each(cycle);
    (0..LINES).for_each(|l| tracer.cache_state(0, l, LineTag::Empty, LineTag::Clean));

    let mut close_open_line = [0u64; 3];
    for i in 10_000..20_000 {
        close_open_line[0] += allocs_during(|| tracer.close_span(i, i, true));
        close_open_line[1] += allocs_during(|| {
            tracer.open_span(i, Class::Demand, Some(i));
        });
    }
    for i in 0..30_000 {
        close_open_line[2] += allocs_during(|| transition(i));
    }
    assert_eq!(tracer.open_spans().len(), LIVE as usize);
    assert_eq!(close_open_line, [0, 0, 0]);
    assert_eq!(hl_trace::tracecheck(&tracer, &Default::default()), vec![]);
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

/// The hit path through a mounted HighLight: a 4 KB `read` of a block
/// the buffer cache holds, then a 4 KB overwrite of it, after a warm-up
/// that reads every block once (the inode, the read-ahead hint and the
/// file's extent list are in place). The read allocates nothing: one
/// probe each of the inode map, the buffer cache and the hint, and the
/// access tracker splits and re-coalesces its extent in place. The
/// overwrite allocates the fresh block the caller's bytes are copied
/// into. Seen red at the parent commit, 2 and 3: the tracker rebuilt
/// the file's extents in two fresh vectors on every call.
#[test]
fn a_highlight_read_hit_allocates_nothing_and_an_overwrite_its_block() {
    let rig = HlRig::new(2 + 40 * 256 + 5, hp6300(2, 4), 1, None);
    rig.mkfs();
    let mut hl = rig.mount();
    let ino = hl.create("/f").expect("create");
    hl.write(ino, 0, &[7u8; 8 * BLOCK_SIZE]).expect("write");
    hl.sync().expect("sync");
    let mut buf = vec![0u8; BLOCK_SIZE];
    for l in 0..8 {
        hl.read(ino, (l * BLOCK_SIZE) as u64, &mut buf)
            .expect("warm-up read");
    }
    let at = 3 * BLOCK_SIZE as u64;
    let hits = hl.lfs().stats().cache_hits;
    let read = allocs_during(|| {
        assert_eq!(hl.read(ino, at, &mut buf).expect("read"), BLOCK_SIZE);
    });
    assert_eq!(hl.lfs().stats().cache_hits, hits + 1, "a buffer-cache hit");
    assert_eq!(read, 0, "a read hit");
    let fresh = [9u8; BLOCK_SIZE];
    let overwrite = allocs_during(|| hl.write(ino, at, &fresh).expect("overwrite"));
    assert_eq!(overwrite, 1, "the new block");
    assert_eq!(hl.read(ino, at, &mut buf).expect("read back"), BLOCK_SIZE);
    assert!(buf == fresh);
}

/// The engine's two whole-segment moves, by reference, on devices alone:
/// a fetch (medium → cache line) and a copy-out (line → medium) of one
/// 256-block segment, the line at block `line` of the disk: the
/// allocations of 100 warm round trips.
fn device_round_trips_allocs(line: u64) -> u64 {
    let disk = Disk::new(DiskProfile::RZ57, line + 256, None);
    let jb = Jukebox::new(
        JukeboxConfig {
            volumes: 1,
            segments_per_volume: 1,
            ..JukeboxConfig::hp6300_paper()
        },
        None,
    );
    jb.poke_segment(0, 0, &vec![7u8; 1 << 20]).unwrap();
    disk.poke(line, &vec![0u8; 1 << 20]).unwrap();
    let mut t = 0;
    let mut round_trip = || {
        let (r, _, seg) = jb.read_segment_on(t, 0, 0, 0).unwrap();
        let w = disk.write_seg(r.end, line, &seg).unwrap();
        let (r, seg) = disk.read_seg(w.end, line, 256).unwrap();
        let (w, _) = jb.write_segment_on(r.end, 0, 0, 0, &seg).unwrap();
        t = w.end;
    };
    round_trip();
    let allocs = allocs_during(|| {
        for _ in 0..100 {
            round_trip();
        }
    });
    let mut back = vec![0u8; 1 << 20];
    jb.peek_segment(0, 0, &mut back).unwrap();
    assert!(back.iter().all(|&b| b == 7));
    allocs
}

/// The line at a run boundary of the disk's store: each level keeps the
/// array the other lent, so a round trip moves two handles and
/// allocates nothing. Seen red, each sabotage alone: 200 with the
/// jukebox keeping a copy of the array it is handed; 300 with it
/// copying the bytes.
#[test]
fn a_fetch_and_copy_out_round_trip_allocates_nothing() {
    let allocs = device_round_trips_allocs(SEGMENT_ORIGIN as u64);
    assert_eq!(allocs, 0, "a handle each way, nothing per block");
}

/// The line one block off a run boundary: the disk puts the fetched
/// handles one by one into the two runs the line straddles, and lends
/// the copy-out a fresh array of 256 handles, made at its exact size:
/// one allocation a trip. Seen red at 300 with the array collected
/// through a growing vector and copied into its `Rc`.
#[test]
fn a_round_trip_off_a_run_boundary_allocates_the_lent_array() {
    let allocs = device_round_trips_allocs(SEGMENT_ORIGIN as u64 + 1);
    assert_eq!(allocs, 100);
}

/// Building a scenario/shard rig pokes the oracle image onto each of its
/// 64 tertiary segments as one shared block: per segment the block and
/// the segment's handle array, which the slot keeps (2 allocations, 4 KB
/// and 6 KB of bytes). Nothing per block, and no segment's bytes. (One
/// more, 2 * 64 + 1, while the rig filled a reused handle vector and
/// the slot copied it into an array of its own.) Seen red (256
/// allocations, and 2 109 472 bytes a segment) with the per-slot
/// `poke_segment(&seg_image(..))` put back.
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
    assert_eq!(allocs - bare_allocs, 2 * SEGS);
    assert!(
        bytes - bare_bytes < SEGS * 16 * 1024,
        "{} bytes per segment",
        (bytes - bare_bytes) / SEGS
    );
}

/// The same round trip through the engine — demand fetch, seal,
/// copy-out, eject — once warm. Its events are digested and checked,
/// and not kept, as in any run outside tests.
///
/// 6 allocations a trip: the boxed record and the ticket cell of each of
/// the three requests, which do not depend on the segment's size. At
/// first 17: the records and 11 throw-away vectors — the drives' loaded
/// volumes, collected on each of six I/O-lane steps and once for the
/// fetch (7), the device scheduler's eligible ops (2), and the fetch's
/// candidate homes with the replica directory's list of homes (2); 15
/// once the scheduler re-walked its queue, 9 once each lane refilled a
/// vector of its own, 6 once an unreplicated segment read its one home
/// off the address map. The segment itself allocates nothing: the line keeps the
/// slot's array and the slot keeps the line's (18 a trip while the
/// medium kept a copy of the handles it was handed). A staging array per
/// op, or a copy of the segment anywhere on the way, adds to it: seen
/// red at 19 a trip with the jukebox keeping a copy of the array it is
/// handed, and 20 with it copying the bytes. One
/// more in the 100: the checker's list of device intervals (four a
/// trip) doubles inside the window. The test's seal is a shortcut the
/// checker reports (`clean>dirtywait`); it lists its first 1 000
/// findings and counts the rest, so a warm trip formats none.
#[test]
fn an_engine_round_trip_allocates_only_its_requests() {
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
    let allocs = allocs_during(|| {
        for _ in 0..100 {
            round_trip();
        }
    });
    assert_eq!(allocs, 100 * 6 + 1);
}

/// A demand fetch of a resident segment is answered on the spot, on a
/// ticket that carries its answer: 10 000 of them, each read back,
/// allocate nothing. Seen red (10 000, one shared ticket cell a get)
/// with `Ticket::new()` and `resolve` back in `enqueue_fetch`'s resident
/// branch.
#[test]
fn a_resident_demand_fetch_allocates_nothing() {
    let (tio, jb, map) = RigSpec::with_lines(40..41).build();
    let seg = map.tert_seg(0, 0);
    jb.poke_segment(0, 0, &vec![7u8; 1 << 20]).unwrap();
    let (line, ready) = tio.demand_fetch(0, seg).unwrap();
    let allocs = allocs_during(|| {
        for at in ready..ready + 10_000 {
            let ticket = tio.enqueue_demand(at, seg);
            assert_eq!(ticket.fetch_result().unwrap(), (line, at));
        }
    });
    assert_eq!(allocs, 0);
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
/// the engine wakes it. Once warm, a trip allocates 4 times — what the
/// pumped engine spends on the same two requests with no waiter at all,
/// their boxed records and ticket cells — so registering the waiter
/// under its token, posting the token and waking the waiter allocate
/// nothing. (11 each while the device scheduler collected its eligible
/// ops; 9 parked and 10 pumped while each I/O-lane step collected the
/// drives' loaded volumes; 7 while the fetch collected its candidate
/// homes.) Seen red (12 against 11), each sabotage
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
    let allocs = allocs_during(|| (0..100).for_each(|_| pumped()));
    assert_eq!(allocs, 100 * 4);

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
    let allocs = w.marks[TRIPS - 1] - w.marks[TRIPS - 101];
    assert_eq!(allocs, 100 * 4);
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
/// engine posts it, allocates 8 times — twice the single parked trip's
/// 4, which is what the requests themselves cost — so registering under
/// a token, posting it and taking it allocate nothing (22 while the
/// device scheduler collected its eligible ops, 18 while each I/O-lane
/// step collected the drives' loaded volumes, 14 while each fetch
/// collected its candidate homes).
/// One more in the 100 trips: the checker's list of device intervals
/// doubles inside the window. Seen red (26 against 22), each sabotage
/// alone: every registration allocated, as a `Vec`
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
    let allocs = w.marks[TRIPS - 1] - w.marks[TRIPS - 101];
    assert_eq!(allocs, 100 * 8 + 1);
}

/// A request and its reply across a warm connection: the client encodes
/// its frame onto the pipe, the worker decodes it and encodes the reply,
/// the client decodes that. Nothing is allocated. Seen red (3 per round
/// trip) with `send_request` encoding into a temporary `Vec` again.
#[test]
fn a_warm_connection_round_trip_allocates_nothing() {
    let conn = Connection::new(0);
    let trip = |req_id: u64| {
        conn.send_request(&RequestFrame {
            tenant: 3,
            req_id,
            req: Req::Get { obj: req_id },
        });
        let f = conn.recv_request().unwrap().expect("a whole request");
        conn.send_response(&ResponseFrame {
            req_id: f.req_id,
            result: Ok(f.req_id),
        });
        let r = conn.recv_response().unwrap().expect("a whole response");
        assert_eq!(r.req_id, req_id);
    };
    trip(0);
    let allocs = allocs_during(|| (1..=1_000).for_each(trip));
    assert_eq!(allocs, 0);
}

/// A resident fleet on `fleet_resident`'s geometry (100 clients, 4
/// shards of 32 objects behind 64 lines): every object is fetched once,
/// then every get is a cache hit.
fn resident_fleet(requests_per_client: u32) -> FleetConfig {
    FleetConfig {
        clients: 100,
        requests_per_client,
        tenants: 8,
        workers: 8,
        shards: 4,
        spec: ShardSpec {
            volumes: 2,
            segments_per_volume: 16,
            cache_lines: 64,
            drives: 2,
        },
        think: 20 * MS,
        ..FleetConfig::small(1993)
    }
}

/// Two resident fleets, 20 and 40 gets a client. The 2 000 extra
/// requests allocate 21 times, none of them per request: a resident
/// get's engine ticket carries its answer without a cell, and the
/// fleet's latency log is sized for every request up front. The 21
/// follow the warm-up, whose misses coalesce differently as the scripts
/// change, not the request count: at 20, 40, 80, 160 and 320 gets a
/// client the runs allocated 3 046, 3 079, 3 089, 3 093 and 3 101 times,
/// and at 21 gets 3 038, before a fill moved one segment handle (which
/// took 140 from each run; see below). The client's in-flight set and both directions
/// of every connection allocate nothing per request. Seen red, each sabotage alone: `Ticket::new()` put back in
/// `enqueue_fetch`'s resident branch (4 677 and 6 645 allocations: one
/// ticket cell a get, less the gets that join a fetch already under
/// way, which the two runs' different warm-ups coalesce differently);
/// the pipe a `VecDeque` fed from a temporary `Vec` again (13 981 extra,
/// 7 a request); the temporary `Vec` alone (7 981 extra, 4 a request);
/// no `reserve` before a send (400 more in each run: two more growth
/// steps a direction a connection); the client's in-flight set a
/// `BTreeMap` again — the same counts, since a B-tree keeps its emptied
/// root leaf and so allocates once a client, as the vector does, but
/// 18 400 more bytes in each run (a 280-byte leaf against a 96-byte
/// vector, 100 times). Both runs took 2 208 bytes more while the engine
/// kept a stall notifier: 24 in each shard's `TioInner` and 16 in each
/// `Request` slot the queues hold; 320 more while each shard's jukebox
/// configuration carried a media kind and a volume-change time (80
/// bytes in each of four shards); and 192 more while each shard's trace
/// recorder kept its own copy of the checker's down windows (48 bytes
/// in each of four shards). Both runs took 4 allocations and 2 816
/// bytes more while each shard's engine kept a Table 4 phase map (one
/// 280-byte B-tree leaf) and a 31-field counter struct beside the trace,
/// and its fault log a per-kind tally (424 bytes of `TioInner`); and 64
/// more while each shard's pending-fetch map carried a 16-byte SipHash
/// `RandomState` (`BlockHashBuilder` is zero-sized). Both runs took 160
/// bytes more once the run queue kept a front slot: an `Option<u128>`
/// (32 bytes, 16-byte aligned) in each of four shards' private
/// schedulers, 40 bytes a shard with the engine's padding. Both runs
/// took 4 bytes a request more while each client's script held `u64`
/// ids (8 000 and 16 000), and 9 and 10 allocations more (33 472 and
/// 67 008 bytes) while the latency log grew by doubling. Both runs took
/// 140 allocations and 1 128 608 bytes more while a fill copied the
/// slot's 256 handles into the cache disk's store (a fresh run array per
/// run a line touched, two per line while segment 0 started two blocks
/// into a run) and each shard's engine kept a staging array of handles;
/// and 16 allocations and 33 568 bytes fewer before each Zipfian kept a
/// guide table (eight `u32` a rank, plus one: the fleet's 8 tenant
/// stores over 128 objects and the tenant mix's 8 samplers). Both runs
/// took 232 and 236 allocations more (18 560 and 20 864 bytes) while the
/// fair queue collected the keys it held and its candidates on each
/// tagged pop of the warm-up, and 249 and 250 more (11 264 and 11 456
/// bytes) while the device scheduler collected its eligible ops; and
/// 139 and 136 more, but 208 and 256 bytes fewer, while each I/O-lane
/// step collected the drives' loaded volumes into a fresh vector (each
/// lane now keeps one of two entries); and 384 more (6 144 bytes) in
/// each run while each fetch collected its candidate homes. Both took
/// 1 920 and 1 664 bytes fewer before each pending fetch's entry
/// remembered whether it is demand-class (40 bytes against 32, in four
/// shards' growing pending-fetch maps). The runs took 2 allocations
/// fewer and 7 more (1 918 and 1 949), and 8 144 and 6 208 bytes fewer,
/// while the trace checker kept its live spans and line states in
/// B-trees: a hashed table grows by doubling, in fewer and larger steps
/// than a B-tree's leaves. The same held for the recorder's per-class
/// residency counts: 1 allocation fewer in the first run, and 4 880 and
/// 4 688 bytes fewer, while they were B-trees. Both runs took 40
/// allocations and 7 936 bytes more while `tracecheck` swept each
/// shard's device intervals again, into two growing vectors of starts
/// and ends, instead of reading the peaks the fleet's `stats()` had
/// swept.
#[test]
fn a_resident_fleet_allocates_nothing_per_request() {
    let runs = [20, 40].map(|n| {
        let cfg = resident_fleet(n);
        let mut completed = 0;
        let (allocs, bytes) = allocs_and_bytes_during(|| completed = run_fleet(&cfg).completed);
        (completed, allocs, bytes)
    });
    assert_eq!(runs, [(2_000, 1_881, 2_011_864), (4_000, 1_902, 2_118_024)]);
    let extra_allocs = runs[1].1 - runs[0].1;
    assert!(
        extra_allocs < (runs[1].0 - runs[0].0) / 20,
        "none a request: only vectors sized by the run's length grow"
    );
}

/// A cold fleet on `fleet_cold`'s geometry (4 shards of 16 lines and 2
/// drives over 64 objects, tenant 7 a width-8 prefetch storm), at 200
/// clients of 4 and 8 gets: most gets miss, queue, and reach a drive.
fn cold_fleet(requests_per_client: u32) -> FleetConfig {
    FleetConfig {
        clients: 200,
        requests_per_client,
        tenants: 8,
        workers: 8,
        shards: 4,
        spec: ShardSpec {
            volumes: 4,
            segments_per_volume: 16,
            cache_lines: 16,
            drives: 2,
        },
        think: 200 * MS,
        storm: Some(StormConfig {
            tenant: 7,
            width: 8,
        }),
        ..FleetConfig::small(1993)
    }
}

/// Two cold fleets, 4 and 8 gets a client: the allocations of the 800
/// extra requests, and of the fetches, ejections and storm prefetches
/// they bring, pinned exactly: 723, 0.90 a request. They were 805 while
/// the trace checker's live-span and line tables and the recorder's
/// residency counts were B-trees, 777 with the residency counts alone,
/// and 731 while `tracecheck` swept each shard's device intervals again
/// (the runs then took 3 495 and 4 226).
/// Seen red at 4 312 (5.4) while the fair queue collected its held and
/// candidate keys on each tagged pop, at 3 189 (4.0) while the device
/// scheduler collected its eligible ops, at 2 658 (3.3) while each
/// I/O-lane step collected the drives' loaded volumes, at 2 389 (3.0)
/// while each fetch collected its candidate homes, and at 1 597 (2.0)
/// while each eviction collected and sorted the clean lines.
#[test]
fn a_cold_fleets_extra_requests_allocate_their_records() {
    let runs = [4, 8].map(|n| {
        let cfg = cold_fleet(n);
        let mut completed = 0;
        let allocs = allocs_during(|| completed = run_fleet(&cfg).completed);
        (completed, allocs)
    });
    assert_eq!(runs, [(800, 3_439), (1_600, 4_162)]);
}
