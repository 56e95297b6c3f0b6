//! Criterion micro-benchmarks of the hot in-memory paths (these measure
//! host wall time, unlike the table harnesses which report simulated
//! time): summary serialization, checksums (a block's, and a 1 MB
//! partial's `ss_datasum` from carried and from fresh sums), directory
//! ops, the segment-cache directory, the block-map route, the replica
//! directory,
//! the request-ticket lifecycle and a resident hit's ticket, the
//! scheduler step (and a wake at the current instant), the trace emit (a
//! queuing event, a join among 256 live spans, a line transition among
//! 64 lines) and the check's finish, the buffer-cache miss, the cache-line fill (by bytes, by reference one
//! handle a block, and as one segment handle) and the LFS log write (`Lfs::write` + `sync`) — one row per live
//! path. (Earlier PRs'
//! before/after pairs are history in EXPERIMENTS.md; the "before" arms
//! are no longer compiled.)
//!
//! The harness-less `main` gates the single-block route at
//! [`ROUTE_GATE_NS`], scaled by the same-process 4 KiB-fill host anchor,
//! the scheduler step at [`STEP_SCALING_GATE`] (its cost with 1024
//! runnable actors over its cost with 8), the buffer-cache eviction
//! at [`EVICT_SCALING_GATE`] (8 000 resident blocks over 800), the
//! log checksum at [`CKSUM_OVER_FILL_GATE`] fills of the block it sums,
//! a cache-line fill by reference at [`BY_REF_OVER_BYTES_GATE`] of the
//! same fill by bytes and a block through the LFS log write at
//! [`LOG_WRITE_OVER_FILL_GATE`] fills, writes `BENCH_micro.json` at the
//! repository root, and exits non-zero if a gate is missed.

use criterion::Criterion;
use std::hint::black_box;
use std::rc::Rc;

use highlight::blockmap::BlockMapDev;
use highlight::rig::RigSpec;
use highlight::segcache::{EjectPolicy, LineState, SegCache};
use highlight::{Outcome, ReplicaSet, SegDir, Ticket, UniformMap};
use hl_bench::report::{write_bench_json, Checks, Json};
use hl_footprint::Footprint;
use hl_lfs::buffer::BufCache;
use hl_lfs::config::{LfsConfig, LinearMap, NoTertiary};
use hl_lfs::dir;
use hl_lfs::fs::BOOT_BLOCKS;
use hl_lfs::ondisk::{cksum, Finfo, SegSummary};
use hl_lfs::types::{FileKind, LBlock};
use hl_lfs::ufs::Ufs;
use hl_lfs::Lfs;
use hl_sim::{Actor, Clock, Scheduler, SimTime, Step};
use hl_trace::{tracecheck, Class, Expectations, Lane, LineTag, QueueId, Tracer};
use hl_vdev::{Block, BlockDev, Disk, DiskProfile, Segment, BLOCK_SIZE, SEGMENT_ORIGIN};

/// Hard gate for the single-block secondary route.
const ROUTE_GATE_NS: f64 = 55.0;
/// The same route at the seed commit, before the raw-speed pass.
const SEED_ROUTE_NS: f64 = 104.0;
/// A bare 4 KiB fill on the reference machine — the irreducible data
/// movement inside the 1-block route (a never-written block reads back
/// as zeros). The route gate scales by `measured_fill / REF_FILL_NS`
/// when the host runs slower than the reference, so it keeps catching
/// code regressions instead of hypervisor steal time.
const REF_FILL_NS: f64 = 33.0;
/// Hard gate on how the scheduler step scales with connected actors:
/// cost with 1024 runnable actors over cost with 8, both measured in
/// this process, so host speed cancels. A heap run queue pays three more
/// levels of sift; the linear scan it replaced paid 128x the slots and
/// measured 66x.
const STEP_SCALING_GATE: f64 = 3.0;
/// Runnable-actor counts of the `sched step` rows (a paper-rig private
/// scheduler, a small pool, the `fleet_cold` benchmark fleet).
const STEP_ACTORS: [u64; 3] = [8, 128, 1024];
/// Hard gate on how a buffer-cache miss scales with the cache's size:
/// cost at 8 000 resident blocks over cost at 800, both measured in this
/// process, so host speed cancels. The intrusive LRU list costs the same
/// at both (1.0x measured); the `min_by_key` scan it replaced paid 10x
/// the buffers and measured 9.9x (6 631 ns -> 65 622 ns).
const EVICT_SCALING_GATE: f64 = 2.0;
/// Capacities of the `buffer cache miss + evict` rows: the paper's
/// 3.2 MB cache, and ten times it.
const EVICT_BLOCKS: [u32; 2] = [800, 8_000];
/// Hard gate on the data path's host cost: `cksum` of a 4 KB block over
/// a bare fill of one, both measured in this process, so host speed
/// cancels. Every byte the segment writer, the migrator and roll-forward
/// touch is summed once; the four-lane word-wide sum reads 8-12x, the
/// byte-serial chain it replaced read 166x (5 053 ns / 30.5 ns).
const CKSUM_OVER_FILL_GATE: f64 = 24.0;
/// Hard gate on a segment crossing the levels by reference: a 1 MB
/// cache-line fill through `Disk::write_blocks` over the same fill
/// through `Disk::write`, both onto resident blocks in this process, so
/// host speed cancels. Handles cost a probe and a reference count per
/// block (0.03-0.06 measured); bytes cost the megabyte's copy, and the
/// staging path this replaced — gather the handles' bytes, then the
/// byte fill — reads 2.3.
const BY_REF_OVER_BYTES_GATE: f64 = 0.25;
/// Hard gate on the LFS log write per block: a 256 KB full-block
/// overwrite through `Lfs::write` and its `sync` — the caller's bytes
/// copied into fresh blocks, the partial handed to the disk as handles,
/// `ss_datasum` summed over them, the cleaner keeping up in steady state
/// — per 4 KB, over a bare fill of one, both measured in this process,
/// so host speed cancels only roughly: the fill anchor swings 31-55 ns
/// between runs on a shared host, and the ratio read 30-57x by handle
/// and 44-60x with the byte path this replaced (a boxed cache copy, an
/// assembled segment image, byte writes into the store), whose absolute
/// cost per block in one process is ~1.25x. A guard against a gross
/// regression, not a separator of the two.
const LOG_WRITE_OVER_FILL_GATE: f64 = 60.0;
/// Blocks per `write` + `sync` of the log-write row.
const LOG_WRITE_BLOCKS: usize = 64;
/// Id of the log-write row.
const LOG_WRITE: &str = "Lfs::write + sync, 64 x 4KB overwrite";
/// Ids of the two datasum rows.
const DATASUM_MEMO: &str = "datasum of a 1 MB partial, memoized";
const DATASUM_FRESH: &str = "datasum of a 1 MB partial, fresh";
/// Ids of the three line-fill rows.
const FILL_BYTES: &str = "fill 1MB cache line, bytes";
const FILL_BY_REF: &str = "fill 1MB cache line, by reference";
const FILL_BY_SEGMENT: &str = "fill 1MB cache line, one segment handle";

fn bench_cksum(c: &mut Criterion) {
    let block = vec![0xa5u8; 4096];
    c.bench_function("cksum 4KB block", |b| b.iter(|| cksum(black_box(&block))));
}

/// `ss_datasum` of a 1 MB partial's 256 payload blocks: over handles
/// that carry their sums (what the migrator and the cleaners pay for the
/// blocks they move unchanged) and over the same bytes summed afresh
/// (what a log write pays for new blocks). Reported only; gates nothing.
fn bench_datasum(c: &mut Criterion) {
    let payload: Vec<u8> = (0..1 << 20).map(|i| (i * 7 + (i >> 12)) as u8).collect();
    let blocks: Vec<Block> = Block::split(Rc::from(payload.as_slice()), BLOCK_SIZE).collect();
    SegSummary::datasum_of_blocks(&blocks);
    c.bench_function(DATASUM_MEMO, |b| {
        b.iter(|| SegSummary::datasum_of_blocks(black_box(&blocks)))
    });
    c.bench_function(DATASUM_FRESH, |b| {
        b.iter(|| SegSummary::datasum_of(black_box(&payload)))
    });
}

fn bench_summary(c: &mut Criterion) {
    let mut summary = SegSummary::new(123, 42);
    for i in 0..20 {
        summary.finfos.push(Finfo {
            ino: i,
            version: 1,
            lastlength: 4096,
            blocks: (0..10).collect(),
        });
    }
    summary.inode_addrs = (0..8).collect();
    let payload = vec![0xa5u8; (summary.data_blocks() + 8) * 4096];
    let mut buf = vec![0u8; 4096];
    c.bench_function("summary encode (20 files, 200 blocks)", |b| {
        b.iter(|| {
            let datasum = SegSummary::datasum_of(black_box(&payload));
            summary.encode(black_box(&mut buf), datasum)
        })
    });
    summary.encode(&mut buf, SegSummary::datasum_of(&payload));
    c.bench_function("summary decode", |b| {
        b.iter(|| SegSummary::decode(black_box(&buf)).unwrap())
    });
}

fn bench_dir(c: &mut Criterion) {
    let mut block = vec![0u8; 4096];
    dir::init_block(&mut block);
    for i in 0..100 {
        if !dir::add(&mut block, &format!("file{i:04}"), i + 1, FileKind::Regular).unwrap() {
            break;
        }
    }
    c.bench_function("dir lookup in full block", |b| {
        b.iter(|| dir::find(black_box(&block), black_box("file0099")))
    });
}

fn bench_cache_dir(c: &mut Criterion) {
    let mut cache = SegCache::new((0..512).collect(), EjectPolicy::Lru);
    for i in 0..512u32 {
        cache
            .allocate(1_000_000 + i, LineState::Clean, i as u64)
            .unwrap();
    }
    c.bench_function("segment cache lookup (512 lines)", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            cache.lookup(black_box(1_000_256), t)
        })
    });
}

/// Host-speed anchor for the route gate (see [`REF_FILL_NS`]).
fn bench_fill_anchor(c: &mut Criterion) {
    let mut buf = vec![0u8; BLOCK_SIZE];
    c.bench_function("fill 4KB block (host anchor)", |b| {
        b.iter(|| {
            buf.fill(black_box(0u8));
            buf[0]
        })
    });
}

/// Regression guard for the block-map's resident path: a request that
/// starts below `disk_limit` goes to the disks whole, never through the
/// tertiary run splitter.
fn bench_blockmap_route(c: &mut Criterion) {
    let (tio, _, map) = RigSpec::with_lines(50..54).build();
    let dev = BlockMapDev::new(tio.disks_handle(), map, tio);
    let mut buf = vec![0u8; BLOCK_SIZE];
    c.bench_function("blockmap route + peek, 1 secondary block", |b| {
        b.iter(|| dev.peek(black_box(100), black_box(&mut buf)))
    });
    let mut span = vec![0u8; 12 * BLOCK_SIZE];
    c.bench_function("blockmap route + peek, 12-block span", |b| {
        b.iter(|| dev.peek(black_box(90), black_box(&mut span)))
    });
}

/// The replica directory on its live path: one `homes()` lookup per
/// media fetch. ~97% of the swept segments carry no extras, like the
/// real mix.
fn bench_replica_dir(c: &mut Criterion) {
    let map = UniformMap::new(2, 256, 64, 4, 8);
    let mut dir = ReplicaSet::new();
    for i in 0..8u32 {
        dir.add(1_000 + i * 32, 1, i);
    }
    c.bench_function("replica homes, 256 segs", |b| {
        b.iter(|| {
            let mut homes = 0usize;
            for s in 0..256u32 {
                homes += dir.homes(&map, black_box(1_000 + s)).len();
            }
            homes
        })
    });
}

/// A queued request's ticket lifecycle: one allocation, a clone
/// for the coalescing directory, completion, and an observer's check.
fn bench_ticket(c: &mut Criterion) {
    c.bench_function("ticket alloc+complete+drop", |b| {
        b.iter(|| {
            let t = Ticket::new();
            let peer = t.clone();
            t.complete_for_test(Outcome::Eject(true));
            black_box(peer.is_done())
        })
    });
}

/// A demand fetch of a resident segment and the read of its ticket: the
/// whole engine-side cost of a `fleet_resident` get.
fn bench_ticket_resident(c: &mut Criterion) {
    let (tio, jb, map) = RigSpec::with_lines(40..41).build();
    let seg = map.tert_seg(0, 0);
    jb.poke_segment(0, 0, &vec![7u8; 1 << 20])
        .expect("oracle segment");
    let (_, mut at) = tio.demand_fetch(0, seg).expect("warm fetch");
    c.bench_function("ticket, resident hit", |b| {
        b.iter(|| {
            at += 1;
            tio.enqueue_demand(black_box(at), seg).fetch_result()
        })
    });
}

/// The open-addressed [`SegDir`] the segment cache routes through. The
/// key stream mixes 512 hits with 128 misses, like a scan.
fn bench_segdir(c: &mut Criterion) {
    let mut dir: SegDir<u64> = SegDir::new();
    for i in 0..512u32 {
        dir.insert(1_000_000 + i, i as u64);
    }
    c.bench_function("cache directory get, 512 lines (segdir)", |b| {
        let mut k = 0u32;
        b.iter(|| {
            k = (k + 1) % 640;
            dir.get(black_box(1_000_000 + k)).copied()
        })
    });
}

/// The log write, end to end on a base LFS over an RZ57 of 24 segments:
/// `LOG_WRITE_BLOCKS` synced blocks of one file overwritten whole, then
/// `sync` — one partial of the blocks, the indirect block and the inode.
/// The log wraps every few hundred iterations, so the row includes the
/// cleaner's steady-state share.
fn bench_lfs_write(c: &mut Criterion) {
    let nblocks = 2 + 24 * 256;
    let disk = Rc::new(Disk::new(DiskProfile::RZ57, nblocks, None));
    let cfg = LfsConfig::base(Clock::new());
    let map = Rc::new(LinearMap::for_device(
        nblocks,
        cfg.blocks_per_seg(),
        BOOT_BLOCKS,
    ));
    Lfs::mkfs(disk.clone(), map.clone(), Rc::new(NoTertiary), cfg.clone()).expect("mkfs");
    let mut fs = Lfs::mount(disk, map, Rc::new(NoTertiary), cfg).expect("mount");
    let ino = fs.create("/f").expect("create");
    let data = vec![0xa5u8; LOG_WRITE_BLOCKS * BLOCK_SIZE];
    c.bench_function(LOG_WRITE, |b| {
        b.iter(|| {
            fs.write(ino, 0, black_box(&data)).expect("write");
            fs.sync().expect("sync")
        })
    });
}

/// A demand fetch's last hop, both ways the cache disk takes it: the
/// segment's 256 blocks written over a resident line as bytes (the
/// staging-buffer path the engine had) and as handles onto the medium's
/// buffer (the path it has). Each row gets a disk of its own, so the
/// byte row's blocks are never shared and overwrite in place.
fn bench_line_fill(c: &mut Criterion) {
    const LINE: u64 = 2;
    let image = vec![0xa5u8; 1 << 20];
    let line = || {
        let disk = Disk::new(DiskProfile::RZ57, LINE + 256, None);
        disk.poke(LINE, &image).expect("resident line");
        disk
    };
    let disk = line();
    c.bench_function(FILL_BYTES, |b| {
        b.iter(|| disk.write(0, black_box(LINE), black_box(&image)))
    });
    let disk = line();
    let blocks: Vec<Block> = Block::split(Rc::from(image.as_slice()), BLOCK_SIZE).collect();
    c.bench_function(FILL_BY_REF, |b| {
        b.iter(|| disk.write_blocks(0, black_box(LINE), black_box(&blocks)))
    });
}

/// The fill as the engine makes it: the medium's segment kept whole by
/// the cache disk, its line at a run boundary of the disk's store, so
/// one handle moves. A report row; it gates nothing.
fn bench_line_fill_segment(c: &mut Criterion) {
    const LINE: u64 = SEGMENT_ORIGIN as u64;
    let image = vec![0xa5u8; 1 << 20];
    let disk = Disk::new(DiskProfile::RZ57, LINE + 256, None);
    disk.poke(LINE, &image).expect("resident line");
    let seg = Segment::split(Rc::from(image.as_slice()), BLOCK_SIZE);
    c.bench_function(FILL_BY_SEGMENT, |b| {
        b.iter(|| disk.write_seg(0, black_box(LINE), black_box(&seg)))
    });
}

/// Yields one period ahead, forever.
struct Periodic(SimTime);
impl Actor<()> for Periodic {
    fn step(&mut self, _: &mut (), now: SimTime) -> Step {
        Step::Yield(now + self.0)
    }
}

fn step_id(actors: u64) -> String {
    format!("sched step, {actors} runnable actors")
}

/// One scheduler step with `n` runnable actors: actor `i` runs at every
/// `t ≡ i (mod n)`, so advancing the horizon by one steps exactly one
/// actor and re-queues it behind the other `n - 1`.
fn bench_sched_step(c: &mut Criterion) {
    for n in STEP_ACTORS {
        let mut sched: Scheduler<()> = Scheduler::new();
        for i in 0..n {
            sched.spawn_at(i, Periodic(n));
        }
        let mut horizon = 0;
        c.bench_function(&step_id(n), |b| {
            b.iter(|| {
                horizon += 1;
                sched.run_until(&mut (), black_box(horizon))
            })
        });
    }
}

/// Parks whenever stepped.
struct Parks;
impl Actor<()> for Parks {
    fn step(&mut self, _: &mut (), _: SimTime) -> Step {
        Step::Park
    }
}

/// One wake at the instant being run and the step it causes — the
/// fleet's worker woken by a submit, its client by the reply — with 100
/// actors queued in the future behind it.
fn bench_sched_wake_now(c: &mut Criterion) {
    let mut sched: Scheduler<()> = Scheduler::new();
    let id = sched.spawn_parked(Parks);
    for _ in 0..100 {
        sched.spawn_at(SimTime::MAX / 2, Periodic(1));
    }
    let waker = sched.waker();
    c.bench_function("sched step, wake at the current instant", |b| {
        b.iter(|| {
            waker.wake(id, 0);
            sched.run_until(&mut (), black_box(0))
        })
    });
}

/// One queue-residency event into the recorder — an event every queued
/// request emits, against its open span — on its two paths: digested and
/// checked, as every run outside tests emits it, and also kept, as a
/// test that asked for the event stream emits it (the tracer is renewed
/// every 65 536 events, so the kept stream stays bounded). Then two
/// events at a cold fleet shard's scale, whose cost beside the digest is
/// the checker's table probes: a coalesced fetch joining one of 256 live
/// spans, and one of 64 cache lines moving on (discarded, refilled,
/// clean again, one line after another). Then finishing the check of
/// 10 002 events: one queued fetch's six events, 1 667 times.
fn bench_trace_emit(c: &mut Criterion) {
    let unkept = Tracer::new();
    let span = unkept.open_span(0, Class::Demand, None);
    c.bench_function("trace emit queuing, not retained", |b| {
        let mut at = 0u64;
        b.iter(|| {
            at += 1;
            unkept.queuing(black_box(at), span, Class::Demand, at - 1, at)
        })
    });
    let kept_tracer = || {
        let t = Tracer::new();
        t.retain_events();
        let span = t.open_span(0, Class::Demand, None);
        (t, span)
    };
    let (mut kept, mut kept_span) = kept_tracer();
    c.bench_function("trace emit queuing, retained", |b| {
        let mut at = 0u64;
        b.iter(|| {
            at += 1;
            if at.is_multiple_of(65_536) {
                (kept, kept_span) = kept_tracer();
            }
            kept.queuing(black_box(at), kept_span, Class::Demand, at - 1, at)
        })
    });
    black_box((unkept.digest(), kept.digest()));

    let busy = Tracer::new();
    let live: Vec<u64> = (0..256)
        .map(|i| busy.open_span(0, Class::Demand, Some(i)))
        .collect();
    c.bench_function("trace emit join, 256 live spans", |b| {
        let mut at = 0u64;
        b.iter(|| {
            at += 1;
            let span = live[at as usize % live.len()];
            busy.join(black_box(at), span, Class::Prefetch)
        })
    });
    const LINES: u64 = 64;
    let lines = Tracer::new();
    (0..LINES).for_each(|l| lines.cache_state(0, l, LineTag::Empty, LineTag::Clean));
    let step = [LineTag::Clean, LineTag::Empty, LineTag::Filling];
    c.bench_function("trace cache-line transition, 64 lines", |b| {
        let mut i = 0u64;
        b.iter(|| {
            let phase = (i % 3) as usize;
            let (from, to) = (step[phase], step[(phase + 1) % 3]);
            lines.cache_state(black_box(i), i / 3 % LINES, from, to);
            i += 1;
        })
    });
    black_box((busy.digest(), lines.digest()));

    const SPANS: u64 = 1_667;
    let filled = Tracer::new();
    for i in 0..SPANS {
        let at = i * 10;
        let span = filled.open_span(at, Class::Demand, Some(i));
        filled.queue_depth(at, QueueId::Request, 1);
        filled.queuing(at + 2, span, Class::Demand, at, at + 2);
        filled.queue_depth(at + 2, QueueId::Request, 0);
        filled.dev_io(Lane::Drive(0), at + 2, at + 9);
        filled.close_span(at + 9, span, true);
    }
    let expect = Expectations::quiesced([2 * SPANS, 0, 0, 0, 0], 1).with_drive_lanes(1);
    c.bench_function("tracecheck finish, 10 002 events", |b| {
        b.iter(|| assert!(tracecheck(&filled, &expect).is_empty()))
    });
}

fn evict_id(blocks: u32) -> String {
    format!("buffer cache miss + evict, {blocks} blocks")
}

/// A steady-state buffer-cache miss on a full cache of clean blocks —
/// `resident_read`'s common case: insert the incoming block, evict the
/// least recently used one. The blocks are 64 bytes, not 4 KB, so the
/// rows time the cache's bookkeeping and not the allocator zeroing
/// memory that fell out of the host's caches 8 000 misses ago.
fn bench_bufcache_evict(c: &mut Criterion) {
    const BLOCK: usize = 64;
    let block = || Block::zeroed(BLOCK);
    for n in EVICT_BLOCKS {
        let mut cache = BufCache::new(n as u64 * BLOCK as u64, BLOCK);
        for l in 0..n {
            cache.insert(1, LBlock::Data(l), block(), false, l);
        }
        let mut next = n;
        c.bench_function(&evict_id(n), |b| {
            b.iter(|| {
                cache.insert(1, LBlock::Data(next), block(), false, next);
                next += 1;
                cache.shrink_to_capacity()
            })
        });
    }
}

fn main() {
    let mut c = Criterion::default();
    // Two full passes: every id is measured twice, minutes apart in
    // bench-time, and the report uses the per-id minimum — a noise
    // spike during either pass cannot fail the gate on its own.
    for _ in 0..2 {
        bench_cksum(&mut c);
        bench_datasum(&mut c);
        bench_summary(&mut c);
        bench_dir(&mut c);
        bench_cache_dir(&mut c);
        bench_fill_anchor(&mut c);
        bench_blockmap_route(&mut c);
        bench_replica_dir(&mut c);
        bench_ticket(&mut c);
        bench_ticket_resident(&mut c);
        bench_segdir(&mut c);

        bench_sched_step(&mut c);
        bench_sched_wake_now(&mut c);
        bench_trace_emit(&mut c);
        bench_bufcache_evict(&mut c);
        bench_line_fill(&mut c);
        bench_line_fill_segment(&mut c);
        bench_lfs_write(&mut c);
    }

    let ns = |id: &str| {
        c.results()
            .iter()
            .filter(|r| r.id == id)
            .map(|r| r.mean_ns)
            .fold(f64::NAN, f64::min)
    };
    let route_id = "blockmap route + peek, 1 secondary block";
    let anchor_id = "fill 4KB block (host anchor)";
    let fill = ns(anchor_id);
    let scale_of = |fill: f64| (fill / REF_FILL_NS).max(1.0);
    let (mut route, mut host_scale) = (ns(route_id), scale_of(fill));
    // Noise guard: this gate runs on shared (virtualized) CI hosts where
    // steal time can inflate any single pass. "Can the code route in
    // <= 55 ns" is a minimum-statistic question, so re-measure on a
    // fresh driver until a pass clears the gate, up to four retries.
    // Each retry measures the route and the host anchor together, and
    // the pass whose route sits lowest against its own scaled limit is
    // kept: a route from one pass is never held to another pass's fill.
    for _ in 0..4 {
        if route <= ROUTE_GATE_NS * host_scale {
            break;
        }
        let mut retry = Criterion::default();
        bench_blockmap_route(&mut retry);
        bench_fill_anchor(&mut retry);
        if let (Some(r), Some(a)) = (retry.result(route_id), retry.result(anchor_id)) {
            let scale = scale_of(a.mean_ns);
            if r.mean_ns / scale < route / host_scale {
                (route, host_scale) = (r.mean_ns, scale);
            }
        }
    }
    let route_gate = ROUTE_GATE_NS * host_scale;

    // The same guard for the checksum gate: numerator and denominator
    // are re-measured together, and the lowest ratio kept.
    let mut cksum_over_fill = ns("cksum 4KB block") / fill;
    for _ in 0..4 {
        if cksum_over_fill <= CKSUM_OVER_FILL_GATE {
            break;
        }
        let mut retry = Criterion::default();
        bench_cksum(&mut retry);
        bench_fill_anchor(&mut retry);
        if let [sum, anchor] = retry.results() {
            cksum_over_fill = cksum_over_fill.min(sum.mean_ns / anchor.mean_ns);
        }
    }

    // And for the line-fill gate.
    let mut by_ref_over_bytes = ns(FILL_BY_REF) / ns(FILL_BYTES);
    for _ in 0..4 {
        if by_ref_over_bytes <= BY_REF_OVER_BYTES_GATE {
            break;
        }
        let mut retry = Criterion::default();
        bench_line_fill(&mut retry);
        if let [bytes, by_ref] = retry.results() {
            by_ref_over_bytes = by_ref_over_bytes.min(by_ref.mean_ns / bytes.mean_ns);
        }
    }

    // And for the log-write gate.
    let mut log_write_over_fill = ns(LOG_WRITE) / LOG_WRITE_BLOCKS as f64 / fill;
    for _ in 0..4 {
        if log_write_over_fill <= LOG_WRITE_OVER_FILL_GATE {
            break;
        }
        let mut retry = Criterion::default();
        bench_lfs_write(&mut retry);
        bench_fill_anchor(&mut retry);
        if let [write, anchor] = retry.results() {
            let ratio = write.mean_ns / LOG_WRITE_BLOCKS as f64 / anchor.mean_ns;
            log_write_over_fill = log_write_over_fill.min(ratio);
        }
    }

    let step_few = ns(&step_id(STEP_ACTORS[0]));
    let step_many = ns(&step_id(STEP_ACTORS[2]));
    let step_scaling = step_many / step_few;
    let evict_small = ns(&evict_id(EVICT_BLOCKS[0]));
    let evict_large = ns(&evict_id(EVICT_BLOCKS[1]));
    let evict_scaling = evict_large / evict_small;

    // Machine-readable payload at the repository root. The seed_*
    // numbers are the pre-optimization measurements pinned from the
    // reference machine so the trajectory survives even though the slow
    // paths are gone from the tree. Two passes measured every id twice;
    // each is emitted once, with the cross-pass minimum.
    let mut benchmarks: Vec<(String, Json)> = Vec::new();
    for r in c.results() {
        if benchmarks.iter().all(|(id, _)| *id != r.id) {
            let row = Json::obj([
                ("mean_ns", Json::Fixed(ns(&r.id), 1)),
                ("iters", r.iters.into()),
            ]);
            benchmarks.push((r.id.clone(), row));
        }
    }
    let json = Json::obj([(
        "micro",
        Json::obj([
            (
                "route",
                Json::obj([
                    ("mean_ns", Json::Fixed(route, 1)),
                    ("gate_ns", Json::Fixed(ROUTE_GATE_NS, 1)),
                    ("host_scale", Json::Fixed(host_scale, 2)),
                    ("seed_ns", Json::Fixed(SEED_ROUTE_NS, 1)),
                ]),
            ),
            (
                "sched_step_scaling",
                Json::obj([
                    ("ratio_1024_over_8", Json::Fixed(step_scaling, 2)),
                    ("gate", Json::Fixed(STEP_SCALING_GATE, 1)),
                ]),
            ),
            (
                "bufcache_evict_scaling",
                Json::obj([
                    ("ratio_8000_over_800", Json::Fixed(evict_scaling, 2)),
                    ("gate", Json::Fixed(EVICT_SCALING_GATE, 1)),
                ]),
            ),
            (
                "cksum_over_fill",
                Json::obj([
                    ("ratio", Json::Fixed(cksum_over_fill, 2)),
                    ("gate", Json::Fixed(CKSUM_OVER_FILL_GATE, 1)),
                ]),
            ),
            (
                "segment_by_ref_over_bytes",
                Json::obj([
                    ("ratio", Json::Fixed(by_ref_over_bytes, 2)),
                    ("gate", Json::Fixed(BY_REF_OVER_BYTES_GATE, 2)),
                ]),
            ),
            (
                "log_write_over_fill",
                Json::obj([
                    ("ratio", Json::Fixed(log_write_over_fill, 2)),
                    ("gate", Json::Fixed(LOG_WRITE_OVER_FILL_GATE, 1)),
                ]),
            ),
            (
                "seed_baseline_ns",
                Json::obj([
                    ("route_peek_1_block", Json::Fixed(SEED_ROUTE_NS, 1)),
                    ("cache_lookup_512", Json::Fixed(17.3, 1)),
                    ("route_peek_12_block", Json::Fixed(1180.0, 1)),
                ]),
            ),
            ("benchmarks", Json::Obj(benchmarks)),
        ]),
    )]);
    write_bench_json("micro", &json);

    let mut checks = Checks::new("Hot-path checks");
    checks.row(
        format!("route + peek <= {route_gate:.1} ns ({route:.1} ns, host x{host_scale:.2})"),
        route <= route_gate,
    );
    checks.row(
        format!("route + peek faster than the {SEED_ROUTE_NS:.1} ns seed baseline"),
        route < SEED_ROUTE_NS,
    );
    checks.row(
        format!(
            "step cost at 1024 actors <= {STEP_SCALING_GATE:.0}x the cost at 8 \
             ({step_many:.1} ns / {step_few:.1} ns = {step_scaling:.2}x)"
        ),
        step_scaling <= STEP_SCALING_GATE,
    );
    checks.row(
        format!(
            "buffer-cache miss at 8000 blocks <= {EVICT_SCALING_GATE:.0}x the cost at 800 \
             ({evict_large:.1} ns / {evict_small:.1} ns = {evict_scaling:.2}x)"
        ),
        evict_scaling <= EVICT_SCALING_GATE,
    );
    checks.row(
        format!(
            "cksum 4KB block <= {CKSUM_OVER_FILL_GATE:.0} x fill 4KB block (host anchor) \
             ({cksum_over_fill:.1}x)"
        ),
        cksum_over_fill <= CKSUM_OVER_FILL_GATE,
    );
    checks.row(
        format!(
            "1 MB cache-line fill by reference <= {BY_REF_OVER_BYTES_GATE:.2} x the same \
             fill by bytes ({by_ref_over_bytes:.2}x)"
        ),
        by_ref_over_bytes <= BY_REF_OVER_BYTES_GATE,
    );
    checks.row(
        format!(
            "4 KB Lfs::write + sync <= {LOG_WRITE_OVER_FILL_GATE:.0} x fill 4KB block \
             (host anchor) ({log_write_over_fill:.1}x)"
        ),
        log_write_over_fill <= LOG_WRITE_OVER_FILL_GATE,
    );
    checks.finish();
}
