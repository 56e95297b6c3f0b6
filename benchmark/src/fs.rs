//! The two single-client file-system workloads on the paper's rig.
//!
//! Both mount the §7 testbed — the 848 MB RZ57 partition and the two-drive
//! HP 6300 changer on one SCSI bus, 3.2 MB buffer cache — with a 64-line
//! segment cache, and use `hl-lfs`/`highlight` from opposite ends:
//! [`FsLifecycle`] is dominated by the segment writer, the migrator and
//! the tertiary engine; [`ResidentRead`] by the buffer cache, `bmap` and
//! the block-map route, with the jukebox idle.

use std::collections::BTreeMap;
use std::rc::Rc;

use highlight::segcache::CacheStats;
use highlight::{HighLight, HlConfig, MigrateStats, SvcStats};
use hl_footprint::{Footprint, FpStats, Jukebox, JukeboxConfig};
use hl_lfs::error::LfsError;
use hl_lfs::stats::LfsStats;
use hl_lfs::types::Ino;
use hl_sim::time::SimTime;
use hl_sim::{Clock, DetRng};
use hl_vdev::disk::DiskStats;
use hl_vdev::{BlockDev, Disk, DiskProfile, ScsiBus, BLOCK_SIZE};
use hl_workload::large_object::{LargeObject, Phase, FRAME, TOTAL_FRAMES};

use crate::clock::HostClock;
use crate::report::Metric;
use crate::span::Recorder;
use crate::stats::percentile;
use crate::workload::{span_metrics, Counter, Per, Rep, SimOutcome, Workload};

/// Segment-cache lines of both workloads' mounts.
const CACHE_LINES: u32 = 64;
/// Blocks in the paper's 848 MB RZ57 partition.
const RZ57_BLOCKS: u64 = 217_088;
const KB: usize = 1024;
const MB: usize = 1024 * KB;

/// The paper's testbed (the same stack `hl_bench::rigs::Rig::paper()`
/// builds; assembled here from the device crates so that the benchmark
/// does not depend on the bench scaffolding ROADMAP item 3 reshapes).
struct Rig {
    clock: Clock,
    disk: Rc<Disk>,
    jukebox: Jukebox,
}

impl Rig {
    fn paper() -> Rig {
        let bus = ScsiBus::new("scsi0");
        Rig {
            clock: Clock::new(),
            disk: Rc::new(Disk::new(DiskProfile::RZ57, RZ57_BLOCKS, Some(bus.clone()))),
            jukebox: Jukebox::new(JukeboxConfig::hp6300_paper(), Some(bus)),
        }
    }
}

/// Every counter the layers under a mounted HighLight keep, read at one
/// instant.
#[derive(Clone, Copy)]
struct Counters {
    lfs: LfsStats,
    svc: SvcStats,
    cache: CacheStats,
    fp: FpStats,
    disk: DiskStats,
    sim_now: SimTime,
}

fn counters(rig: &Rig, hl: &mut HighLight) -> Counters {
    Counters {
        lfs: hl.lfs().stats(),
        svc: hl.tio().stats(),
        cache: hl.cache().borrow().stats(),
        fp: rig.jukebox.stats(),
        disk: rig.disk.stats(),
        sim_now: rig.clock.now(),
    }
}

/// The simulated per-layer counters of a measured phase, from the
/// layers' own statistics at its two ends.
fn sim_counters(a: &Counters, b: &Counters, drives: usize) -> Vec<Counter> {
    let l = (&a.lfs, &b.lfs);
    let s = (&a.svc, &b.svc);
    let c = (&a.cache, &b.cache);
    let f = (&a.fp, &b.fp);
    let d = (&a.disk, &b.disk);
    let span_us = b.sim_now - a.sim_now;
    let busy: u64 = (0..drives)
        .map(|i| s.1.drive_busy[i] - s.0.drive_busy[i])
        .sum();
    let fetches = s.1.demand_fetches - s.0.demand_fetches;
    let seg_hits = c.1.hits - c.0.hits;
    let seg_lookups = seg_hits + (c.1.misses - c.0.misses);
    let buf_hits = l.1.cache_hits - l.0.cache_hits;
    let buf_lookups = buf_hits + (l.1.cache_misses - l.0.cache_misses);
    let disk_bytes = (d.1.bytes_read - d.0.bytes_read) + (d.1.bytes_written - d.0.bytes_written);
    vec![
        Counter::count(
            "lfs.partials_written",
            l.1.partials_written - l.0.partials_written,
        ),
        Counter::ratio("lfs.buffer.hit_pct", buf_hits * 100, buf_lookups, "%"),
        Counter::count(
            "lfs.clean.blocks_cleaned",
            l.1.blocks_cleaned - l.0.blocks_cleaned,
        ),
        Counter::count(
            "lfs.clean.segs_reclaimed",
            l.1.segs_reclaimed - l.0.segs_reclaimed,
        ),
        Counter::count(
            "core.migrate.blocks",
            l.1.blocks_migrated - l.0.blocks_migrated,
        ),
        Counter::count("core.copyout.count", s.1.copyouts - s.0.copyouts),
        Counter::count("core.fetch.count", fetches),
        Counter::ratio(
            "core.fetch.sim_ms_mean",
            s.1.fetch_time - s.0.fetch_time,
            fetches * 1000,
            "ms",
        ),
        Counter::count(
            "core.fetch.coalesced",
            s.1.coalesced_fetches - s.0.coalesced_fetches,
        ),
        Counter::ratio("core.segcache.hit_pct", seg_hits * 100, seg_lookups, "%"),
        Counter::count("core.segcache.ejections", c.1.ejections - c.0.ejections),
        Counter::count("core.segcache.stalls", c.1.stalls - c.0.stalls),
        Counter::ratio(
            "core.requests.wait_demand_ms",
            s.1.wait_demand - s.0.wait_demand,
            1000,
            "ms",
        ),
        Counter::ratio(
            "core.requests.wait_copyout_ms",
            s.1.wait_copyout - s.0.wait_copyout,
            1000,
            "ms",
        ),
        Counter::count("core.requests.devq_hwm", s.1.devq_hwm as u64),
        Counter::count(
            "core.requests.tenant_throttles",
            s.1.tenant_throttles - s.0.tenant_throttles,
        ),
        Counter::ratio(
            "core.service.drive_busy_pct",
            busy * 100,
            span_us * drives as u64,
            "%",
        ),
        Counter::count("footprint.reads", f.1.reads - f.0.reads),
        Counter::count("footprint.writes", f.1.writes - f.0.writes),
        Counter::count("footprint.swaps", f.1.swaps - f.0.swaps),
        Counter::ratio(
            "footprint.swap_s",
            f.1.swap_time - f.0.swap_time,
            1_000_000,
            "s",
        ),
        Counter::ratio(
            "footprint.transfer_s",
            f.1.transfer_time - f.0.transfer_time,
            1_000_000,
            "s",
        ),
        Counter::count("vdev.disk.reads", d.1.reads - d.0.reads),
        Counter::count("vdev.disk.writes", d.1.writes - d.0.writes),
        Counter::ratio("vdev.disk.mb_moved", disk_bytes, 1 << 20, "MB"),
        Counter::count("vdev.disk.seeks", d.1.seeks - d.0.seeks),
        Counter::ratio(
            "vdev.disk.seek_s",
            d.1.seek_time - d.0.seek_time,
            1_000_000,
            "s",
        ),
    ]
}

/// Bytes the disk and the media moved between two readings.
fn device_bytes(a: &Counters, b: &Counters) -> u64 {
    (b.disk.bytes_read - a.disk.bytes_read)
        + (b.disk.bytes_written - a.disk.bytes_written)
        + (b.fp.bytes_read - a.fp.bytes_read)
        + (b.fp.bytes_written - a.fp.bytes_written)
}

/// FNV-1a over the values that pin a rep's simulated history.
fn fold_digest(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Builds the rig and mounts a fresh HighLight on it, under spans.
fn mount_paper_rig(rec: &mut Recorder) -> (Rig, HighLight) {
    let rig = Rig::paper();
    let cfg = HlConfig::paper(rig.clock.clone(), CACHE_LINES);
    let disk = rig.disk.clone() as Rc<dyn BlockDev>;
    let jukebox: Rc<dyn Footprint> = Rc::new(rig.jukebox.clone());
    rec.call("lfs.mkfs", 0, &rig.clock, || {
        HighLight::mkfs(disk.clone(), jukebox.clone(), cfg.clone()).expect("mkfs on a fresh rig")
    });
    let hl = rec.call("lfs.mount", 0, &rig.clock, || {
        HighLight::mount(disk, jukebox, cfg).expect("mount what mkfs wrote")
    });
    (rig, hl)
}

/// The checks every traced fs rep must pass: the simulated time of the
/// calls under the root adds up to the makespan exactly (the harness
/// moves no clock between calls), the spans' host self times — which add
/// up to the root span — cover the measured phase's host time within
/// 3 %, and no server span exists.
fn fs_ledger_violations(traced: &[&Rep]) -> Vec<String> {
    let mut out = Vec::new();
    for (i, rep) in traced.iter().enumerate() {
        let Some(root) = rep.spans.iter().position(|s| s.name == "phase.measured") else {
            out.push(format!("traced rep {i}: no phase.measured span"));
            continue;
        };
        let child_sim: u64 = rep
            .spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| s.sim_us())
            .sum();
        if child_sim != rep.sim.makespan_us {
            out.push(format!(
                "traced rep {i}: per-call simulated time {child_sim} us != makespan {} us",
                rep.sim.makespan_us
            ));
        }
        let gap = rep.spans[root].host_ns() as f64 / 1e9 / rep.run.wall_s - 1.0;
        if gap.abs() > 0.03 {
            out.push(format!(
                "traced rep {i}: span self times differ from the measured phase's host time by {:.1} %",
                gap * 100.0
            ));
        }
        if let Some(s) = rep.spans.iter().find(|s| s.name.starts_with("server.")) {
            out.push(format!(
                "traced rep {i}: server span {} on a file-system workload",
                s.name
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------
// fs_lifecycle
// ---------------------------------------------------------------------

/// Bytes per `read`/`write` call.
const CALL: usize = 64 * KB;
/// Rounds per rep on one mount.
const ROUNDS: usize = 3;
/// Table 3's file sizes and how many of each a round creates: 40 MB.
const MIX: [(usize, usize); 4] = [(10 * MB, 3), (MB, 8), (100 * KB, 16), (10 * KB, 40)];
/// Overwrite granule and count per round: 1 MB of 8 KB frames.
const OW_FRAME: usize = 8 * KB;
const OW_FRAMES: usize = 128;
/// Cleaner passes attempted per round.
const CLEAN_PASSES: usize = 48;
/// The content pool files are cut from.
const POOL: usize = 12 * MB;

#[derive(Clone)]
struct FileSpec {
    path: String,
    len: usize,
    /// Offset of the file's content in the pool.
    at: usize,
    /// Overwritten frames: frame index → pool offset of the new content.
    patched: BTreeMap<usize, usize>,
}

impl FileSpec {
    /// The bytes `[off, off + len)` of the file should hold.
    fn expect(&self, pool: &[u8], off: usize, out: &mut [u8]) {
        out.copy_from_slice(&pool[self.at + off..self.at + off + out.len()]);
        if self.patched.is_empty() {
            return;
        }
        // Calls start on 64 KB and overwrites on 8 KB boundaries of a
        // 10 MB file, so a patched frame lies wholly inside `out`.
        let frames = off / OW_FRAME..(off + out.len()) / OW_FRAME;
        for (&frame, &src) in self.patched.range(frames) {
            let at = frame * OW_FRAME - off;
            out[at..at + OW_FRAME].copy_from_slice(&pool[src..src + OW_FRAME]);
        }
    }
}

/// write → migrate → eject → demand-fetch, three rounds on one mount.
pub struct FsLifecycle {
    pool: Vec<u8>,
    /// Per round: the files it creates, in creation order.
    rounds: Vec<Vec<FileSpec>>,
    /// Per round ≥ 1: frames of the previous round's largest file to
    /// overwrite, as `(frame, pool offset)`.
    overwrites: Vec<Vec<(usize, usize)>>,
}

impl FsLifecycle {
    pub fn new(seed: u64) -> FsLifecycle {
        let mut rng = DetRng::new(seed ^ 0xf5_11fe);
        let mut pool = vec![0u8; POOL];
        for chunk in pool.chunks_mut(8) {
            chunk.copy_from_slice(&rng.below(u64::MAX).to_le_bytes()[..chunk.len()]);
        }
        let mut rounds = Vec::new();
        let mut overwrites = Vec::new();
        for r in 0..ROUNDS {
            let mut sizes: Vec<usize> = MIX
                .iter()
                .flat_map(|&(len, n)| std::iter::repeat_n(len, n))
                .collect();
            rng.shuffle(&mut sizes);
            let files: Vec<FileSpec> = sizes
                .into_iter()
                .enumerate()
                .map(|(i, len)| FileSpec {
                    path: format!("/r{r}_f{i:02}"),
                    len,
                    at: rng.below((POOL - len) as u64) as usize,
                    patched: BTreeMap::new(),
                })
                .collect();
            rounds.push(files);
            overwrites.push(
                (0..OW_FRAMES)
                    .map(|_| {
                        (
                            rng.below((10 * MB / OW_FRAME) as u64) as usize,
                            rng.below((POOL - OW_FRAME) as u64) as usize,
                        )
                    })
                    .collect(),
            );
        }
        FsLifecycle {
            pool,
            rounds,
            overwrites,
        }
    }
}

/// What the measured phase of one `fs_lifecycle` rep tallies.
#[derive(Default)]
struct Tally {
    ops: u64,
    failed: u64,
    written: u64,
    read: u64,
    /// Simulated latency of every read-back `read` call, µs.
    read_lat: Vec<u64>,
}

impl Tally {
    /// Counts a call that did not succeed as a failed op.
    fn check<T, E>(&mut self, result: Result<T, E>) {
        if result.is_err() {
            self.failed += 1;
        }
    }
}

impl FsLifecycle {
    fn write_file(&self, hl: &mut HighLight, rec: &mut Recorder, t: &mut Tally, spec: &FileSpec) {
        let clock = hl.clock();
        let ino = match rec.call("lfs.create", t.ops, &clock, || hl.create(&spec.path)) {
            Ok(ino) => ino,
            Err(_) => {
                t.failed += 1;
                return;
            }
        };
        let mut off = 0;
        while off < spec.len {
            let n = CALL.min(spec.len - off);
            let data = &self.pool[spec.at + off..spec.at + off + n];
            t.ops += 1;
            t.written += n as u64;
            t.check(rec.call("lfs.write", t.ops, &clock, || {
                hl.write(ino, off as u64, data)
            }));
            off += n;
        }
    }

    fn read_back(
        &self,
        hl: &mut HighLight,
        rec: &mut Recorder,
        t: &mut Tally,
        spec: &FileSpec,
        buf: &mut [u8],
        want: &mut [u8],
    ) {
        let clock = hl.clock();
        let ino = match rec.call("lfs.lookup", t.ops, &clock, || hl.lookup(&spec.path)) {
            Ok(ino) => ino,
            Err(_) => {
                t.failed += 1;
                return;
            }
        };
        let mut off = 0;
        while off < spec.len {
            let n = CALL.min(spec.len - off);
            t.ops += 1;
            t.read += n as u64;
            let t0 = clock.now();
            let got = rec.call("lfs.read", t.ops, &clock, || {
                hl.read(ino, off as u64, &mut buf[..n])
            });
            t.read_lat.push(clock.now() - t0);
            spec.expect(&self.pool, off, &mut want[..n]);
            if !matches!(got, Ok(m) if m == n) || buf[..n] != want[..n] {
                t.failed += 1;
            }
            off += n;
        }
    }

    /// One round; `files` is this round's (mutable: overwrites patch the
    /// previous round's expectations).
    fn round(
        &self,
        r: usize,
        hl: &mut HighLight,
        rec: &mut Recorder,
        t: &mut Tally,
        live: &mut [Vec<FileSpec>],
    ) {
        let clock = hl.clock();
        for spec in &live[r] {
            self.write_file(hl, rec, t, spec);
        }
        // Overwrite 1 MB of frames in the previous round's first 10 MB
        // file: it has been migrated, so this makes tertiary blocks dead
        // and puts their replacements in the disk log.
        let mut reread = None;
        if r > 0 {
            let idx = live[r - 1]
                .iter()
                .position(|f| f.len == 10 * MB)
                .expect("every round has a 10 MB file");
            let path = live[r - 1][idx].path.clone();
            match rec.call("lfs.lookup", t.ops, &clock, || hl.lookup(&path)) {
                Ok(ino) => {
                    for &(frame, src) in &self.overwrites[r] {
                        t.ops += 1;
                        t.written += OW_FRAME as u64;
                        let data = &self.pool[src..src + OW_FRAME];
                        let at = (frame * OW_FRAME) as u64;
                        t.check(rec.call("lfs.write", t.ops, &clock, || hl.write(ino, at, data)));
                        live[r - 1][idx].patched.insert(frame, src);
                    }
                }
                Err(_) => t.failed += 1,
            }
            reread = Some(idx);
        }
        t.check(rec.call("lfs.sync", t.ops, &clock, || hl.sync()));

        for spec in &live[r] {
            t.check(rec.call("core.migrate", t.ops, &clock, || {
                hl.migrate_file(&spec.path, false, None)
            }));
        }
        t.check(rec.call("core.copyout", t.ops, &clock, || {
            hl.seal_staging(&mut MigrateStats::default())
                .and_then(|()| hl.drain_copyouts())
        }));
        t.check(rec.call("lfs.checkpoint", t.ops, &clock, || hl.checkpoint()));
        rec.call("core.eject", t.ops, &clock, || {
            hl.eject_all();
            hl.drop_caches();
        });

        let mut buf = vec![0u8; CALL];
        let mut want = vec![0u8; CALL];
        for spec in &live[r] {
            self.read_back(hl, rec, t, spec, &mut buf, &mut want);
        }
        if let Some(idx) = reread {
            self.read_back(hl, rec, t, &live[r - 1][idx], &mut buf, &mut want);
        }

        if r >= 2 {
            for spec in &live[r - 2] {
                t.check(rec.call("lfs.unlink", t.ops, &clock, || hl.unlink(&spec.path)));
            }
        }
        t.check(rec.call("lfs.clean", t.ops, &clock, || {
            for _ in 0..CLEAN_PASSES {
                if hl.lfs().clean_once()?.is_none() {
                    break;
                }
            }
            Ok::<(), LfsError>(())
        }));
    }
}

impl Workload for FsLifecycle {
    fn name(&self) -> &'static str {
        "fs_lifecycle"
    }

    fn rep(&self, host: &HostClock, rec: &mut Recorder) -> Rep {
        let s0 = host.stamp();
        let root = rec.enter("phase.setup", 0, 0);
        let (rig, mut hl) = mount_paper_rig(rec);
        rec.exit(root, rig.clock.now());
        let setup = host.since(s0);

        let mut live = self.rounds.clone();
        let mut t = Tally::default();
        let before = counters(&rig, &mut hl);
        let s1 = host.stamp();
        let root = rec.enter("phase.measured", 0, rig.clock.now());
        for r in 0..ROUNDS {
            self.round(r, &mut hl, rec, &mut t, &mut live);
        }
        rec.exit(root, rig.clock.now());
        let run = host.since(s1);
        let after = counters(&rig, &mut hl);

        t.failed += hl.tio().trace_findings().len() as u64;
        t.read_lat.sort_unstable();
        let mut sim_counters = sim_counters(&before, &after, hl.tio().drives());
        sim_counters.push(Counter::ratio(
            "lfs.write_amp",
            (after.lfs.blocks_written - before.lfs.blocks_written) * BLOCK_SIZE as u64,
            t.written,
            "x",
        ));
        // Bytes behind the traced run's ns-per-KB figures.
        sim_counters.push(Counter::ratio("lfs.write.kb", t.written, 1024, "KB"));
        sim_counters.push(Counter::ratio("lfs.read.kb", t.read, 1024, "KB"));
        Rep {
            ops: t.ops,
            failed: t.failed,
            setup,
            run,
            sim: SimOutcome {
                lat_p50_us: percentile(&t.read_lat, 50.0),
                lat_p99_us: percentile(&t.read_lat, 99.0),
                lat_samples: t.read_lat.len() as u64,
                user_bytes: t.written + t.read,
                makespan_us: after.sim_now - before.sim_now,
                amp_moved: device_bytes(&before, &after),
                amp_per: t.written + t.read,
                digest: fold_digest(&[
                    hl.tio().trace_digest(),
                    after.sim_now,
                    after.lfs.blocks_written,
                    after.disk.seek_time,
                    after.fp.transfer_time,
                ]),
                counters: sim_counters,
            },
            spans: rec.take(),
        }
    }

    fn layer_metrics(&self, traced: &[&Rep], _common: &[Metric]) -> Vec<Metric> {
        let bytes = |name| {
            let c = traced[0].sim.counters.iter().find(|c| c.name == name);
            c.expect("every rep counts its bytes").num
        };
        let (written, read) = (bytes("lfs.write.kb"), bytes("lfs.read.kb"));
        span_metrics(
            traced,
            &[
                ("lfs.write.calls", "lfs.write", Per::Calls),
                (
                    "lfs.write.host_ns_per_kb",
                    "lfs.write",
                    Per::NsPerKb(written),
                ),
                ("lfs.write.sim_ms", "lfs.write", Per::SimMs),
                ("lfs.read.calls", "lfs.read", Per::Calls),
                ("lfs.read.host_ns_per_kb", "lfs.read", Per::NsPerKb(read)),
                ("lfs.read.sim_ms", "lfs.read", Per::SimMs),
                ("lfs.sync.calls", "lfs.sync", Per::Calls),
                ("lfs.sync.host_ms", "lfs.sync", Per::Ms),
                ("lfs.sync.sim_ms", "lfs.sync", Per::SimMs),
                ("lfs.clean.host_ms", "lfs.clean", Per::Ms),
                ("lfs.clean.sim_ms", "lfs.clean", Per::SimMs),
                ("lfs.mount.host_ms", "lfs.mount", Per::Ms),
                ("core.migrate.host_ms", "core.migrate", Per::Ms),
                ("core.migrate.sim_ms", "core.migrate", Per::SimMs),
                ("core.copyout.host_ms", "core.copyout", Per::Ms),
                ("core.copyout.sim_ms", "core.copyout", Per::SimMs),
                ("core.eject.host_ms", "core.eject", Per::Ms),
            ],
        )
    }

    fn ledger_violations(&self, traced: &[&Rep]) -> Vec<String> {
        fs_ledger_violations(traced)
    }
}

// ---------------------------------------------------------------------
// resident_read
// ---------------------------------------------------------------------

/// Rounds of the three read phases per rep.
const READ_ROUNDS: usize = 60;
const READ_PHASES: [Phase; 3] = [Phase::SeqRead, Phase::RandRead, Phase::LocalRead];

/// The read phases of the large-object benchmark against an on-disk and
/// an in-cache copy of the object; working set 16× the buffer cache.
pub struct ResidentRead {
    /// Frame indices per round and phase, generated once from the seed.
    frames: Vec<[Vec<u64>; 3]>,
    /// Generation-0 contents of every frame, the byte oracle.
    oracle: Vec<u8>,
}

impl ResidentRead {
    pub fn new(seed: u64) -> ResidentRead {
        let mut gen = LargeObject::new(seed);
        let frames = (0..READ_ROUNDS)
            .map(|_| READ_PHASES.map(|p| gen.frames(p)))
            .collect();
        let mut oracle = Vec::with_capacity(TOTAL_FRAMES as usize * FRAME);
        for f in 0..TOTAL_FRAMES {
            oracle.extend_from_slice(&LargeObject::frame_data(f, 0));
        }
        ResidentRead { frames, oracle }
    }

    /// Writes the 51.2 MB object in 1 MB calls and syncs it to the disk
    /// log.
    fn build_object(&self, hl: &mut HighLight, path: &str) -> Result<Ino, LfsError> {
        let ino = hl.create(path)?;
        for (i, slab) in self.oracle.chunks(MB).enumerate() {
            hl.write(ino, (i * MB) as u64, slab)?;
        }
        hl.sync()?;
        Ok(ino)
    }
}

impl Workload for ResidentRead {
    fn name(&self) -> &'static str {
        "resident_read"
    }

    fn rep(&self, host: &HostClock, rec: &mut Recorder) -> Rep {
        let s0 = host.stamp();
        let root = rec.enter("phase.setup", 0, 0);
        let (rig, mut hl) = mount_paper_rig(rec);
        let clock = rig.clock.clone();
        let mut setup_failed = 0;
        let on_disk = rec.call("setup.build_object", 0, &clock, || {
            self.build_object(&mut hl, "/on_disk")
        });
        let in_cache = rec.call("setup.build_object", 0, &clock, || {
            self.build_object(&mut hl, "/in_cache")
        });
        let migrated = rec.call("core.migrate", 0, &clock, || {
            hl.migrate_file("/in_cache", true, None)
        });
        let sealed = rec.call("core.copyout", 0, &clock, || {
            hl.seal_staging(&mut MigrateStats::default())
        });
        if on_disk.is_err() || in_cache.is_err() || migrated.is_err() || sealed.is_err() {
            setup_failed = 1;
        }
        rec.exit(root, clock.now());
        let setup = host.since(s0);
        let inos = [on_disk.unwrap_or(0), in_cache.unwrap_or(0)];

        let mut ops = 0u64;
        let mut failed = 0u64;
        let mut lat = Vec::with_capacity(READ_ROUNDS * 3000);
        let mut buf = vec![0u8; FRAME];
        let before = counters(&rig, &mut hl);
        let s1 = host.stamp();
        let root = rec.enter("phase.measured", 0, clock.now());
        for (round, phases) in self.frames.iter().enumerate() {
            let ino = inos[round % 2];
            for frames in phases {
                // §7.1: "The buffer cache is flushed before each
                // operation in the benchmark."
                hl.drop_caches();
                for &f in frames {
                    ops += 1;
                    let at = f as usize * FRAME;
                    let t0 = clock.now();
                    let got = rec.call("lfs.read", ops, &clock, || {
                        hl.read(ino, at as u64, &mut buf)
                    });
                    lat.push(clock.now() - t0);
                    if !matches!(got, Ok(FRAME)) || buf[..] != self.oracle[at..at + FRAME] {
                        failed += 1;
                    }
                }
            }
        }
        rec.exit(root, clock.now());
        let run = host.since(s1);
        let after = counters(&rig, &mut hl);

        failed += hl.tio().trace_findings().len() as u64 + setup_failed;
        // The bypass this workload exists for: nothing touched the
        // jukebox and nothing was written.
        if after.fp.reads != before.fp.reads
            || after.fp.writes != before.fp.writes
            || after.disk.writes != before.disk.writes
        {
            failed += ops;
        }
        lat.sort_unstable();
        let user_bytes = ops * FRAME as u64;
        let mut sim_counters = sim_counters(&before, &after, hl.tio().drives());
        sim_counters.push(Counter::ratio("lfs.read.kb", user_bytes, 1024, "KB"));
        Rep {
            ops,
            failed,
            setup,
            run,
            sim: SimOutcome {
                lat_p50_us: percentile(&lat, 50.0),
                lat_p99_us: percentile(&lat, 99.0),
                lat_samples: lat.len() as u64,
                user_bytes,
                makespan_us: after.sim_now - before.sim_now,
                amp_moved: device_bytes(&before, &after),
                amp_per: user_bytes,
                digest: fold_digest(&[
                    hl.tio().trace_digest(),
                    after.sim_now,
                    after.disk.seek_time,
                    after.lfs.cache_hits,
                ]),
                counters: sim_counters,
            },
            spans: rec.take(),
        }
    }

    fn layer_metrics(&self, traced: &[&Rep], _common: &[Metric]) -> Vec<Metric> {
        span_metrics(
            traced,
            &[
                ("lfs.read.calls", "lfs.read", Per::Calls),
                (
                    "lfs.read.host_ns_per_kb",
                    "lfs.read",
                    Per::NsPerKb(traced[0].sim.user_bytes),
                ),
                ("lfs.read.sim_ms", "lfs.read", Per::SimMs),
                ("lfs.mount.host_ms", "lfs.mount", Per::Ms),
                ("core.migrate.host_ms", "core.migrate", Per::Ms),
                ("core.migrate.sim_ms", "core.migrate", Per::SimMs),
                ("core.copyout.host_ms", "core.copyout", Per::Ms),
                ("core.copyout.sim_ms", "core.copyout", Per::SimMs),
            ],
        )
    }

    fn ledger_violations(&self, traced: &[&Rep]) -> Vec<String> {
        let mut out = fs_ledger_violations(traced);
        for rep in traced {
            let reads = rep
                .sim
                .counters
                .iter()
                .find(|c| c.name == "footprint.reads");
            if reads.map(|c| c.num) != Some(0) {
                out.push("footprint.reads != 0 in resident_read's measured phase".into());
            }
        }
        out
    }
}
