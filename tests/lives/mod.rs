//! The scripted lives the golden pins replay: `golden_trace`'s one-file
//! round trip and `golden_image`'s three whole-hierarchy lives (their
//! headers say what each passes through and what is pinned).
//! `hash_salt` replays them again under salted hashers. Each test binary
//! uses a part of this module.
#![allow(dead_code)]

use highlight::rig::{hp6300, HlRig};
use highlight::tcleaner::{clean_volume, select_victim_volume};
use highlight::{CopyOutMode, HighLight, MigrateStats};
use hl_footprint::Footprint;
use hl_vdev::{BlockDev, BLOCK_SIZE};

/// The scripted life: one 40 KB file, migrated and fetched back.
pub fn trace_life() -> (Vec<String>, u64, Vec<(&'static str, u64)>) {
    let rig = HlRig::new(2 + 16 * 256 + 5, hp6300(2, 4), 4, None);
    rig.mkfs();
    let mut hl = rig.mount();
    hl.tio().tracer().retain_events();

    let data: Vec<u8> = (0..40_000).map(|i| (i % 251) as u8).collect();
    let ino = hl.create("/doc").expect("create");
    hl.write(ino, 0, &data).expect("write");
    hl.sync().expect("sync");
    hl.migrate_file("/doc", false, None).expect("migrate");
    let mut tail = Default::default();
    hl.seal_staging(&mut tail).expect("seal");
    hl.drain_copyouts().expect("drain");
    hl.eject_all();
    hl.drop_caches();
    let ino = hl.lookup("/doc").expect("lookup");
    let mut back = vec![0u8; data.len()];
    hl.read(ino, 0, &mut back).expect("read");
    assert_eq!(back, data, "bytes diverged before the trace is judged");

    let findings = hl.tio().trace_findings();
    assert!(findings.is_empty(), "tracecheck: {findings:?}");
    let tr = hl.tio().tracer();
    (tr.render_text(), hl.tio().trace_digest(), tr.summary())
}

/// FNV-1a over every block of the disk; FNV-1a over `(vol, slot,
/// bytes)` of every written jukebox slot; the number of those.
fn media_digests(rig: &HlRig) -> (u64, u64, u32) {
    let mut disk = FNV_SEED;
    let mut block = vec![0u8; BLOCK_SIZE];
    for b in 0..rig.disk.nblocks() {
        rig.disk.peek(b, &mut block).expect("peek disk");
        disk = fnv(disk, &block);
    }
    let jb = &rig.jukebox;
    let mut media = FNV_SEED;
    let mut slots_written = 0;
    let mut seg = vec![0u8; jb.segment_bytes()];
    for vol in 0..jb.volumes() {
        for slot in 0..jb.segments_per_volume() {
            if !jb.segment_written(vol, slot) {
                continue;
            }
            jb.peek_segment(vol, slot, &mut seg).expect("peek media");
            media = fnv(fnv(media, &[vol as u8, slot as u8]), &seg);
            slots_written += 1;
        }
    }
    (disk, media, slots_written)
}

pub fn content(id: u32, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u32).wrapping_mul(2_654_435_761).wrapping_add(id) >> 5) as u8)
        .collect()
}

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// What one scripted life left behind.
#[derive(Debug, PartialEq, Eq)]
pub struct Pin {
    /// FNV-1a over every block of the disk.
    pub disk: u64,
    /// FNV-1a over `(vol, slot, bytes)` of every written jukebox slot.
    pub media: u64,
    /// Number of written jukebox slots.
    pub slots_written: u32,
    /// End-of-medium copy-outs (each one relocated) in the first session.
    pub eom_events: u64,
    /// Simulated µs on the shared clock at the end.
    pub sim_now: u64,
    /// FNV-1a over the mount sessions' engine-trace digests.
    pub trace: u64,
}

pub fn scripted_life(copyout: CopyOutMode) -> Pin {
    let mut rig = HlRig::new(2 + 40 * 256 + 5, hp6300(3, 4), 6, None);
    rig.cfg.copyout = copyout;
    // Volume 0 "compresses badly": its second segment write reports
    // end-of-medium, forcing a staging-segment relocation (§6.3).
    rig.jukebox.set_effective_segments(0, 1);
    rig.mkfs();

    let files: Vec<(String, Vec<u8>)> = (0..5u32)
        .map(|i| {
            (
                format!("/small{i}"),
                content(i, 60_000 + 4_096 * i as usize),
            )
        })
        .chain([
            ("/big".to_string(), content(10, 900_000)),
            ("/other".to_string(), content(11, 500_000)),
            ("/last".to_string(), content(12, 300_000)),
        ])
        .collect();
    let eom_events;
    let mut trace = FNV_SEED;

    {
        let mut hl = rig.mount();
        // Log writer: many files, one sync, then a checkpoint.
        hl.mkdir("/d").expect("mkdir");
        for (path, data) in &files {
            let ino = hl.create(path).expect("create");
            hl.write(ino, 0, data).expect("write");
        }
        hl.sync().expect("sync");
        hl.checkpoint().expect("checkpoint");

        // Migrator: five small files with their inodes share one staging
        // segment (five partials, each ending in an inode block; no sync
        // in between, which would seal it)...
        let mut stats = MigrateStats::default();
        for i in 0..5 {
            let ino = hl.lookup(&format!("/small{i}")).expect("lookup");
            let items = hl.lfs().whole_file_items(ino, true).expect("items");
            hl.migrate_items(&items, Some(i)).expect("migrate small");
        }
        hl.seal_staging(&mut stats).expect("seal smalls");
        // ...then two large ones: the first plus the head of the second
        // fill a segment, the rest spills into a third. Every copy-out
        // after the first hits end-of-medium on volume 0 and is
        // relocated: at seal time when immediate, at the drain when
        // delayed (two segments queued behind the first, both already
        // addressed on volume 0).
        for (path, inode) in [("/big", false), ("/other", true)] {
            let ino = hl.lookup(path).expect("lookup");
            let items = hl.lfs().whole_file_items(ino, inode).expect("items");
            hl.migrate_items(&items, None).expect("migrate large");
        }
        // The whole-file entry point syncs first, which seals and drains.
        hl.migrate_file("/last", true, None).expect("migrate last");
        hl.seal_staging(&mut stats).expect("seal larges");
        hl.drain_copyouts().expect("drain");
        eom_events = hl.tio().stats().eom_events;
        // Persists volume 0's end-of-medium "full" mark (the tsegfile is
        // only as fresh as the last checkpoint).
        hl.checkpoint().expect("checkpoint");

        // Disk-resident keepers interleaved with junk: once the junk is
        // unlinked their segments are mostly dead but hold live blocks
        // and live inodes for the disk cleaner to copy forward.
        for i in 0..6u32 {
            for (path, len) in [
                (format!("/d/keep{i}"), 20_000),
                (format!("/d/junk{i}"), 200_000),
            ] {
                let ino = hl.create(&path).expect("create");
                hl.write(ino, 0, &content(30 + i, len)).expect("write");
            }
            hl.sync().expect("sync");
        }
        for i in 0..6 {
            hl.unlink(&format!("/d/junk{i}")).expect("unlink junk");
        }

        // Kill some of what went out, dirty some of the rest, and let
        // the disk cleaner run over the segments migration emptied.
        hl.unlink("/small1").expect("unlink");
        hl.unlink("/small3").expect("unlink");
        let big = hl.lookup("/big").expect("lookup");
        hl.write(big, 8_192, &content(20, 12_288)).expect("rewrite");
        hl.sync().expect("sync");
        let mut cleaned = (0, 0);
        for _ in 0..6 {
            if let Some(r) = hl.lfs().clean_once().expect("clean_once") {
                cleaned = (cleaned.0 + r.blocks_copied, cleaned.1 + r.inodes_copied);
            }
        }
        assert!(cleaned.0 > 0 && cleaned.1 > 0, "cleaner copied {cleaned:?}");
        // No checkpoint here: the remount below must roll forward.
        trace = fnv(trace, &hl.tio().trace_digest().to_le_bytes());
    }

    {
        let mut hl = rig.mount();
        // The unlinks rolled forward as directory updates only (the inode
        // map is as of the checkpoint): sweep the eight orphans, as every
        // post-crash mount does.
        assert_eq!(hl.lfs().reap_orphans().expect("reap"), 8);
        // Tertiary cleaner: volume 0 is full (end-of-medium) and mostly
        // dead; its survivors are re-migrated and the volume erased.
        let vol = select_victim_volume(&mut hl).expect("a full volume");
        assert_eq!(vol, 0, "the end-of-medium volume is the victim");
        let report = clean_volume(&mut hl, vol).expect("clean_volume");
        assert!(report.blocks_moved > 0, "survivors were re-migrated");
        assert!(report.inodes_moved > 0, "their inodes went with them");
        hl.checkpoint().expect("checkpoint");
        trace = fnv(trace, &hl.tio().trace_digest().to_le_bytes());
    }

    // Every surviving file reads back byte-exact from cold caches and
    // the whole hierarchy checks clean.
    let mut hl = rig.mount();
    hl.eject_all();
    hl.drop_caches();
    for (path, data) in &files {
        if path == "/small1" || path == "/small3" {
            assert!(hl.lookup(path).is_err(), "{path} was unlinked");
            continue;
        }
        let mut want = data.clone();
        if path == "/big" {
            want[8_192..8_192 + 12_288].copy_from_slice(&content(20, 12_288));
        }
        let ino = hl.lookup(path).expect("lookup");
        let mut back = vec![0u8; want.len()];
        hl.read(ino, 0, &mut back).expect("read");
        assert!(back == want, "{path} diverged");
    }
    for i in 0..6u32 {
        let ino = hl.lookup(&format!("/d/keep{i}")).expect("lookup keeper");
        let mut back = vec![0u8; 20_000];
        hl.read(ino, 0, &mut back).expect("read");
        assert!(back == content(30 + i, 20_000), "/d/keep{i} diverged");
    }
    let fsck = hl.fsck().expect("fsck");
    assert!(fsck.clean(), "{}", fsck.render());
    let findings = hl.tio().trace_findings();
    assert!(findings.is_empty(), "tracecheck: {findings:?}");
    trace = fnv(trace, &hl.tio().trace_digest().to_le_bytes());
    drop(hl);

    let (disk, media, slots_written) = media_digests(&rig);
    Pin {
        disk,
        media,
        slots_written,
        eom_events,
        sim_now: rig.clock.now(),
        trace,
    }
}

// ---------------------------------------------------------------------------
// The deep half of the block-pointer tree: files that reach behind the
// double-indirect pointer (block 1 036 on), through every consumer of
// the tree's shape — writer, migrator, cleaner liveness, fsck, the
// live-byte audit, truncate and unlink.
// ---------------------------------------------------------------------------

pub const MB: u64 = 1 << 20;
/// 2 305 data blocks: 245 of them under `Ind2Child(1)`.
pub const DENSE_LEN: usize = 9 * MB as usize + 777;
/// 74 blocks at 5 MB (under `Ind2Child(0)`) and 74 at 13 MB (under
/// `Ind2Child(2)`); nothing under child 1, `Ind1` or the inode.
const SPARSE_RUN: usize = 300_000;
const SPARSE_AT: [u64; 2] = [5 * MB, 13 * MB];

/// After every step: `hlfsck` clean, the usage table equal to a fresh
/// audit, and each file's `blocks` equal to the hand count.
fn check_deep(hl: &mut HighLight, step: &str, blocks: &[(&str, u32)]) {
    let fsck = hl.fsck().expect("fsck");
    assert!(fsck.clean(), "{step}: {}", fsck.render());
    let audited = hl.lfs().audit_live_bytes().expect("audit");
    for seg in 0..hl.lfs().nsegs() {
        let u = hl.lfs().seg_usage(seg);
        if u.flags & hl_lfs::ondisk::seg_flags::CACHE == 0 {
            assert_eq!(u.live_bytes, audited[seg as usize], "{step}: segment {seg}");
        }
    }
    for &(path, want) in blocks {
        let ino = hl.lookup(path).expect("lookup");
        assert_eq!(hl.stat(ino).expect("stat").blocks, want, "{step}: {path}");
    }
}

fn read_back(hl: &mut HighLight, path: &str, offset: u64, want: &[u8]) {
    let ino = hl.lookup(path).expect("lookup");
    let mut back = vec![0u8; want.len()];
    assert_eq!(hl.read(ino, offset, &mut back).expect("read"), want.len());
    assert!(back == want, "{path} diverged at {offset}");
}

pub fn deep_life() -> Pin {
    let rig = HlRig::new(2 + 48 * 256 + 5, hp6300(4, 6), 6, None);
    rig.mkfs();
    let dense = content(40, DENSE_LEN);
    let sparse = [content(41, SPARSE_RUN), content(42, SPARSE_RUN)];
    let mut trace = FNV_SEED;

    {
        let mut hl = rig.mount();
        let ino = hl.create("/dense").expect("create");
        hl.write(ino, 0, &dense).expect("write");
        let ino = hl.create("/sparse").expect("create");
        for (at, run) in SPARSE_AT.iter().zip(&sparse) {
            hl.write(ino, *at, run).expect("write");
        }
        hl.sync().expect("sync");
        // 2 305 data + Ind1 + Ind2 + two children; 148 data + Ind2 +
        // two children.
        let full = [("/dense", 2_309), ("/sparse", 151)];
        check_deep(&mut hl, "written", &full);

        // Everything out, inodes included, then back in from cold.
        for path in ["/dense", "/sparse"] {
            let stats = hl.migrate_file(path, true, None).expect("migrate");
            assert_eq!(stats.inodes, 1, "{path}: inode migrated");
        }
        hl.sync().expect("sync");
        check_deep(&mut hl, "migrated", &full);
        hl.eject_all();
        hl.drop_caches();
        read_back(&mut hl, "/dense", 0, &dense);
        for (at, run) in SPARSE_AT.iter().zip(&sparse) {
            read_back(&mut hl, "/sparse", *at, run);
        }
        // The hole spanning all of child 1 reads as zeros.
        read_back(&mut hl, "/sparse", 9 * MB, &[0u8; 8_192]);
        check_deep(&mut hl, "refetched", &full);

        // Tertiary cleaner: volume 0 is full; all of it is live.
        let vol = select_victim_volume(&mut hl).expect("a full volume");
        let report = clean_volume(&mut hl, vol).expect("clean_volume");
        assert!(report.blocks_moved > 1_036, "moved {}", report.blocks_moved);
        hl.checkpoint().expect("checkpoint");
        check_deep(&mut hl, "tertiary-cleaned", &full);
        trace = fnv(trace, &hl.tio().trace_digest().to_le_bytes());
    }

    let mut hl = rig.mount();
    check_deep(&mut hl, "remounted", &[("/dense", 2_309), ("/sparse", 151)]);
    // Down across every boundary: inside child 1, child 1 → child 0,
    // inside child 0, double → single at block 1 036, inside the single
    // indirect, single → direct at block 12, inside the direct blocks.
    let ino = hl.lookup("/dense").expect("lookup");
    let bs = BLOCK_SIZE as u64;
    for (size, blocks) in [
        (2_060 * bs + 100, 2_065),
        (2_060 * bs, 2_063),
        (8 * MB + 100, 2_052),
        (1_041 * bs + 9, 1_045),
        (1_036 * bs, 1_037),
        (1_024 * bs, 1_025),
        (13 * bs, 14),
        (40_000, 10),
        (0, 0),
    ] {
        hl.truncate(ino, size).expect("truncate");
        hl.sync().expect("sync");
        let step = format!("dense cut to {size}");
        check_deep(&mut hl, &step, &[("/dense", blocks)]);
        let keep = (size as usize).min(4_096);
        read_back(
            &mut hl,
            "/dense",
            size - keep as u64,
            &dense[size as usize - keep..size as usize],
        );
    }
    // The sparse file loses child 2 and keeps child 0 whole.
    let ino = hl.lookup("/sparse").expect("lookup");
    hl.truncate(ino, 7 * MB).expect("truncate");
    hl.sync().expect("sync");
    check_deep(&mut hl, "sparse cut to 7 MB", &[("/sparse", 76)]);
    read_back(&mut hl, "/sparse", SPARSE_AT[0], &sparse[0]);

    hl.unlink("/dense").expect("unlink");
    hl.unlink("/sparse").expect("unlink");
    hl.checkpoint().expect("checkpoint");
    check_deep(&mut hl, "unlinked", &[]);
    assert_eq!(hl.tertiary_live_bytes(), 0, "nothing left on tertiary");
    let findings = hl.tio().trace_findings();
    assert!(findings.is_empty(), "tracecheck: {findings:?}");
    trace = fnv(trace, &hl.tio().trace_digest().to_le_bytes());
    drop(hl);

    let (disk, media, slots_written) = media_digests(&rig);
    Pin {
        disk,
        media,
        slots_written,
        eom_events: 0,
        sim_now: rig.clock.now(),
        trace,
    }
}
