//! Whole-hierarchy image pin: every byte the system leaves on the disk
//! and on the jukebox media after one scripted life that passes through
//! every site that lays out or parses a partial segment — the log
//! writer (create / write / sync / checkpoint), the migrator
//! (`migrate_file`, with and without inodes, several partials per
//! staging segment), the disk cleaner (`clean_once`), end-of-medium
//! relocation (immediate and delayed copy-out), the tertiary cleaner
//! (`tcleaner::clean_volume`), on-fetch rearrangement, and mount-time
//! roll-forward (remounts, one of them without a checkpoint).
//!
//! The digests are FNV-1a over the raw device bytes, so a change that
//! moves a block, reorders a partial, bumps a serial differently or
//! perturbs buffer-cache eviction (which shifts what the cleaner finds
//! resident, and so simulated time and the engine trace) moves them. A
//! change that must move one re-pins it alone, with the reason.

use std::rc::Rc;

use highlight::tcleaner::{clean_volume, select_victim_volume};
use highlight::{CopyOutMode, HighLight, HlConfig, MigrateStats, RearrangeMode};
use hl_footprint::{Footprint, Jukebox, JukeboxConfig};
use hl_sim::Clock;
use hl_vdev::{BlockDev, Disk, DiskProfile, BLOCK_SIZE};

const DISK_SEGS: u64 = 40;
const VOLUMES: u32 = 3;
const SLOTS: u32 = 4;

struct Rig {
    clock: Clock,
    disk: Rc<Disk>,
    jukebox: Jukebox,
}

impl Rig {
    fn new() -> Rig {
        let jukebox = Jukebox::new(
            JukeboxConfig {
                volumes: VOLUMES,
                segments_per_volume: SLOTS,
                ..JukeboxConfig::hp6300_paper()
            },
            None,
        );
        // Volume 0 "compresses badly": its second segment write reports
        // end-of-medium, forcing a staging-segment relocation (§6.3).
        jukebox.set_effective_segments(0, 1);
        Rig {
            clock: Clock::new(),
            disk: Rc::new(Disk::new(DiskProfile::RZ57, 2 + DISK_SEGS * 256 + 5, None)),
            jukebox,
        }
    }

    fn cfg(&self, copyout: CopyOutMode, rearrange: RearrangeMode) -> HlConfig {
        HlConfig {
            copyout,
            rearrange,
            ..HlConfig::paper(self.clock.clone(), 6)
        }
    }

    fn mount(&self, cfg: HlConfig) -> HighLight {
        HighLight::mount(
            self.disk.clone() as Rc<dyn BlockDev>,
            Rc::new(self.jukebox.clone()),
            cfg,
        )
        .expect("mount")
    }
}

fn content(id: u32, len: usize) -> Vec<u8> {
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
struct Pin {
    /// FNV-1a over every block of the disk.
    disk: u64,
    /// FNV-1a over `(vol, slot, bytes)` of every written jukebox slot.
    media: u64,
    /// Number of written jukebox slots.
    slots_written: u32,
    /// End-of-medium copy-outs (each one relocated) in the first session.
    eom_events: u64,
    /// Simulated µs on the shared clock at the end.
    sim_now: u64,
    /// FNV-1a over the four mount sessions' engine-trace digests.
    trace: u64,
}

fn scripted_life(copyout: CopyOutMode) -> Pin {
    let rig = Rig::new();
    HighLight::mkfs(
        rig.disk.clone() as Rc<dyn BlockDev>,
        Rc::new(rig.jukebox.clone()),
        rig.cfg(copyout, RearrangeMode::Off),
    )
    .expect("mkfs");

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
        let mut hl = rig.mount(rig.cfg(copyout, RearrangeMode::Off));
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
        let mut hl = rig.mount(rig.cfg(copyout, RearrangeMode::Off));
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

    {
        // On-fetch rearrangement re-migrates what a demand fetch finds
        // live in the fetched segment.
        let mut hl = rig.mount(rig.cfg(copyout, RearrangeMode::OnFetch));
        hl.eject_all();
        hl.drop_caches();
        let other = hl.lookup("/other").expect("lookup");
        let mut buf = vec![0u8; 100_000];
        hl.read(other, 0, &mut buf).expect("read");
        assert!(hl.lfs().stats().blocks_migrated > 0, "nothing rearranged");
        hl.checkpoint().expect("checkpoint");
        trace = fnv(trace, &hl.tio().trace_digest().to_le_bytes());
    }

    // Every surviving file reads back byte-exact from cold caches and
    // the whole hierarchy checks clean.
    let mut hl = rig.mount(rig.cfg(copyout, RearrangeMode::Off));
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

    let mut disk = FNV_SEED;
    let mut block = vec![0u8; BLOCK_SIZE];
    for b in 0..rig.disk.nblocks() {
        rig.disk.peek(b, &mut block).expect("peek disk");
        disk = fnv(disk, &block);
    }
    let mut media = FNV_SEED;
    let mut slots_written = 0;
    let mut seg = vec![0u8; rig.jukebox.segment_bytes()];
    for vol in 0..VOLUMES {
        for slot in 0..SLOTS {
            if !rig.jukebox.segment_written(vol, slot) {
                continue;
            }
            rig.jukebox
                .peek_segment(vol, slot, &mut seg)
                .expect("peek media");
            media = fnv(fnv(media, &[vol as u8, slot as u8]), &seg);
            slots_written += 1;
        }
    }
    Pin {
        disk,
        media,
        slots_written,
        eom_events,
        sim_now: rig.clock.now(),
        trace,
    }
}

#[test]
fn immediate_copy_out_life_matches_the_pinned_image() {
    assert_eq!(
        scripted_life(CopyOutMode::Immediate),
        Pin {
            disk: 0xd1dd_f0a5_9e9b_ccee,
            media: 0xe6db_0edc_df29_bf6c,
            slots_written: 5,
            eom_events: 1,
            sim_now: 136_346_952,
            trace: 0x27a6_7cb4_64c7_5dd9,
        }
    );
}

#[test]
fn delayed_copy_out_life_matches_the_pinned_image() {
    assert_eq!(
        scripted_life(CopyOutMode::Delayed { pipeline: 4 }),
        Pin {
            disk: 0xdc27_6dca_6e0a_94b6,
            media: 0x0a0f_3e93_4585_816e,
            slots_written: 5,
            eom_events: 2,
            sim_now: 134_099_874,
            trace: 0x356a_be9c_2220_0771,
        }
    );
}
