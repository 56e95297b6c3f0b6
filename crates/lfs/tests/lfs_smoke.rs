//! End-to-end exercises of the base LFS: format, mount, file operations,
//! cleaning, crash recovery.

use std::rc::Rc;

use hl_lfs::{CleanerPolicy, Lfs, LfsConfig, LfsError, LinearMap, NoTertiary, Ufs};
use hl_sim::Clock;
use hl_vdev::{BlockDev, Disk, DiskProfile};

struct Fixture {
    dev: Rc<Disk>,
    amap: Rc<LinearMap>,
    clock: Clock,
}

impl Fixture {
    /// A small filesystem: `segs` 1 MB segments on an RZ57.
    fn new(segs: u32) -> Fixture {
        let clock = Clock::new();
        let nblocks = 2 + segs as u64 * 256 + 17; // boot area + partial tail
        let dev = Rc::new(Disk::new(DiskProfile::RZ57, nblocks, None));
        let amap = Rc::new(LinearMap::for_device(nblocks, 256, 2));
        Fixture { dev, amap, clock }
    }

    fn cfg(&self) -> LfsConfig {
        LfsConfig::base(self.clock.clone())
    }

    fn mkfs(&self) {
        Lfs::mkfs(
            self.dev.clone(),
            self.amap.clone(),
            Rc::new(NoTertiary),
            self.cfg(),
        )
        .expect("mkfs");
    }

    fn mount(&self) -> Lfs {
        Lfs::mount(
            self.dev.clone(),
            self.amap.clone(),
            Rc::new(NoTertiary),
            self.cfg(),
        )
        .expect("mount")
    }
}

fn patterned(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

#[test]
fn mkfs_then_mount_yields_empty_root() {
    let fx = Fixture::new(16);
    fx.mkfs();
    let mut fs = fx.mount();
    let entries = fs.readdir("/").expect("readdir");
    let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, vec![".", ".."]);
}

#[test]
fn write_read_round_trip_small() {
    let fx = Fixture::new(16);
    fx.mkfs();
    let mut fs = fx.mount();
    let ino = fs.create("/hello.txt").expect("create");
    fs.write(ino, 0, b"hello, sequoia").expect("write");
    let mut buf = [0u8; 64];
    let n = fs.read(ino, 0, &mut buf).expect("read");
    assert_eq!(&buf[..n], b"hello, sequoia");
}

#[test]
fn data_survives_sync_cache_drop_and_remount() {
    let fx = Fixture::new(16);
    fx.mkfs();
    let data = patterned(100_000, 3);
    {
        let mut fs = fx.mount();
        let ino = fs.create("/dir_less_file").expect("create");
        fs.write(ino, 0, &data).expect("write");
        fs.checkpoint().expect("checkpoint");
        // Dropping caches forces re-reads from media.
        fs.drop_caches();
        let mut back = vec![0u8; data.len()];
        let n = fs.read(ino, 0, &mut back).expect("read");
        assert_eq!(n, data.len());
        assert_eq!(back, data);
    }
    // A fresh mount must see the same bytes.
    let mut fs = fx.mount();
    let ino = fs.lookup("/dir_less_file").expect("lookup");
    let mut back = vec![0u8; data.len()];
    fs.read(ino, 0, &mut back).expect("read");
    assert_eq!(back, data);
}

#[test]
fn large_file_uses_indirect_blocks_and_round_trips() {
    let fx = Fixture::new(40);
    fx.mkfs();
    let mut fs = fx.mount();
    // 5 MB + 555 B = 1 281 blocks: past the 12 direct and the 1 024
    // single-indirect blocks, 245 blocks into the double-indirect range.
    let data = patterned(5 * 1024 * 1024 + 555, 7);
    let ino = fs.create("/big").expect("create");
    fs.write(ino, 0, &data).expect("write");
    fs.checkpoint().expect("checkpoint");
    fs.drop_caches();
    let mut back = vec![0u8; data.len()];
    let n = fs.read(ino, 0, &mut back).expect("read");
    assert_eq!(n, data.len());
    assert_eq!(back, data, "indirect-addressed data corrupted");
    let st = fs.stat(ino).expect("stat");
    assert_eq!(st.size, data.len() as u64);
    assert_eq!(st.blocks, 1_281 + 3, "data + Ind1 + Ind2 + Ind2Child(0)");
}

#[test]
fn directories_nest_and_list() {
    let fx = Fixture::new(16);
    fx.mkfs();
    let mut fs = fx.mount();
    fs.mkdir("/a").unwrap();
    fs.mkdir("/a/b").unwrap();
    let ino = fs.create("/a/b/c.dat").unwrap();
    fs.write(ino, 0, b"xyz").unwrap();
    assert_eq!(fs.lookup("/a/b/c.dat").unwrap(), ino);
    let entries = fs.readdir("/a/b").unwrap();
    assert!(entries.iter().any(|e| e.name == "c.dat"));
    assert!(matches!(
        fs.lookup("/a/nope"),
        Err(hl_lfs::LfsError::NotFound)
    ));
}

#[test]
fn unlink_frees_space_and_name() {
    let fx = Fixture::new(16);
    fx.mkfs();
    let mut fs = fx.mount();
    let ino = fs.create("/f").unwrap();
    fs.write(ino, 0, &patterned(300_000, 1)).unwrap();
    fs.sync().unwrap();
    fs.unlink("/f").unwrap();
    assert!(matches!(fs.lookup("/f"), Err(hl_lfs::LfsError::NotFound)));
    // The audit must show the data gone.
    let audited = fs.audit_live_bytes().unwrap();
    let total: u64 = audited.iter().map(|&v| v as u64).sum();
    // Only the root dir, ifile remnants, and inode blocks remain.
    assert!(total < 200_000, "live bytes after unlink: {total}");
    // The name can be reused.
    let ino2 = fs.create("/f").unwrap();
    assert_ne!(ino, 0);
    let _ = ino2;
}

#[test]
fn overwrites_update_live_accounting() {
    let fx = Fixture::new(16);
    fx.mkfs();
    let mut fs = fx.mount();
    let ino = fs.create("/f").unwrap();
    let data = patterned(512 * 1024, 2);
    fs.write(ino, 0, &data).unwrap();
    fs.sync().unwrap();
    // Overwrite the same range: old copies die.
    fs.write(ino, 0, &data).unwrap();
    fs.sync().unwrap();
    let audited = fs.audit_live_bytes().unwrap();
    for seg in 0..fs.nsegs() {
        assert_eq!(
            fs.seg_usage(seg).live_bytes,
            audited[seg as usize],
            "segment {seg} accounting drifted"
        );
    }
}

#[test]
fn cleaner_reclaims_dead_segments() {
    let fx = Fixture::new(16);
    fx.mkfs();
    let mut fs = fx.mount();
    let ino = fs.create("/churn").unwrap();
    let data = patterned(1024 * 1024, 4);
    // Write and rewrite to dirty several segments with dead data.
    for round in 0..4 {
        fs.write(ino, 0, &data).unwrap();
        fs.sync().unwrap();
        let _ = round;
    }
    let before = fs.clean_segs();
    let report = fs.clean_until(fs.nsegs()).unwrap();
    assert!(report.segs_cleaned > 0, "cleaner found nothing to do");
    assert!(fs.clean_segs() > before);
    // Data still intact afterwards.
    fs.drop_caches();
    let mut back = vec![0u8; data.len()];
    fs.read(ino, 0, &mut back).unwrap();
    assert_eq!(back, data);
}

#[test]
fn crash_without_checkpoint_rolls_forward() {
    let fx = Fixture::new(16);
    fx.mkfs();
    let data = patterned(200_000, 9);
    {
        let mut fs = fx.mount();
        let ino = fs.create("/rolled").unwrap();
        fs.write(ino, 0, &data).unwrap();
        // sync() writes the log but takes NO checkpoint; then we "crash"
        // by dropping the filesystem object.
        fs.sync().unwrap();
    }
    let mut fs = fx.mount();
    let ino = fs.lookup("/rolled").expect("roll-forward lost the file");
    let mut back = vec![0u8; data.len()];
    let n = fs.read(ino, 0, &mut back).unwrap();
    assert_eq!(n, data.len());
    assert_eq!(back, data);
}

#[test]
fn crash_mid_write_keeps_old_state() {
    let fx = Fixture::new(16);
    fx.mkfs();
    {
        let mut fs = fx.mount();
        let ino = fs.create("/stable").unwrap();
        fs.write(ino, 0, b"v1-stable").unwrap();
        fs.checkpoint().unwrap();
        // New data written to cache but neither synced nor checkpointed.
        fs.write(ino, 0, b"v2-lost!!").unwrap();
        // Crash: drop without sync.
    }
    let mut fs = fx.mount();
    let ino = fs.lookup("/stable").unwrap();
    let mut buf = [0u8; 9];
    fs.read(ino, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"v1-stable");
}

#[test]
fn torn_partial_segment_is_rejected() {
    let fx = Fixture::new(16);
    fx.mkfs();
    let (tail_addr, data) = {
        let mut fs = fx.mount();
        let ino = fs.create("/t").unwrap();
        let data = patterned(100_000, 5);
        fs.write(ino, 0, &data).unwrap();
        fs.checkpoint().unwrap();
        // Append more after the checkpoint, then corrupt it on media.
        fs.write(ino, data.len() as u64, &data).unwrap();
        fs.sync().unwrap();
        (0u64, data)
    };
    let _ = tail_addr;
    // Corrupt a block in the most recently written region: find the last
    // written segment by scanning for nonzero data after the checkpoint.
    // Simplest deterministic approach: flip bits in many blocks of the
    // device tail; recovery must not crash and checkpointed data must
    // survive.
    let nblocks = fx.dev.nblocks();
    for b in (nblocks - 600..nblocks).step_by(7) {
        let mut buf = vec![0u8; 4096];
        fx.dev.peek(b, &mut buf).unwrap();
        if buf.iter().any(|&x| x != 0) {
            buf[100] ^= 0xff;
            fx.dev.poke(b, &buf).unwrap();
        }
    }
    let mut fs = fx.mount();
    let ino = fs.lookup("/t").expect("checkpointed file lost");
    let mut back = vec![0u8; data.len()];
    let n = fs.read(ino, 0, &mut back).unwrap();
    assert_eq!(n, data.len());
    assert_eq!(back, data, "checkpointed prefix corrupted");
}

#[test]
fn rename_moves_files_and_replaces_targets() {
    let fx = Fixture::new(16);
    fx.mkfs();
    let mut fs = fx.mount();
    fs.mkdir("/x").unwrap();
    let a = fs.create("/a").unwrap();
    fs.write(a, 0, b"AAA").unwrap();
    fs.rename("/a", "/x/a2").unwrap();
    assert!(fs.lookup("/a").is_err());
    let got = fs.lookup("/x/a2").unwrap();
    assert_eq!(got, a);
    // Replace an existing target.
    let b = fs.create("/b").unwrap();
    fs.write(b, 0, b"BBB").unwrap();
    fs.rename("/b", "/x/a2").unwrap();
    let got = fs.lookup("/x/a2").unwrap();
    let mut buf = [0u8; 3];
    fs.read(got, 0, &mut buf).unwrap();
    assert_eq!(&buf, b"BBB");
}

/// `rename("/a", "/a/b")` used to detach `/a` as a cycle reachable from
/// nowhere; it is refused, at any depth, and nothing moves.
#[test]
fn rename_refuses_to_move_a_directory_into_its_own_subtree() {
    let fx = Fixture::new(16);
    fx.mkfs();
    let mut fs = fx.mount();
    fs.mkdir("/a").unwrap();
    fs.mkdir("/a/b").unwrap();
    let a = fs.lookup("/a").unwrap();
    for to in ["/a/c", "/a/b", "/a/b/c"] {
        assert!(
            matches!(fs.rename("/a", to), Err(LfsError::Invalid(_))),
            "rename /a -> {to}"
        );
    }
    assert_eq!(fs.lookup("/a").unwrap(), a);
    assert_eq!(fs.stat(a).unwrap().nlink, 3);
    // A sibling whose name merely starts the same is not a descendant.
    fs.mkdir("/ab").unwrap();
    fs.rename("/a", "/ab/a").unwrap();
    assert_eq!(fs.lookup("/ab/a").unwrap(), a);
    fs.checkpoint().unwrap();
    let report = fs.check().unwrap();
    assert!(report.clean(), "findings: {:#?}", report.findings);
    assert_eq!(report.dirs_reached, 4, "root, ab, a, b");
}

#[test]
fn truncate_shrinks_and_zero_extends() {
    let fx = Fixture::new(16);
    fx.mkfs();
    let mut fs = fx.mount();
    let ino = fs.create("/t").unwrap();
    fs.write(ino, 0, &patterned(20_000, 6)).unwrap();
    fs.truncate(ino, 5_000).unwrap();
    assert_eq!(fs.stat(ino).unwrap().size, 5_000);
    // Extension is sparse: reads past the old end return zeros.
    fs.truncate(ino, 10_000).unwrap();
    let mut buf = vec![0xffu8; 5_000];
    let n = fs.read(ino, 5_000, &mut buf).unwrap();
    assert_eq!(n, 5_000);
    assert!(
        buf.iter().all(|&b| b == 0),
        "truncate-extended tail not zero"
    );
}

#[test]
fn write_performance_is_sequential_not_seek_bound() {
    // 1 MB of random-offset frame writes must complete at log speed:
    // this is the LFS property Table 2's random-write row shows.
    let fx = Fixture::new(64);
    fx.mkfs();
    let mut fs = fx.mount();
    let ino = fs.create("/rand").unwrap();
    // Build a 10 MB file first.
    let chunk = patterned(1024 * 1024, 8);
    for i in 0..10 {
        fs.write(ino, i * chunk.len() as u64, &chunk).unwrap();
    }
    fs.sync().unwrap();
    let t0 = fx.clock.now();
    // 250 random 4 KB frame replacements (fixed stride walk).
    let frame = patterned(4096, 9);
    for i in 0..250u64 {
        let off = (i * 997 % 2560) * 4096;
        fs.write(ino, off, &frame).unwrap();
    }
    fs.sync().unwrap();
    let elapsed = fx.clock.now() - t0;
    let kbs = hl_sim::time::throughput_kbs(250 * 4096, elapsed);
    // The paper measures 749 KB/s; seek-bound FFS manages ~315. Anything
    // clearly above the seek-bound regime demonstrates the log property.
    assert!(kbs > 400.0, "random LFS writes too slow: {kbs:.0} KB/s");
}

#[test]
fn greedy_and_cost_benefit_policies_both_work() {
    for policy in [CleanerPolicy::Greedy, CleanerPolicy::CostBenefit] {
        let fx = Fixture::new(16);
        fx.mkfs();
        let mut cfg = fx.cfg();
        cfg.cleaner_policy = policy;
        let mut fs = Lfs::mount(fx.dev.clone(), fx.amap.clone(), Rc::new(NoTertiary), cfg).unwrap();
        let ino = fs.create("/f").unwrap();
        for _ in 0..3 {
            fs.write(ino, 0, &patterned(800_000, 1)).unwrap();
            fs.sync().unwrap();
        }
        assert!(
            fs.clean_once().unwrap().is_some(),
            "{policy:?} cleaned nothing"
        );
    }
}

#[test]
fn checker_is_clean_after_torture() {
    let fx = Fixture::new(24);
    fx.mkfs();
    let mut fs = fx.mount();
    fs.mkdir("/a").unwrap();
    fs.mkdir("/a/b").unwrap();
    for i in 0..8 {
        let ino = fs.create(&format!("/a/b/f{i}")).unwrap();
        fs.write(ino, 0, &patterned(120_000 * (i + 1), i as u8))
            .unwrap();
    }
    fs.unlink("/a/b/f3").unwrap();
    fs.rename("/a/b/f4", "/a/f4moved").unwrap();
    let t = fs.lookup("/a/b/f5").unwrap();
    fs.truncate(t, 1000).unwrap();
    fs.sync().unwrap();
    fs.clean_until(fs.nsegs()).unwrap();
    fs.checkpoint().unwrap();
    let report = fs.check().unwrap();
    assert!(report.clean(), "findings: {:#?}", report.findings);
    assert!(report.files_reached >= 7);
    assert!(report.dirs_reached >= 3);
}

/// A forged image: the double-indirect root's slot 0 is repointed at a
/// block another file owns. Pass 2 must claim level-1 children, or its
/// duplicate-owner table never sees the clash.
#[test]
fn checker_names_a_level_one_child_claimed_twice() {
    use hl_lfs::{Finding, LBlock};
    let fx = Fixture::new(16);
    fx.mkfs();
    let mut fs = fx.mount();
    let deep = fs.create("/deep").unwrap();
    fs.write(deep, 1_036 * 4_096, &patterned(4_096, 1)).unwrap();
    // All-ones reads as an indirect block of holes, so the forged child
    // plants no second corruption beneath itself.
    let other = fs.create("/other").unwrap();
    fs.write(other, 0, &[0xff; 4_096]).unwrap();
    fs.checkpoint().unwrap();
    assert!(fs.check().unwrap().clean(), "clean before the forgery");

    let addrs = fs
        .bmapv(&[(deep, LBlock::Ind2), (other, LBlock::Data(0))])
        .unwrap();
    let mut root = vec![0u8; 4_096];
    fx.dev.peek(addrs[0] as u64, &mut root).unwrap();
    root[..4].copy_from_slice(&addrs[1].to_le_bytes());
    fx.dev.poke(addrs[0] as u64, &root).unwrap();
    fs.drop_caches();

    let findings = fs.check().unwrap().findings;
    let want = Finding::DuplicateBlock {
        addr: addrs[1],
        first: (deep, LBlock::Ind2Child(0).encode()),
        second: (other, 0),
    };
    assert!(findings.contains(&want), "findings: {findings:#?}");
}
