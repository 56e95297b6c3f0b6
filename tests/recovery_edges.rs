//! Crash-recovery edge cases on the base LFS — stale summaries in
//! reused segments, torn checkpoint slots, and a crash during the
//! checkpoint write itself — plus the tertiary engine's degraded-mode
//! edge (DESIGN.md §6f): the writer lane dying mid copy-out stream and
//! the mantle failing over to a spare drive, and the fetch of a segment
//! with no home at all.

use std::rc::Rc;

use hl_lfs::config::AddressMap;
use hl_lfs::fs::CHECKPOINT_ADDR;
use hl_lfs::ondisk::{Checkpoint, SegSummary, Superblock, CHECKPOINT_SLOT};
use hl_lfs::{Lfs, LfsConfig, LinearMap, NoTertiary, Ufs};
use hl_sim::Clock;
use hl_vdev::{BlockDev, CrashDev, CrashPlan, Disk, DiskProfile, BLOCK_SIZE};

struct Rig {
    disk: Rc<Disk>,
    amap: Rc<LinearMap>,
    cfg: LfsConfig,
}

fn rig() -> Rig {
    let clock = Clock::new();
    let disk = Rc::new(Disk::new(DiskProfile::RZ57, 2 + 32 * 256, None));
    let cfg = LfsConfig::base(clock);
    let amap = Rc::new(LinearMap::for_device(
        disk.nblocks(),
        cfg.blocks_per_seg(),
        hl_lfs::fs::BOOT_BLOCKS,
    ));
    Lfs::mkfs(
        disk.clone() as Rc<dyn BlockDev>,
        amap.clone(),
        Rc::new(NoTertiary),
        cfg.clone(),
    )
    .expect("mkfs");
    Rig { disk, amap, cfg }
}

impl Rig {
    fn mount(&self) -> (Lfs, hl_lfs::recovery::RecoveryReport) {
        hl_lfs::recovery::mount_with_report(
            self.disk.clone() as Rc<dyn BlockDev>,
            self.amap.clone(),
            Rc::new(NoTertiary),
            self.cfg.clone(),
        )
        .expect("mount")
    }

    fn newest_checkpoint(&self) -> Checkpoint {
        let mut blk = vec![0u8; BLOCK_SIZE];
        self.disk
            .peek(CHECKPOINT_ADDR as u64, &mut blk)
            .expect("peek checkpoint");
        Checkpoint::newest(&blk).expect("no valid checkpoint")
    }
}

fn write_some(lfs: &mut Lfs, path: &str, fill: u8, len: usize) {
    let ino = match lfs.lookup(path) {
        Ok(i) => i,
        Err(_) => lfs.create(path).expect("create"),
    };
    lfs.write(ino, 0, &vec![fill; len]).expect("write");
}

/// A summary block from an earlier life of a segment — perfectly valid
/// checksums, stale serial — must be rejected by the exact serial
/// chain, not replayed.
#[test]
fn stale_summary_in_reused_segment_is_rejected_by_serial_chain() {
    let r = rig();
    let (mut lfs, _) = r.mount();
    write_some(&mut lfs, "/a", 0x61, 10_000);
    lfs.sync().expect("sync");
    write_some(&mut lfs, "/b", 0x62, 10_000);
    lfs.checkpoint().expect("checkpoint");
    drop(lfs);

    // Fabricate a "leftover" partial at exactly the position roll-forward
    // will inspect next, with a serial from a previous pass (too old).
    let ck = r.newest_checkpoint();
    let mut sb_blk = vec![0u8; BLOCK_SIZE];
    r.disk.peek(0, &mut sb_blk).expect("peek sb");
    let sb = Superblock::decode(&sb_blk).expect("superblock");
    let sum_addr = r.amap.seg_base(ck.next_seg) + ck.next_off;
    let payload = vec![0x5au8; BLOCK_SIZE];
    let mut stale = SegSummary::new(0, ck.log_serial.saturating_sub(3));
    stale.finfos.push(hl_lfs::ondisk::Finfo {
        ino: 4,
        version: 1,
        lastlength: 4096,
        blocks: vec![0],
    });
    let mut sum_blk = vec![0u8; BLOCK_SIZE];
    stale.encode(
        &mut sum_blk[..sb.summary_bytes as usize],
        SegSummary::datasum_of(&payload),
    );
    // The fabricated summary is fully well-formed — checksums verify,
    // datasum matches the payload — so only the serial chain can reject it.
    let (decoded, datasum) = SegSummary::decode(&sum_blk[..sb.summary_bytes as usize])
        .expect("fabricated summary decodes");
    assert_eq!(decoded, stale);
    assert_eq!(datasum, SegSummary::datasum_of(&payload));
    r.disk
        .poke(sum_addr as u64, &sum_blk)
        .expect("poke summary");
    r.disk
        .poke(sum_addr as u64 + 1, &payload)
        .expect("poke payload");

    let (mut lfs, report) = r.mount();
    assert_eq!(
        report.partials_replayed, 0,
        "stale summary must not roll forward"
    );
    let ino = lfs.lookup("/a").expect("a");
    let mut buf = vec![0u8; 10_000];
    lfs.read(ino, 0, &mut buf).expect("read");
    assert!(
        buf.iter().all(|&b| b == 0x61),
        "/a corrupted by stale replay"
    );
    assert!(lfs.check().expect("check").clean());
}

/// Corrupting the newest checkpoint slot must fall back to the
/// alternate (older) slot, never fail the mount.
#[test]
fn torn_checkpoint_slot_falls_back_to_alternate() {
    let r = rig();
    let (mut lfs, _) = r.mount();
    write_some(&mut lfs, "/a", 0x41, 8_000);
    lfs.checkpoint().expect("checkpoint 1");
    write_some(&mut lfs, "/b", 0x42, 8_000);
    lfs.checkpoint().expect("checkpoint 2");
    drop(lfs);

    let newest = r.newest_checkpoint();
    // Tear the newest slot: flip a byte inside it (its checksum dies).
    let slot_base = (newest.serial as usize % 2) * CHECKPOINT_SLOT;
    let mut blk = vec![0u8; BLOCK_SIZE];
    r.disk.peek(CHECKPOINT_ADDR as u64, &mut blk).expect("peek");
    blk[slot_base + 5] ^= 0xff;
    r.disk.poke(CHECKPOINT_ADDR as u64, &blk).expect("poke");

    let (mut lfs, report) = r.mount();
    assert_eq!(
        report.checkpoint_serial,
        newest.serial - 1,
        "must fall back to the alternate slot"
    );
    // Checkpoint 2's state may roll forward from intact partials, but the
    // checkpoint-1 file must be there regardless.
    let ino = lfs.lookup("/a").expect("a");
    let mut buf = vec![0u8; 8_000];
    lfs.read(ino, 0, &mut buf).expect("read");
    assert!(buf.iter().all(|&b| b == 0x41));
    lfs.reap_orphans().expect("reap");
    assert!(lfs.check().expect("check").clean());
}

/// Crash *during* the checkpoint block write: the read-modify-write
/// keeps the alternate slot's bytes in the buffer, so whatever prefix
/// lands, one valid checkpoint always survives.
#[test]
fn crash_during_checkpoint_write_keeps_a_valid_checkpoint() {
    // Counting pass: learn the write index of the final checkpoint's
    // block-1 RMW (it is the last write of the scenario).
    let scenario = |lfs: &mut Lfs| {
        write_some(lfs, "/a", 0x41, 8_000);
        lfs.checkpoint().expect("checkpoint 1");
        write_some(lfs, "/b", 0x42, 8_000);
        lfs.checkpoint().expect("checkpoint 2");
    };
    let count = {
        let r = rig();
        let plan = CrashPlan::counting(3);
        let dev: Rc<dyn BlockDev> = Rc::new(CrashDev::new(
            r.disk.clone() as Rc<dyn BlockDev>,
            plan.clone(),
        ));
        let mut lfs =
            Lfs::mount(dev, r.amap.clone(), Rc::new(NoTertiary), r.cfg.clone()).expect("mount");
        scenario(&mut lfs);
        plan.writes_seen()
    };
    assert!(count >= 2);

    // Crash pass: tear the very last write — the checkpoint-2 RMW.
    let r = rig();
    let plan = CrashPlan::at_write(3, count - 1);
    let dev: Rc<dyn BlockDev> = Rc::new(CrashDev::new(
        r.disk.clone() as Rc<dyn BlockDev>,
        plan.clone(),
    ));
    let mut lfs =
        Lfs::mount(dev, r.amap.clone(), Rc::new(NoTertiary), r.cfg.clone()).expect("mount");
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        scenario(&mut lfs);
    }));
    assert!(result.is_err(), "the torn checkpoint write must error");
    assert!(plan.crashed());
    drop(lfs);

    let (mut lfs, report) = r.mount();
    assert!(
        report.checkpoint_serial >= 1,
        "checkpoint 1 must survive a crash during checkpoint 2's write"
    );
    let ino = lfs.lookup("/a").expect("a");
    let mut buf = vec![0u8; 8_000];
    lfs.read(ino, 0, &mut buf).expect("read");
    assert!(buf.iter().all(|&b| b == 0x41));
    lfs.reap_orphans().expect("reap");
    assert!(lfs.check().expect("check").clean());
}

/// The writer lane (drive 0) dies with copy-outs queued: the writer
/// mantle falls to the surviving drive, the orphaned op re-dispatches,
/// and every staged segment lands on tertiary media byte-identical.
#[test]
fn writer_lane_death_fails_over_copyouts_to_a_spare() {
    use highlight::rig::{assert_clean, RigSpec};
    use highlight::segcache::LineState;
    use hl_footprint::Footprint;
    use hl_vdev::{FaultConfig, FaultPlan};

    let (tio, jb, map) = RigSpec::default().build();
    let disk = tio.disks_handle();

    // Drive 0 — the writer — is dead from the start; the engine only
    // discovers it when the first copy-out routes there.
    let plan = FaultPlan::new(FaultConfig::none(23));
    plan.fail_drive_at(0, 0);
    jb.set_fault_plan(plan);

    // Stage two dirty lines the way the migrator does: claim a cache
    // line, lay the segment image at its staging home, seal it.
    use hl_lfs::config::AddressMap;
    let mut images = Vec::new();
    let mut tickets = Vec::new();
    for i in 0..2u32 {
        let seg = map.tert_seg(2, i);
        let (disk_seg, _) = tio
            .cache()
            .borrow_mut()
            .allocate(seg, LineState::Staging, 0)
            .expect("staging line");
        let image = vec![0x30 + i as u8; 1 << 20];
        disk.poke(map.seg_base(disk_seg) as u64, &image)
            .expect("poke staging image");
        tio.cache()
            .borrow_mut()
            .set_state(seg, LineState::DirtyWait);
        tickets.push((i, tio.enqueue_copy_out(0, seg)));
        images.push(image);
    }
    tio.pump();

    for (i, ticket) in &tickets {
        ticket
            .copyout_result()
            .expect("the spare writer must land the copy-out");
        let mut back = vec![0u8; 1 << 20];
        jb.peek_segment(2, *i, &mut back).expect("peek tertiary");
        assert_eq!(
            back, images[*i as usize],
            "copy-out {i} bytes diverged after writer failover"
        );
    }
    let st = tio.stats();
    assert_eq!(st.drive_down, 1, "drive 0 must go down exactly once");
    assert!(st.redispatched >= 1, "the orphaned copy-out must re-run");
    assert!(
        st.drive_ops[1] >= 2,
        "the spare must have served both copy-outs"
    );
    assert_eq!(tio.lane_health(), vec![false, true]);
    assert_clean(&tio);
}

/// A segment number outside the tertiary range has no primary home: a
/// demand fetch of it fails `Offline` unless a replica record gives it
/// one, in which case the replica serves it (one directory lookup
/// decides both).
#[test]
fn a_segment_with_no_home_is_offline_until_a_replica_names_one() {
    use highlight::rig::RigSpec;
    use highlight::HlError;
    use hl_footprint::Footprint;
    use hl_vdev::DevError;

    let (tio, jb, map) = RigSpec::default().build();
    let unmapped = map.tertiary_base() - 1;
    assert!(map.vol_slot(unmapped).is_none());
    assert!(matches!(
        tio.demand_fetch(0, unmapped),
        Err(HlError::Dev(DevError::Offline))
    ));

    let image = vec![0x5au8; 1 << 20];
    jb.poke_segment(3, 7, &image).expect("stage the replica");
    tio.replicas().borrow_mut().add(unmapped, 3, 7);
    let (disk_seg, _) = tio.demand_fetch(0, unmapped).expect("replica serves");
    let mut back = vec![0u8; 1 << 20];
    tio.disks_handle()
        .peek(map.seg_base(disk_seg) as u64, &mut back)
        .expect("peek the cache line");
    assert_eq!(back, image);
}

/// Every way the service process refuses a request at dispatch, on one
/// engine: a fetch whose volume is gone quarantines it; a copy-out of a
/// line that is not sealed; an eject of a pinned line; a sealed
/// copy-out onto the quarantined volume; a demand and a prefetch with
/// every line pinned. Each ticket holds its class's failure value, the
/// queues drain, and the digest pins what each refusal traced.
#[test]
fn dispatch_time_refusals_resolve_every_class() {
    use highlight::rig::{assert_clean, RigSpec};
    use highlight::segcache::LineState;
    use highlight::HlError;
    use hl_footprint::Footprint;
    use hl_vdev::DevError;

    let (tio, jb, map) = RigSpec::with_lines(40..42).build();
    jb.fail_volume(2);
    assert!(matches!(
        tio.demand_fetch(0, map.tert_seg(2, 0)),
        Err(HlError::SegmentUnavailable { .. })
    ));
    assert_eq!(tio.quarantined_volumes(), vec![2]);

    let doomed = map.tert_seg(2, 1);
    tio.cache()
        .borrow_mut()
        .allocate(doomed, LineState::Staging, 0)
        .expect("staging line");
    assert_eq!(tio.copy_out(0, doomed), Err(DevError::Offline), "unsealed");
    assert!(!tio.eject(doomed), "pinned");
    tio.cache()
        .borrow_mut()
        .set_state(doomed, LineState::DirtyWait);
    let refused = tio.copy_out(0, doomed);
    assert_eq!(refused, Err(DevError::Offline), "quarantined volume");

    tio.cache()
        .borrow_mut()
        .allocate(map.tert_seg(1, 0), LineState::Staging, 0)
        .expect("second staging line");
    let prefetch = tio.enqueue_prefetch(0, map.tert_seg(0, 1));
    assert!(matches!(
        tio.demand_fetch(0, map.tert_seg(0, 0)),
        Err(HlError::Dev(DevError::Offline))
    ));
    assert!(matches!(
        prefetch.fetch_result(),
        Err(HlError::Dev(DevError::Offline))
    ));

    assert_eq!(tio.queue_depths(), (0, 0));
    assert_clean(&tio);
    assert_eq!(tio.trace_digest(), 0x05c7_3c03_721e_e55b);
}
