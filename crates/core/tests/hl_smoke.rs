//! End-to-end HighLight exercises: migration, demand fetch, cache
//! behaviour, persistence, tertiary cleaning.

use highlight::rig::{hp6300, HlRig};
use hl_footprint::Footprint;
use hl_sim::time::{secs, SEC};
use hl_vdev::{BlockDev, Disk};

/// `disk_segs` 1 MB disk segments + a small MO jukebox.
fn rig(disk_segs: u64, volumes: u32, slots: u32, cache_segs: u32) -> HlRig {
    HlRig::new(
        2 + disk_segs * 256 + 7,
        hp6300(volumes, slots),
        cache_segs,
        None,
    )
}

fn patterned(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(13).wrapping_add(seed))
        .collect()
}

#[test]
fn acts_like_a_normal_filesystem() {
    let rig = rig(32, 4, 8, 6);
    rig.mkfs();
    let mut hl = rig.mount();
    hl.mkdir("/data").unwrap();
    let ino = hl.create("/data/f").unwrap();
    let data = patterned(100_000, 1);
    hl.write(ino, 0, &data).unwrap();
    let mut back = vec![0u8; data.len()];
    assert_eq!(hl.read(ino, 0, &mut back).unwrap(), data.len());
    assert_eq!(back, data);
}

#[test]
fn migrate_then_read_back_from_cache() {
    let rig = rig(32, 4, 8, 6);
    rig.mkfs();
    let mut hl = rig.mount();
    let data = patterned(2 * 1024 * 1024 + 777, 2);
    let ino = hl.create("/sat_image").unwrap();
    hl.write(ino, 0, &data).unwrap();
    hl.sync().unwrap();

    let stats = hl.migrate_file("/sat_image", true, None).unwrap();
    let mut tail = Default::default();
    hl.seal_staging(&mut tail).unwrap();
    assert!(stats.blocks >= 512, "moved {} blocks", stats.blocks);
    assert!(stats.inodes >= 1);
    assert!(hl.tertiary_live_bytes() > 2 * 1024 * 1024);

    // The data now reads back through cached tertiary segments.
    let mut back = vec![0u8; data.len()];
    let ino = hl.lookup("/sat_image").unwrap();
    assert_eq!(hl.read(ino, 0, &mut back).unwrap(), data.len());
    assert_eq!(back, data, "post-migration read corrupted");
}

#[test]
fn demand_fetch_after_eject_takes_tertiary_time() {
    let rig = rig(32, 4, 8, 6);
    rig.mkfs();
    let mut hl = rig.mount();
    let data = patterned(1024 * 1024, 3);
    let ino = hl.create("/cold").unwrap();
    hl.write(ino, 0, &data).unwrap();
    hl.sync().unwrap();
    hl.migrate_file("/cold", false, None).unwrap();
    let mut tail = Default::default();
    hl.seal_staging(&mut tail).unwrap();

    // Eject everything and drop buffers: the next read must demand
    // fetch from the MO jukebox.
    hl.eject_all();
    hl.drop_caches();
    let fetches_before = hl.tio().stats().demand_fetches;
    let t0 = rig.clock.now();
    let mut back = vec![0u8; data.len()];
    hl.read(ino, 0, &mut back).unwrap();
    assert_eq!(back, data);
    assert!(hl.tio().stats().demand_fetches > fetches_before);
    // First byte cost included at least an MO segment read (~2.3 s) —
    // possibly a volume swap too.
    assert!(rig.clock.now() - t0 > secs(2.0));

    // Re-read: cached now — no new fetch, and clearly faster.
    let first_read_time = rig.clock.now() - t0;
    hl.drop_caches();
    let fetches_mid = hl.tio().stats().demand_fetches;
    let t1 = rig.clock.now();
    hl.read(ino, 0, &mut back).unwrap();
    assert_eq!(back, data);
    let second_read_time = rig.clock.now() - t1;
    assert_eq!(hl.tio().stats().demand_fetches, fetches_mid);
    assert!(
        second_read_time * 2 < first_read_time,
        "cached {second_read_time} vs uncached {first_read_time}"
    );
}

#[test]
fn migrated_metadata_demand_fetches_too() {
    let rig = rig(32, 4, 8, 6);
    rig.mkfs();
    let mut hl = rig.mount();
    let data = patterned(300_000, 4);
    let ino = hl.create("/meta_too").unwrap();
    hl.write(ino, 0, &data).unwrap();
    hl.sync().unwrap();
    // Inode migrates along with the data (§4: "the ability to migrate
    // all file system data").
    hl.migrate_file("/meta_too", true, None).unwrap();
    let mut tail = Default::default();
    hl.seal_staging(&mut tail).unwrap();
    hl.eject_all();
    hl.drop_caches();
    // The directory stayed on disk, so the lookup resolves there; the
    // first read of the inode (`stat`) fetches it from tertiary storage.
    let ino2 = hl.lookup("/meta_too").unwrap();
    assert_eq!(ino2, ino);
    assert_eq!(hl.tio().stats().demand_fetches, 0);
    let st = hl.stat(ino).unwrap();
    assert_eq!(st.size, data.len() as u64);
    assert_eq!(hl.tio().stats().demand_fetches, 1);
}

#[test]
fn updates_to_migrated_files_go_to_disk_log() {
    let rig = rig(32, 4, 8, 6);
    rig.mkfs();
    let mut hl = rig.mount();
    let data = patterned(500_000, 5);
    let ino = hl.create("/mut").unwrap();
    hl.write(ino, 0, &data).unwrap();
    hl.sync().unwrap();
    hl.migrate_file("/mut", false, None).unwrap();
    let mut tail = Default::default();
    hl.seal_staging(&mut tail).unwrap();
    let tert_before = hl.tertiary_live_bytes();

    // Overwrite part: "any changes are appended to the LFS log in the
    // normal fashion" (§4); the tertiary copy's live bytes drop.
    let patch = patterned(64 * 1024, 6);
    hl.write(ino, 0, &patch).unwrap();
    hl.sync().unwrap();
    assert!(hl.tertiary_live_bytes() < tert_before);

    let mut back = vec![0u8; data.len()];
    hl.read(ino, 0, &mut back).unwrap();
    assert_eq!(&back[..patch.len()], &patch[..]);
    assert_eq!(&back[patch.len()..], &data[patch.len()..]);
}

#[test]
fn state_survives_checkpoint_and_remount() {
    let rig = rig(32, 4, 8, 6);
    rig.mkfs();
    let data = patterned(1_200_000, 7);
    {
        let mut hl = rig.mount();
        let ino = hl.create("/persistent").unwrap();
        hl.write(ino, 0, &data).unwrap();
        hl.sync().unwrap();
        hl.migrate_file("/persistent", true, None).unwrap();
        let mut tail = Default::default();
        hl.seal_staging(&mut tail).unwrap();
        hl.checkpoint().unwrap();
    }
    let mut hl = rig.mount();
    // The tsegfile restored the tertiary live-byte accounting.
    assert!(hl.tertiary_live_bytes() > 1_000_000);
    let ino = hl.lookup("/persistent").unwrap();
    let mut back = vec![0u8; data.len()];
    hl.read(ino, 0, &mut back).unwrap();
    assert_eq!(back, data);
}

#[test]
fn cache_is_bounded_by_static_limit() {
    let rig = rig(40, 4, 8, 3); // only 3 cache lines
    rig.mkfs();
    let mut hl = rig.mount();
    // Migrate 6 × 1 MB files (6 tertiary segments).
    for i in 0..6 {
        let ino = hl.create(&format!("/f{i}")).unwrap();
        hl.write(ino, 0, &patterned(1_000_000, i as u8)).unwrap();
        hl.sync().unwrap();
        hl.migrate_file(&format!("/f{i}"), false, None).unwrap();
        let mut tail = Default::default();
        hl.seal_staging(&mut tail).unwrap();
    }
    hl.eject_all();
    hl.drop_caches();
    // Read them all back: every segment demand fetches through at most
    // 3 lines.
    for i in 0..6 {
        let ino = hl.lookup(&format!("/f{i}")).unwrap();
        let mut buf = vec![0u8; 1_000_000];
        hl.read(ino, 0, &mut buf).unwrap();
        assert_eq!(buf, patterned(1_000_000, i as u8), "file {i}");
        hl.drop_caches();
    }
    assert!(hl.cache().borrow().capacity() <= 3, "cache grew past limit");
    assert!(hl.cache().borrow().stats().ejections >= 3);
}

#[test]
fn end_of_medium_relocates_staging_segment() {
    let rig = rig(32, 4, 8, 6);
    // Volume 0 "compresses badly": only 1 of its 8 slots really fits.
    rig.jukebox.set_effective_segments(0, 1);
    rig.mkfs();
    let mut hl = rig.mount();
    let a = patterned(900_000, 8);
    let b = patterned(900_000, 9);
    let ia = hl.create("/a").unwrap();
    let ib = hl.create("/b").unwrap();
    hl.write(ia, 0, &a).unwrap();
    hl.write(ib, 0, &b).unwrap();
    hl.sync().unwrap();
    let s1 = hl.migrate_file("/a", false, None).unwrap();
    let mut tail = Default::default();
    hl.seal_staging(&mut tail).unwrap();
    let s2 = hl.migrate_file("/b", false, None).unwrap();
    let mut tail2 = Default::default();
    hl.seal_staging(&mut tail2).unwrap();
    let _ = (s1, s2);
    let total_reloc = tail.relocations + tail2.relocations;
    assert!(
        total_reloc >= 1,
        "second copy-out should have hit end-of-medium"
    );
    // The relocation patched /b's indirect block in the buffer cache;
    // flushing it must retire the copy at its *relocated* address, not
    // the end-of-medium one (live bytes went negative there once).
    hl.sync().unwrap();
    let fsck = hl.fsck().unwrap();
    assert!(fsck.clean(), "{}", fsck.render());
    // Both files still read correctly after the relocation.
    hl.eject_all();
    hl.drop_caches();
    let mut back = vec![0u8; a.len()];
    hl.read(ia, 0, &mut back).unwrap();
    assert_eq!(back, a);
    hl.read(ib, 0, &mut back).unwrap();
    assert_eq!(back, b);
}

#[test]
fn tertiary_cleaner_reclaims_dead_volumes() {
    let rig = rig(40, 3, 4, 6);
    rig.mkfs();
    let mut hl = rig.mount();
    // Fill volume 0 with 4 files (one segment each), then delete 3.
    for i in 0..4 {
        let ino = hl.create(&format!("/v{i}")).unwrap();
        hl.write(ino, 0, &patterned(900_000, i as u8)).unwrap();
        hl.sync().unwrap();
        hl.migrate_file(&format!("/v{i}"), false, None).unwrap();
        let mut tail = Default::default();
        hl.seal_staging(&mut tail).unwrap();
    }
    for i in 0..3 {
        hl.unlink(&format!("/v{i}")).unwrap();
    }
    hl.sync().unwrap();

    let victim = highlight::tcleaner::select_victim_volume(&mut hl)
        .expect("volume 0 is full and mostly dead");
    assert_eq!(victim, 0);
    let report = highlight::tcleaner::clean_volume(&mut hl, victim).unwrap();
    assert!(report.segments_scanned >= 4);
    assert!(report.blocks_moved > 0, "the survivor moved");
    // The survivor file is intact (now on another volume).
    let ino = hl.lookup("/v3").unwrap();
    let mut back = vec![0u8; 900_000];
    hl.eject_all();
    hl.drop_caches();
    hl.read(ino, 0, &mut back).unwrap();
    assert_eq!(back, patterned(900_000, 3));
    // The victim volume is reusable.
    assert!(!hl.tseg().borrow().volume(0).full);
    assert_eq!(hl.tseg().borrow().volume(0).next_slot, 0);
}

#[test]
fn first_byte_delay_dominated_by_volume_swap() {
    // Table 3's story: ~3.5 s to first byte when the volume is loaded.
    let rig = rig(32, 4, 8, 6);
    rig.mkfs();
    let mut hl = rig.mount();
    let ino = hl.create("/d").unwrap();
    hl.write(ino, 0, &patterned(10 * 1024, 10)).unwrap();
    hl.sync().unwrap();
    hl.migrate_file("/d", false, None).unwrap();
    let mut tail = Default::default();
    hl.seal_staging(&mut tail).unwrap();
    // The copy-out left the volume in the drive; eject the cache copy.
    hl.eject_all();
    hl.drop_caches();
    let t0 = rig.clock.now();
    let mut one = [0u8; 1];
    hl.read(ino, 0, &mut one).unwrap();
    let first_byte = rig.clock.now() - t0;
    // No swap needed (volume already loaded): seek + 1 MB MO read +
    // 1 MB disk write + re-read ≈ 3.5 s.
    assert!(first_byte > 2 * SEC, "{first_byte}");
    assert!(first_byte < 8 * SEC, "{first_byte}");
}

#[test]
fn replicas_serve_reads_from_loaded_volumes() {
    let rig = rig(32, 4, 8, 6);
    rig.mkfs();
    let mut hl = rig.mount();
    hl.tio().set_replication(1);
    let data = patterned(900_000, 11);
    let ino = hl.create("/replicated").unwrap();
    hl.write(ino, 0, &data).unwrap();
    hl.sync().unwrap();
    hl.migrate_file("/replicated", false, None).unwrap();
    let mut tail = Default::default();
    hl.seal_staging(&mut tail).unwrap();
    assert_eq!(hl.tio().replicas().borrow().replicated_segments(), 1);

    // Fail the primary volume outright: the replica still serves the
    // data (a §10 media-failure survival scenario).
    let map = hl.map();
    let tseg = map.tert_seg(0, 0);
    let (primary_vol, _) = map.vol_slot(tseg).unwrap();
    rig.jukebox.fail_volume(primary_vol);
    hl.eject_all();
    hl.drop_caches();
    // Load the replica's volume so "closest" picks it (the primary is
    // dead; closest-by-load also avoids it once the replica is in a
    // drive). First touch any segment on volume 1 to load it.
    let homes = hl.tio().replicas().borrow().homes(&map, tseg);
    assert!(homes.len() >= 2, "replica missing: {homes:?}");
    let (rvol, _) = homes[1];
    let _ = rig.jukebox.read_segment_on(rig.clock.now(), 1, rvol, 0);

    let mut back = vec![0u8; data.len()];
    hl.read(ino, 0, &mut back).unwrap();
    assert_eq!(back, data, "replica read returned wrong data");
}

/// Rewrites the first summary of the segment stored at disk address
/// `at` so that it lists one inode block at `iaddr` — with both
/// checksums valid, so only a geometry check can reject it.
fn forge_inode_addr(disk: &Disk, at: u32, iaddr: u32) {
    use hl_lfs::ondisk::SegSummary;
    let mut blk = vec![0u8; hl_vdev::BLOCK_SIZE];
    disk.peek(at as u64, &mut blk).unwrap();
    let (mut summary, datasum) = SegSummary::decode(&blk).expect("a real summary");
    summary.inode_addrs = vec![iaddr];
    summary.encode(&mut blk, datasum);
    disk.poke(at as u64, &blk).unwrap();
}

/// A checksum-valid summary whose inode block address lies outside its
/// segment is `Corrupt` to every consumer of the shared walker. The
/// disk cleaner always said so; the tertiary cleaner and end-of-medium
/// relocation used to index the image with it unchecked.
#[test]
fn forged_inode_address_is_corrupt_to_both_cleaners_and_relocation() {
    use hl_lfs::config::AddressMap;
    use hl_lfs::ondisk::seg_flags;
    use hl_lfs::LfsError;

    let rig = rig(32, 4, 8, 6);
    rig.mkfs();
    let mut hl = rig.mount();
    let map = hl.map();
    // Enough log to retire the first segment, then one file migrated
    // (inode included) to a tertiary segment that stays cached.
    let filler = hl.create("/filler").unwrap();
    hl.write(filler, 0, &patterned(1_500_000, 1)).unwrap();
    let f = hl.create("/f").unwrap();
    hl.write(f, 0, &patterned(100_000, 2)).unwrap();
    hl.sync().unwrap();
    hl.migrate_file("/f", true, None).unwrap();
    hl.sync().unwrap();

    let is_corrupt = |r: Result<(), LfsError>| matches!(r, Err(LfsError::Corrupt(_)));

    // The disk cleaner, over a retired log segment.
    let victim = (0..hl.lfs().nsegs())
        .find(|&s| hl.lfs().seg_usage(s).flags == seg_flags::DIRTY)
        .expect("a retired log segment");
    for iaddr in [map.seg_base(victim) - 1, map.seg_base(victim + 1)] {
        forge_inode_addr(&rig.disk, map.seg_base(victim), iaddr);
        assert!(is_corrupt(hl.lfs().clean_segment(victim).map(|_| ())));
    }

    // The tertiary cleaner's scan, over the cached copy.
    let tseg = map.tert_seg(0, 0);
    let line = hl.cache().borrow().peek(tseg).copied().expect("cached");
    let line_at = map.seg_base(line.disk_seg);
    for iaddr in [
        map.seg_base(tseg) - 1,
        map.seg_base(tseg) + map.blocks_per_seg,
    ] {
        forge_inode_addr(&rig.disk, line_at, iaddr);
        assert!(is_corrupt(hl.lfs().live_items(tseg).map(|_| ())));
        assert!(is_corrupt(
            highlight::tcleaner::clean_volume(&mut hl, 0).map(|_| ())
        ));

        // End-of-medium relocation, handed the same image.
        let mut image = vec![0u8; map.blocks_per_seg as usize * hl_vdev::BLOCK_SIZE];
        rig.disk.peek(line_at as u64, &mut image).unwrap();
        let moved = hl
            .lfs()
            .relocate_tertiary_segment(&mut image, tseg, map.tert_seg(1, 0));
        assert!(is_corrupt(moved.map(|_| ())));
    }
}
