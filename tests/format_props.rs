//! Property tests on the on-media formats, the uniform address space,
//! directory blocks, and the access tracker.

use highlight::migrator::AccessTracker;
use highlight::{TsegTable, UniformMap};
use hl_lfs::config::AddressMap;
use hl_lfs::dir;
use hl_lfs::ondisk::{Checkpoint, Dinode, Finfo, IfileEntry, SegSummary, SegUse, CHECKPOINT_SLOT};
use hl_lfs::types::{FileKind, DINODE_SIZE, NDIRECT, UNASSIGNED};
use hl_lfs::Ufs;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_dinode() -> impl Strategy<Value = Dinode> {
    (
        any::<u16>(),
        1u16..1000,
        any::<u32>(),
        any::<u64>(),
        any::<u32>(),
        proptest::collection::vec(any::<u32>(), NDIRECT),
        any::<u32>(),
        any::<u32>(),
    )
        .prop_map(|(mode, nlink, inumber, size, gen, db, ib0, ib1)| {
            let mut d = Dinode::empty();
            d.mode = mode;
            d.nlink = nlink;
            d.inumber = inumber;
            d.size = size;
            d.gen = gen;
            d.db.copy_from_slice(&db);
            d.ib = [ib0, ib1];
            d
        })
}

fn arb_summary() -> impl Strategy<Value = SegSummary> {
    (
        any::<u32>(),
        any::<u64>(),
        proptest::collection::vec(
            (
                any::<u32>(),
                any::<u32>(),
                1u32..4097,
                proptest::collection::vec(-5i32..2000, 1..20),
            ),
            0..8,
        ),
        proptest::collection::vec(any::<u32>(), 0..8),
    )
        .prop_map(|(next, serial, finfos, inode_addrs)| {
            let mut s = SegSummary::new(next, serial);
            s.finfos = finfos
                .into_iter()
                .map(|(ino, version, lastlength, blocks)| Finfo {
                    ino,
                    version,
                    lastlength,
                    blocks,
                })
                .collect();
            s.inode_addrs = inode_addrs;
            s
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn dinode_round_trips(d in arb_dinode()) {
        let mut slot = [0u8; DINODE_SIZE];
        d.encode(&mut slot);
        prop_assert_eq!(Dinode::decode(&slot), d);
    }

    #[test]
    fn summary_round_trips_and_rejects_bitflips(
        s in arb_summary(),
        flip_at in 0usize..4096,
        flip_bit in 0u8..8,
    ) {
        let payload = vec![0x5au8; 64 * (s.data_blocks() + s.inode_addrs.len())];
        if !s.fits(4096) {
            return Ok(());
        }
        let mut buf = vec![0u8; 4096];
        s.encode(&mut buf, SegSummary::datasum_of(&payload));
        let (back, datasum) = SegSummary::decode(&buf).expect("decode");
        prop_assert_eq!(&back, &s);
        prop_assert_eq!(datasum, SegSummary::datasum_of(&payload));
        // Any single-bit flip must be detected (checksum) or be outside
        // the encoded region entirely (zero padding flips still break
        // ss_sumsum, which covers the whole block).
        let mut corrupt = buf.clone();
        corrupt[flip_at] ^= 1 << flip_bit;
        prop_assert!(SegSummary::decode(&corrupt).is_err());
    }

    #[test]
    fn checkpoint_round_trips(
        serial in any::<u64>(),
        log_serial in any::<u64>(),
        tert_serial in any::<u64>(),
        addr in any::<u32>(),
        seg in any::<u32>(),
        off in any::<u32>(),
        ts in any::<u64>(),
    ) {
        let c = Checkpoint {
            serial,
            log_serial,
            ifile_inode_addr: addr,
            next_seg: seg,
            next_off: off,
            timestamp: ts,
            tert_serial,
        };
        let mut slot = vec![0u8; CHECKPOINT_SLOT];
        c.encode(&mut slot);
        prop_assert_eq!(Checkpoint::decode(&slot), Some(c));
    }

    #[test]
    fn seguse_and_ifile_entries_round_trip(
        flags in any::<u32>(),
        live in any::<u32>(),
        avail in any::<u32>(),
        tag in any::<u32>(),
        ws in any::<u64>(),
        ft in any::<u64>(),
        version in any::<u32>(),
        daddr in any::<u32>(),
        free_next in any::<u32>(),
    ) {
        let u = SegUse { flags, live_bytes: live, avail_bytes: avail, cache_tag: tag, write_serial: ws, fetch_time: ft };
        let mut slot = [0u8; 32];
        u.encode(&mut slot);
        prop_assert_eq!(SegUse::decode(&slot), u);

        let e = IfileEntry { version, daddr, free_next };
        let mut slot = [0u8; 16];
        e.encode(&mut slot);
        prop_assert_eq!(IfileEntry::decode(&slot), e);
    }

    #[test]
    fn uniform_map_is_a_bijection(
        nsegs_disk in 4u32..5000,
        volumes in 1u32..64,
        spv in 1u32..256,
        probe in any::<u32>(),
    ) {
        let m = UniformMap::new(2, 256, nsegs_disk, volumes, spv);
        // Every (vol, slot) maps to a unique segment and back.
        let vol = probe % volumes;
        let slot = (probe / volumes) % spv;
        let seg = m.tert_seg(vol, slot);
        prop_assert_eq!(m.vol_slot(seg), Some((vol, slot)));
        prop_assert!(m.is_tertiary(seg));
        // Every block of that segment resolves to it.
        let base = m.seg_base(seg);
        prop_assert_eq!(m.seg_of(base), Some(seg));
        prop_assert_eq!(m.seg_of(base + 255), Some(seg));
        // Disk range and tertiary range never alias.
        prop_assert!(!m.is_secondary(seg));
        prop_assert!(m.is_secondary(nsegs_disk - 1));
        prop_assert!(!m.is_tertiary(nsegs_disk - 1));
    }

    #[test]
    fn tsegtable_round_trips(
        entries in proptest::collection::btree_map(any::<u32>(), 0u32..u32::MAX / 2, 0..50),
    ) {
        let mut t = TsegTable::new();
        for (&seg, &bytes) in &entries {
            t.add_live(seg, bytes as i64);
        }
        let back = TsegTable::decode(&t.encode());
        for (&seg, &bytes) in &entries {
            prop_assert_eq!(back.seg(seg).live_bytes, bytes);
        }
        prop_assert_eq!(back.live_total(), t.live_total());
    }

    #[test]
    fn dir_block_matches_btreemap_model(
        ops in proptest::collection::vec(
            ((0u8..20), any::<bool>()),
            1..60
        ),
    ) {
        let mut block = vec![0u8; 4096];
        dir::init_block(&mut block);
        let mut model: BTreeMap<String, u32> = BTreeMap::new();
        for (i, (name_id, insert)) in ops.into_iter().enumerate() {
            let name = format!("entry_{name_id}");
            if insert {
                if model.contains_key(&name) {
                    continue; // the FS layer prevents duplicate adds
                }
                let ino = i as u32 + 10;
                if dir::add(&mut block, &name, ino, FileKind::Regular).expect("add") {
                    model.insert(name, ino);
                }
            } else {
                let got = dir::remove(&mut block, &name);
                prop_assert_eq!(got, model.remove(&name), "remove {}", name);
            }
        }
        // Full agreement at the end.
        let listed: BTreeMap<String, u32> = dir::entries(&block)
            .into_iter()
            .map(|e| (e.name, e.ino))
            .collect();
        prop_assert_eq!(listed, model);
    }

    #[test]
    fn tracker_extents_stay_disjoint_sorted_and_covering(
        accesses in proptest::collection::vec(
            (0u64..2_000_000, 1u64..100_000, 0u64..1_000_000_000),
            1..80
        ),
    ) {
        let mut t = AccessTracker::default();
        t.max_extents = 8;
        let mut max_end = 0u32;
        for (off, len, now) in accesses {
            t.record(1, off, len, now);
            max_end = max_end.max(((off + len).div_ceil(4096)) as u32);
            let ex = t.extents(1);
            prop_assert!(!ex.is_empty());
            prop_assert!(ex.len() <= 8, "extent bound violated: {}", ex.len());
            for w in ex.windows(2) {
                prop_assert!(w[0].end <= w[1].start, "overlap/sort violated");
            }
            for e in ex {
                prop_assert!(e.start < e.end, "empty extent");
            }
        }
        // Coverage: the furthest block ever touched is inside an extent.
        let ex = t.extents(1);
        prop_assert!(ex.iter().any(|e| e.end >= max_end), "tail coverage lost");
    }
}

/// `UNASSIGNED` never collides with a real tertiary block address.
#[test]
fn unassigned_is_out_of_band() {
    let m = UniformMap::new(2, 256, 848, 32, 40);
    assert_eq!(m.seg_of(UNASSIGNED), None);
}

// ---------------------------------------------------------------------------
// Builder ↔ walker: what the system lays out in a partial segment is
// exactly what a walk of the raw media recovers.
// ---------------------------------------------------------------------------

mod partials {
    use std::rc::Rc;

    use highlight::{HighLight, HlConfig};
    use hl_footprint::{Footprint, Jukebox, JukeboxConfig};
    use hl_lfs::config::AddressMap;
    use hl_lfs::migrate::MigrateItem;
    use hl_lfs::ondisk::{seg_flags, Dinode, SegSummary};
    use hl_lfs::recovery::RecoveryReport;
    use hl_lfs::types::{BlockAddr, Ino, LBlock, DINODE_SIZE, INODES_PER_BLOCK};
    use hl_sim::Clock;
    use hl_vdev::{BlockDev, Disk, DiskProfile, BLOCK_SIZE};

    /// Small geometry so random mixes straddle both limits: a 32-block
    /// segment fills after 31 payload blocks, a 256-byte summary after
    /// 11 one-block files (28 + 11 × 20 = 248).
    pub const BPS: u32 = 32;
    pub const SUMMARY_BYTES: usize = 256;
    const DISK_SEGS: u32 = 96;
    const VOLUMES: u32 = 2;
    const SLOTS: u32 = 24;

    pub struct Rig {
        pub disk: Rc<Disk>,
        pub jukebox: Jukebox,
        clock: Clock,
    }

    impl Rig {
        pub fn new() -> Rig {
            Rig {
                disk: Rc::new(Disk::new(
                    DiskProfile::RZ57,
                    2 + u64::from(DISK_SEGS * BPS),
                    None,
                )),
                jukebox: Jukebox::new(
                    JukeboxConfig {
                        volumes: VOLUMES,
                        segments_per_volume: SLOTS,
                        segment_bytes: BPS as usize * BLOCK_SIZE,
                        ..JukeboxConfig::hp6300_paper()
                    },
                    None,
                ),
                clock: Clock::new(),
            }
        }

        fn cfg(&self) -> HlConfig {
            let mut cfg = HlConfig::paper(self.clock.clone(), 6);
            cfg.lfs.seg_bytes = BPS * BLOCK_SIZE as u32;
            cfg.lfs.summary_bytes = SUMMARY_BYTES as u32;
            cfg
        }

        pub fn mkfs_and_mount(&self) -> HighLight {
            let disk = self.disk.clone() as Rc<dyn BlockDev>;
            let jukebox = Rc::new(self.jukebox.clone());
            HighLight::mkfs(disk, jukebox, self.cfg()).expect("mkfs");
            self.remount().expect("mount").0
        }

        /// Mounts what is on the media, as after a crash.
        pub fn remount(&self) -> hl_lfs::error::Result<(HighLight, RecoveryReport)> {
            let disk = self.disk.clone() as Rc<dyn BlockDev>;
            HighLight::mount_with_report(disk, Rc::new(self.jukebox.clone()), self.cfg())
        }

        /// Raw image of disk segment `seg`.
        pub fn disk_segment(&self, base: BlockAddr) -> Vec<u8> {
            let mut image = vec![0u8; BPS as usize * BLOCK_SIZE];
            self.disk.peek(u64::from(base), &mut image).expect("peek");
            image
        }

        /// Raw images of the written jukebox slots, in `(vol, slot)` order.
        pub fn written_slots(&self) -> Vec<(u32, u32, Vec<u8>)> {
            let mut out = Vec::new();
            for vol in 0..VOLUMES {
                for slot in 0..SLOTS {
                    if self.jukebox.segment_written(vol, slot) {
                        let mut image = vec![0u8; BPS as usize * BLOCK_SIZE];
                        self.jukebox
                            .peek_segment(vol, slot, &mut image)
                            .expect("peek media");
                        out.push((vol, slot, image));
                    }
                }
            }
            out
        }
    }

    /// One partial as an independent reading of the raw bytes sees it.
    pub struct RefPartial {
        pub serial: u64,
        /// `(ino, lastlength, logical block, address)` per file block.
        pub blocks: Vec<(Ino, u32, LBlock, BlockAddr)>,
        /// `(inode-block address, dinode)` per occupied inode slot.
        pub inodes: Vec<(BlockAddr, Dinode)>,
    }

    impl RefPartial {
        /// The partial's contents as migration items, in media order.
        pub fn items(&self) -> Vec<MigrateItem> {
            self.blocks
                .iter()
                .map(|&(ino, _, lb, _)| MigrateItem::Block(ino, lb))
                .chain(
                    self.inodes
                        .iter()
                        .map(|(_, d)| MigrateItem::Inode(d.inumber)),
                )
                .collect()
        }
    }

    /// The reference walk, written against the format rather than the
    /// library's walker (but on the library's field decoders and its
    /// `cksum`): summary block, then the FINFO-described file blocks in
    /// order, then the inode blocks; stop at the first summary that does
    /// not verify, whose serial does not increase or — first partial
    /// only — is below `floor`. Every structural promise is asserted on
    /// the way.
    pub fn ref_walk(
        image: &[u8],
        base: BlockAddr,
        summary_bytes: usize,
        floor: u64,
    ) -> Vec<RefPartial> {
        let bps = (image.len() / BLOCK_SIZE) as u32;
        let mut out: Vec<RefPartial> = Vec::new();
        let mut off = 0u32;
        while off + 1 < bps {
            let sum = &image[off as usize * BLOCK_SIZE..][..summary_bytes];
            let Ok((summary, datasum)) = SegSummary::decode(sum) else {
                break;
            };
            let stale = match out.last() {
                Some(prev) => summary.serial <= prev.serial,
                None => summary.serial < floor,
            };
            if stale {
                break;
            }
            assert!(summary.fits(summary_bytes), "summary over its limit");
            let ndata = summary.data_blocks() as u32;
            let nblocks = ndata + summary.inode_addrs.len() as u32;
            assert!(nblocks > 0, "empty partial written");
            assert!(off + 1 + nblocks <= bps, "partial overruns its segment");
            let payload =
                &image[(off as usize + 1) * BLOCK_SIZE..][..nblocks as usize * BLOCK_SIZE];
            assert_eq!(SegSummary::datasum_of(payload), datasum, "datasum");

            let mut blocks = Vec::new();
            let mut addr = base + off + 1;
            for fi in &summary.finfos {
                assert!(!fi.blocks.is_empty(), "FINFO without blocks");
                for &lbn in &fi.blocks {
                    blocks.push((fi.ino, fi.lastlength, LBlock::decode(i64::from(lbn)), addr));
                    addr += 1;
                }
            }
            let mut inodes = Vec::new();
            for (i, &iaddr) in summary.inode_addrs.iter().enumerate() {
                assert_eq!(
                    iaddr,
                    base + off + 1 + ndata + i as u32,
                    "inode block position"
                );
                let blk = &payload[(ndata as usize + i) * BLOCK_SIZE..][..BLOCK_SIZE];
                for slot in 0..INODES_PER_BLOCK {
                    let d = Dinode::decode(&blk[slot * DINODE_SIZE..]);
                    if d.nlink != 0 && d.inumber != 0 {
                        inodes.push((iaddr, d));
                    }
                }
            }
            out.push(RefPartial {
                serial: summary.serial,
                blocks,
                inodes,
            });
            off += 1 + nblocks;
        }
        out
    }

    /// Every log partial on the disk, segment by segment.
    pub fn walk_log(rig: &Rig, hl: &mut HighLight) -> Vec<RefPartial> {
        let map = hl.map();
        let mut out = Vec::new();
        for seg in 0..hl.lfs().nsegs() {
            let flags = hl.lfs().seg_usage(seg).flags;
            if flags & seg_flags::CACHE == 0 && flags & (seg_flags::DIRTY | seg_flags::ACTIVE) != 0
            {
                let base = map.seg_base(seg);
                let floor = hl.lfs().seg_usage(seg).write_serial;
                let image = rig.disk_segment(base);
                let partials = ref_walk(&image, base, SUMMARY_BYTES, floor);
                let raw = super::tree::segment_partials(&image, base, SUMMARY_BYTES, floor);
                super::tree::assert_same_partials(&raw, &partials);
                out.extend(partials);
            }
        }
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random file mixes — mostly one-block files (runs of 11 fill a
    /// summary before the segment), some larger than a segment, inodes
    /// included or not, migrated a few files per call or all in one —
    /// go through the log writer and then the migrator;
    /// an independent walk of the raw disk and media bytes must recover
    /// exactly the blocks and inodes each builder was given, and the
    /// library's own live scan of every tertiary segment must agree with
    /// that walk item for item.
    #[test]
    fn walker_recovers_exactly_what_the_builders_were_given(
        files in proptest::collection::vec(
            (prop_oneof![8 => Just(1u32), 2 => 2u32..45], 0u32..4096, any::<bool>()),
            1..48,
        ),
        batch in prop_oneof![1 => 1usize..6, 1 => Just(48usize)],
    ) {
        use hl_lfs::config::AddressMap;
        use hl_lfs::migrate::MigrateItem;
        use hl_lfs::types::LBlock;
        use partials::{ref_walk, walk_log, Rig, SUMMARY_BYTES};

        let rig = Rig::new();
        let mut hl = rig.mkfs_and_mount();

        // --- The log writer -------------------------------------------
        let mut inos = Vec::new();
        for (i, &(blocks, tail, _)) in files.iter().enumerate() {
            let len = (blocks as usize - 1) * 4096 + 1 + tail as usize;
            let ino = hl.create(&format!("/f{i}")).expect("create");
            hl.write(ino, 0, &vec![i as u8 ^ 0x5a; len]).expect("write");
            inos.push((ino, len));
        }
        hl.sync().expect("sync");
        let log = walk_log(&rig, &mut hl);
        for &(ino, len) in &inos {
            let expect: Vec<LBlock> = hl
                .lfs()
                .whole_file_items(ino, false)
                .expect("items")
                .into_iter()
                .map(|it| match it {
                    MigrateItem::Block(_, lb) => lb,
                    MigrateItem::Inode(_) => unreachable!("not requested"),
                })
                .collect();
            prop_assert_eq!(expect.len(), len.div_ceil(4096) + usize::from(len > 12 * 4096));
            let reqs: Vec<_> = expect.iter().map(|&lb| (ino, lb)).collect();
            let addrs = hl.lfs().bmapv(&reqs).expect("bmapv");
            let last = LBlock::Data((len.div_ceil(4096) - 1) as u32);
            for (&lb, &addr) in expect.iter().zip(&addrs) {
                let hits: Vec<_> = log
                    .iter()
                    .flat_map(|p| &p.blocks)
                    .filter(|b| b.0 == ino && b.2 == lb && b.3 == addr)
                    .collect();
                prop_assert_eq!(hits.len(), 1, "ino {} {:?} at {}", ino, lb, addr);
                if lb == last {
                    prop_assert_eq!(hits[0].1 as usize, len - (len - 1) / 4096 * 4096);
                }
            }
            // The newest inode copy in the log carries the final size.
            let newest = log
                .iter()
                .filter(|p| p.inodes.iter().any(|(_, d)| d.inumber == ino))
                .max_by_key(|p| p.serial)
                .expect("inode written");
            let d = newest.inodes.iter().find(|(_, d)| d.inumber == ino).expect("slot").1;
            prop_assert_eq!(d.size as usize, len);
        }

        // --- The migrator ---------------------------------------------
        let mut given: Vec<MigrateItem> = Vec::new();
        for chunk in inos.chunks(batch).zip(files.chunks(batch)) {
            let mut items = Vec::new();
            for (&(ino, _), &(_, _, inode)) in chunk.0.iter().zip(chunk.1) {
                items.extend(hl.lfs().whole_file_items(ino, inode).expect("items"));
            }
            let stats = hl.migrate_items(&items, None).expect("migrate");
            prop_assert_eq!(
                stats.blocks as usize + stats.inodes as usize,
                items.len(),
                "every stable item moves"
            );
            given.extend(items);
        }
        hl.sync().expect("sync seals and copies out");

        let map = hl.map();
        let mut recovered: Vec<MigrateItem> = Vec::new();
        for (vol, slot, image) in rig.written_slots() {
            let seg = map.tert_seg(vol, slot);
            let partials = ref_walk(&image, map.seg_base(seg), SUMMARY_BYTES, 0);
            prop_assert!(!partials.is_empty(), "written slot without a partial");
            // The reader that shares no code with the library sees the
            // same partials, and both checksums of each verify.
            let raw = tree::segment_partials(&image, map.seg_base(seg), SUMMARY_BYTES, 0);
            tree::assert_same_partials(&raw, &partials);
            let on_media: Vec<MigrateItem> = partials.iter().flat_map(|p| p.items()).collect();
            for &(ino, lastlength, lb, _) in partials.iter().flat_map(|p| &p.blocks) {
                let len = inos.iter().find(|f| f.0 == ino).expect("a test file").1;
                if lb == LBlock::Data((len.div_ceil(4096) - 1) as u32) {
                    prop_assert_eq!(lastlength as usize, len - (len - 1) / 4096 * 4096);
                }
            }
            // Nothing has been overwritten since, so everything on the
            // media is live and the library's scan must list all of it.
            let live = hl.lfs().live_items(seg).expect("scan");
            prop_assert_eq!(&live, &on_media, "library scan of v{} s{}", vol, slot);
            recovered.extend(on_media);
        }
        // Within a partial inodes follow all file blocks, so compare the
        // two kinds as separate sequences.
        let split = |items: &[MigrateItem]| -> (Vec<MigrateItem>, Vec<MigrateItem>) {
            items.iter().partition(|it| matches!(it, MigrateItem::Block(..)))
        };
        prop_assert_eq!(split(&recovered), split(&given));
    }
}

// ---------------------------------------------------------------------------
// The block-pointer tree: the library's one enumeration (`hl_lfs::ptree`)
// against an independent walk of the raw device bytes and against the
// live-byte audit.
//
// Seen to go red, each sabotage planted in `crates/lfs/src/ptree.rs`
// alone and reverted (the deep script in `golden_image.rs`, the `hl-ffs`
// image pin and `ptree`'s unit tests go red with it every time):
//   * `home`: single-indirect range one block too long (block 1 036
//     sent to `Ind1` slot 1 024) — out-of-range slot panic on the first
//     write there.
//   * the double-indirect range starting at 1 037 everywhere (`home`
//     and the enumeration shifted alike, so the library agrees with
//     itself) — pointer maps diverge from the raw walk.
//   * `home`: child index computed from the wrong base (`l − 12`, not
//     `l − 1 036`) — pointer maps diverge (blocks land under child k+1).
//   * `blocks`: `Ind2Child`ren dropped from the enumeration — pointer
//     maps diverge (no −3−k positions; truncate and unlink leak them).
//   * `blocks`: `Ind2` listed before its children — truncate clears the
//     root first and strands the children: "segment 0 live bytes".
//   * `slots` ignoring the file size (always 1 024) — no pointer block
//     is ever newly owned: a 13-block file lists no `Ind1`.
//   * `slots(Ind2, n)` rounding down — the last, partly used child is
//     never listed: pointer maps diverge.
//   * a `panic!` in `home`'s double-indirect arm — this test, the deep
//     script, the `hl-ffs` pin and five `lfs_smoke` tests.
//
// The raw walk is the repository's independent reader of the on-media
// format (ROADMAP item 5): written from DESIGN.md §6a, sharing no code
// with `ondisk.rs` / `partial.rs` — its own field offsets, its own stop
// rules, its own `cksum` — it verifies the superblock, both checkpoint
// slots and both sums of every partial of every segment, replays the log
// as a mount would, and is compared with the library wherever the two
// can be asked the same question.
// ---------------------------------------------------------------------------

mod tree {
    use std::collections::BTreeMap;
    use std::rc::Rc;

    use hl_lfs::types::{BlockAddr, Ino};
    use hl_lfs::{Lfs, LfsConfig, LinearMap, NoTertiary};
    use hl_sim::Clock;
    use hl_vdev::{BlockDev, Disk, DiskProfile};

    pub const BS: usize = 4096;
    pub const UNASSIGNED: u32 = 0xffff_ffff;
    const SEGS: u32 = 24;

    pub struct Rig {
        pub disk: Rc<Disk>,
        pub map: LinearMap,
    }

    impl Rig {
        pub fn new() -> Rig {
            let nblocks = 2 + u64::from(SEGS) * 256;
            Rig {
                disk: Rc::new(Disk::new(DiskProfile::RZ57, nblocks, None)),
                map: LinearMap::for_device(nblocks, 256, 2),
            }
        }

        pub fn mkfs_and_mount(&self) -> Lfs {
            let cfg = LfsConfig::base(Clock::new());
            let (dev, map) = (self.disk.clone(), Rc::new(self.map));
            Lfs::mkfs(dev, map, Rc::new(NoTertiary), cfg).expect("mkfs");
            self.remount().expect("mount")
        }

        pub fn remount(&self) -> Result<Lfs, hl_lfs::LfsError> {
            let cfg = LfsConfig::base(Clock::new());
            Lfs::mount(
                self.disk.clone(),
                Rc::new(self.map),
                Rc::new(NoTertiary),
                cfg,
            )
        }
    }

    /// `n` blocks of the raw device from `addr`.
    fn blocks(disk: &Disk, addr: BlockAddr, n: u32) -> Vec<u8> {
        let mut image = vec![0u8; n as usize * BS];
        disk.peek(u64::from(addr), &mut image).expect("peek");
        image
    }

    fn block(disk: &Disk, addr: BlockAddr) -> Vec<u8> {
        blocks(disk, addr, 1)
    }

    fn u16_at(b: &[u8], off: usize) -> u16 {
        u16::from_le_bytes(b[off..off + 2].try_into().expect("2 bytes"))
    }

    fn u32_at(b: &[u8], off: usize) -> u32 {
        u32::from_le_bytes(b[off..off + 4].try_into().expect("4 bytes"))
    }

    fn u64_at(b: &[u8], off: usize) -> u64 {
        u64::from_le_bytes(b[off..off + 8].try_into().expect("8 bytes"))
    }

    /// The format generation this reader understands: the last byte of
    /// the superblock magic. It names the checksum below, so the two
    /// change together and nothing else in the reader does.
    const FORMAT: u8 = b'2';

    /// DESIGN.md §6a "Checksum", one word at a time: `step(a, x) =
    /// (rotl(a, 31) + x) · M`; word `w` (little-endian, the last one
    /// zero-padded) plus its index goes into lane `w mod 4`; the lanes
    /// are folded in order onto the byte length; high half XOR low half.
    pub fn cksum(bytes: &[u8]) -> u32 {
        const M: u64 = 0x9e37_79b9_7f4a_7c15;
        let step = |a: u64, x: u64| a.rotate_left(31).wrapping_add(x).wrapping_mul(M);
        let mut lanes: Vec<u64> = (0..4).map(|k| 0x6c66_7332 + k).collect();
        for w in 0..bytes.len().div_ceil(8) {
            let word = (0..8).fold(0u64, |v, j| {
                v | u64::from(bytes.get(8 * w + j).copied().unwrap_or(0)) << (8 * j)
            });
            lanes[w % 4] = step(lanes[w % 4], word.wrapping_add(w as u64));
        }
        let h = lanes
            .iter()
            .fold(bytes.len() as u64, |h, &lane| step(h, lane));
        ((h >> 32) ^ (h & 0xffff_ffff)) as u32
    }

    /// The geometry block 0 declares.
    pub struct RawSuper {
        /// Blocks per segment.
        pub bps: u32,
        pub nsegs: u32,
        pub seg_start: BlockAddr,
        pub summary_bytes: usize,
    }

    impl RawSuper {
        pub fn seg_base(&self, seg: u32) -> BlockAddr {
            self.seg_start + seg * self.bps
        }
    }

    /// Block 0, if it carries this format's magic and its sum verifies.
    pub fn superblock(disk: &Disk) -> Option<RawSuper> {
        let b = block(disk, 0);
        let magic = u64::from_be_bytes([b'H', b'G', b'L', b'I', b'L', b'F', b'S', FORMAT]);
        (u64_at(&b, 0) == magic && cksum(&b[..48]) == u32_at(&b, 48)).then(|| RawSuper {
            bps: u32_at(&b, 12) / BS as u32,
            nsegs: u32_at(&b, 16),
            seg_start: u32_at(&b, 20),
            summary_bytes: u32_at(&b, 24) as usize,
        })
    }

    /// One checkpoint slot whose sum verified.
    #[derive(Clone, Copy)]
    pub struct RawCkpt {
        pub serial: u64,
        pub log_serial: u64,
        pub ifile_inode_addr: BlockAddr,
        pub next_seg: u32,
        pub next_off: u32,
    }

    /// Both slots of block 1; `None` where the sum does not verify.
    pub fn checkpoint_slots(disk: &Disk) -> [Option<RawCkpt>; 2] {
        let b = block(disk, 1);
        [0, 2048].map(|at| {
            let s = &b[at..at + 2048];
            (cksum(&s[..44]) == u32_at(s, 44)).then(|| RawCkpt {
                serial: u64_at(s, 0),
                log_serial: u64_at(s, 8),
                ifile_inode_addr: u32_at(s, 16),
                next_seg: u32_at(s, 20),
                next_off: u32_at(s, 24),
            })
        })
    }

    /// The slot a mount starts from.
    pub fn newest_checkpoint(disk: &Disk) -> RawCkpt {
        checkpoint_slots(disk)
            .into_iter()
            .flatten()
            .max_by_key(|c| c.serial)
            .expect("a valid checkpoint")
    }

    /// One partial whose `ss_sumsum` verified and whose layout fits.
    pub struct RawPartial {
        /// Address of the summary block.
        pub addr: BlockAddr,
        pub serial: u64,
        /// `ss_next`.
        pub next: BlockAddr,
        /// Blocks after the summary.
        pub nblocks: u32,
        /// Whether `ss_datasum` matches the payload as it is on the media.
        pub datasum_ok: bool,
        /// `(ino, signed lbn, address)` per file block, in media order.
        pub blocks: Vec<(Ino, i32, BlockAddr)>,
        /// `(inode-block address, inumber)` per occupied dinode slot.
        pub inodes: Vec<(BlockAddr, Ino)>,
    }

    /// The partial whose summary is block `off` of the segment `image`
    /// based at `base` (DESIGN.md §6a "Partial segment"): `None` if
    /// `ss_sumsum` fails, the summary describes more than the segment
    /// has left, or an inode block is listed anywhere but its packed
    /// position.
    fn partial_at(
        image: &[u8],
        base: BlockAddr,
        off: u32,
        summary_bytes: usize,
    ) -> Option<RawPartial> {
        let bps = (image.len() / BS) as u32;
        let sum = &image[off as usize * BS..][..summary_bytes];
        if cksum(&sum[4..]) != u32_at(sum, 0) {
            return None;
        }
        let addr = base + off;
        let (nfinfo, ninos) = (u16_at(sum, 20), u32::from(u16_at(sum, 22)));
        let mut blocks = Vec::new();
        let mut at = 28;
        for _ in 0..nfinfo {
            if at + 16 > summary_bytes {
                return None;
            }
            let (n, ino) = (u32_at(sum, at) as usize, u32_at(sum, at + 8));
            at += 16;
            if at + 4 * n > summary_bytes {
                return None;
            }
            for j in 0..n {
                let lbn = u32_at(sum, at + 4 * j) as i32;
                blocks.push((ino, lbn, addr + 1 + blocks.len() as u32));
            }
            at += 4 * n;
        }
        let ndata = blocks.len() as u32;
        let nblocks = ndata + ninos;
        if nblocks == 0 || off + 1 + nblocks > bps || at + 4 * ninos as usize > summary_bytes {
            return None;
        }
        let payload = &image[(off as usize + 1) * BS..][..nblocks as usize * BS];
        let mut inodes = Vec::new();
        for k in 0..ninos {
            let iaddr = addr + 1 + ndata + k;
            if u32_at(sum, summary_bytes - 4 * (k as usize + 1)) != iaddr {
                return None;
            }
            for d in payload[(ndata + k) as usize * BS..][..BS].chunks(128) {
                if u16_at(d, 2) != 0 && u32_at(d, 4) != 0 {
                    inodes.push((iaddr, u32_at(d, 4)));
                }
            }
        }
        Some(RawPartial {
            addr,
            serial: u64_at(sum, 12),
            next: u32_at(sum, 8),
            nblocks,
            datasum_ok: cksum(payload) == u32_at(sum, 4),
            blocks,
            inodes,
        })
    }

    /// The partials of one segment under the walker's stop rules: the
    /// first summary that does not verify ends it, as does a serial that
    /// does not exceed the previous partial's or — first partial only —
    /// is below `floor`.
    pub fn segment_partials(
        image: &[u8],
        base: BlockAddr,
        summary_bytes: usize,
        floor: u64,
    ) -> Vec<RawPartial> {
        let bps = (image.len() / BS) as u32;
        let mut out: Vec<RawPartial> = Vec::new();
        let mut off = 0;
        while off + 2 <= bps {
            let Some(p) = partial_at(image, base, off, summary_bytes) else {
                break;
            };
            let stale = match out.last() {
                Some(prev) => p.serial <= prev.serial,
                None => p.serial < floor,
            };
            if stale {
                break;
            }
            off += 1 + p.nblocks;
            out.push(p);
        }
        out
    }

    /// DESIGN.md §6a "Reading a filesystem": the partials a mount replays
    /// past checkpoint `c` — exact serial chain from `(next_seg,
    /// next_off)`, both sums verifying, `ss_next` followed when fewer
    /// than two blocks remain in the segment.
    pub fn roll_forward(disk: &Disk, sb: &RawSuper, c: &RawCkpt) -> Vec<RawPartial> {
        let (mut seg, mut off, mut serial) = (c.next_seg, c.next_off, c.log_serial);
        let mut out = Vec::new();
        while off + 2 <= sb.bps {
            let image = blocks(disk, sb.seg_base(seg), sb.bps);
            let Some(p) = partial_at(&image, sb.seg_base(seg), off, sb.summary_bytes) else {
                break;
            };
            if p.serial != serial || !p.datasum_ok {
                break;
            }
            serial += 1;
            off += 1 + p.nblocks;
            if off + 2 > sb.bps {
                let next = p.next.wrapping_sub(sb.seg_start) / sb.bps;
                if p.next < sb.seg_start || next >= sb.nsegs {
                    out.push(p);
                    break;
                }
                (seg, off) = (next, 0);
            }
            out.push(p);
        }
        out
    }

    /// The library-based reference walk (`partials::ref_walk`) and this
    /// reader saw the same partials, and none of them is torn.
    pub fn assert_same_partials(raw: &[RawPartial], lib: &[super::partials::RefPartial]) {
        assert_eq!(
            raw.iter().map(|p| p.serial).collect::<Vec<_>>(),
            lib.iter().map(|p| p.serial).collect::<Vec<_>>(),
            "accepted partials"
        );
        for (r, l) in raw.iter().zip(lib) {
            assert!(r.datasum_ok, "partial {} is torn", r.serial);
            let lib_blocks: Vec<_> = l
                .blocks
                .iter()
                .map(|&(ino, _, lb, addr)| (ino, lb.encode() as i32, addr))
                .collect();
            assert_eq!(r.blocks, lib_blocks, "partial {} file blocks", r.serial);
            let lib_inodes: Vec<_> = l.inodes.iter().map(|(a, d)| (*a, d.inumber)).collect();
            assert_eq!(r.inodes, lib_inodes, "partial {} inodes", r.serial);
        }
    }

    /// One file as the raw bytes describe it.
    pub struct RawFile {
        /// Address of the inode block holding the dinode.
        pub daddr: BlockAddr,
        pub size: u64,
        /// The dinode's `blocks` field.
        pub blocks: u32,
        /// Every position the file owns at its size — signed lbn as in a
        /// FINFO — with the pointer stored there (holes included; under
        /// an absent pointer block everything is a hole).
        pub ptrs: BTreeMap<i64, BlockAddr>,
    }

    /// The 128-byte dinode of `ino` in the inode block at `daddr`.
    fn dinode(disk: &Disk, daddr: BlockAddr, ino: Ino) -> Option<Vec<u8>> {
        let blk = block(disk, daddr);
        blk.chunks(128)
            .find(|d| u32_at(d, 4) == ino && u16_at(d, 2) != 0)
            .map(<[u8]>::to_vec)
    }

    /// DESIGN.md §6a "Block-pointer tree", by hand: `db` covers blocks
    /// 0..12, `ib[0]` 12..1 036, child `k` of `ib[1]` 1 036 + 1 024·k
    /// onwards; only slots below the file's block count are valid.
    fn walk_tree(disk: &Disk, daddr: BlockAddr, d: &[u8]) -> RawFile {
        let size = u64_at(d, 8);
        let n = size.div_ceil(BS as u64);
        let mut ptrs = BTreeMap::new();
        // An absent pointer block reads as all holes.
        let slots_of = |addr: BlockAddr| -> Vec<BlockAddr> {
            if addr == UNASSIGNED {
                return vec![UNASSIGNED; 1024];
            }
            let blk = block(disk, addr);
            (0..1024).map(|i| u32_at(&blk, i * 4)).collect()
        };
        for l in 0..n.min(12) {
            ptrs.insert(l as i64, u32_at(d, 52 + 4 * l as usize));
        }
        if n > 12 {
            let ind1 = u32_at(d, 100);
            ptrs.insert(-1, ind1);
            for (i, &p) in slots_of(ind1)
                .iter()
                .take((n - 12).min(1024) as usize)
                .enumerate()
            {
                ptrs.insert(12 + i as i64, p);
            }
        }
        if n > 1036 {
            let ind2 = u32_at(d, 104);
            ptrs.insert(-2, ind2);
            let nchildren = (n - 1036).div_ceil(1024);
            for (k, &child) in slots_of(ind2).iter().take(nchildren as usize).enumerate() {
                ptrs.insert(-3 - k as i64, child);
                let first = 1036 + 1024 * k as u64;
                for (i, &p) in slots_of(child)
                    .iter()
                    .take((n - first).min(1024) as usize)
                    .enumerate()
                {
                    ptrs.insert((first + i as u64) as i64, p);
                }
            }
        }
        RawFile {
            daddr,
            size,
            blocks: u32_at(d, 48),
            ptrs,
        }
    }

    /// A checkpointed image read from raw bytes: superblock → newest
    /// valid checkpoint slot → ifile dinode → inode map → every allocated
    /// inode's dinode → its pointer tree. On the way every sum the image
    /// carries is verified with this module's own `cksum`: the
    /// superblock's, both checkpoint slots' (each must agree with the
    /// library on whether it is valid), and `ss_sumsum` + `ss_datasum` of
    /// every partial of every segment, which must be the partials the
    /// library-based reference walk accepts and must between them hold
    /// every block and inode the pointer trees reach, where a FINFO or an
    /// inode-block slot says so.
    pub fn raw_walk(disk: &Disk) -> BTreeMap<Ino, RawFile> {
        use hl_lfs::ondisk::Checkpoint;

        let sb = superblock(disk).expect("superblock magic and sum");
        let ckpt_block = block(disk, 1);
        for (i, slot) in checkpoint_slots(disk).iter().enumerate() {
            let lib = Checkpoint::decode(&ckpt_block[i * 2048..][..2048]);
            assert_eq!(slot.map(|c| c.serial), lib.map(|c| c.serial), "slot {i}");
        }
        let ifile_daddr = newest_checkpoint(disk).ifile_inode_addr;
        let ifile = walk_tree(
            disk,
            ifile_daddr,
            &dinode(disk, ifile_daddr, 1).expect("ifile dinode"),
        );
        let ifile_block = |l: i64| block(disk, ifile.ptrs[&l]);
        let head = ifile_block(0);
        let (ninodes, nsegs) = (u32_at(&head, 8), u32_at(&head, 12));
        assert_eq!(nsegs, sb.nsegs, "ifile and superblock segment counts");
        let imap_start = 1 + i64::from(nsegs.div_ceil(128));

        let mut files = BTreeMap::new();
        for ino in 2..ninodes {
            let ent = &ifile_block(imap_start + i64::from(ino / 256))[(ino % 256) as usize * 16..];
            let daddr = u32_at(ent, 4);
            // Free, or migrated with its inode: a tertiary address, whose
            // bytes are on a medium or in a cache line, not at `daddr`.
            if daddr >= sb.seg_base(sb.nsegs) {
                continue;
            }
            if let Some(d) = dinode(disk, daddr, ino) {
                files.insert(ino, walk_tree(disk, daddr, &d));
            }
        }
        files.insert(1, ifile);

        // Every segment's partials (a cache line holds a tertiary
        // segment's image: its addresses are not this segment's).
        let mut on_media: BTreeMap<BlockAddr, (Ino, i64)> = BTreeMap::new();
        let mut inode_homes = Vec::new();
        for seg in 0..sb.nsegs {
            let usage = &files[&1].ptrs[&(1 + i64::from(seg / 128))];
            let entry = &block(disk, *usage)[(seg % 128) as usize * 32..][..32];
            let (flags, floor) = (u32_at(entry, 0), u64_at(entry, 16));
            if flags & 4 != 0 {
                continue;
            }
            let image = blocks(disk, sb.seg_base(seg), sb.bps);
            let raw = segment_partials(&image, sb.seg_base(seg), sb.summary_bytes, floor);
            let lib = super::partials::ref_walk(&image, sb.seg_base(seg), sb.summary_bytes, floor);
            assert_same_partials(&raw, &lib);
            for p in raw {
                on_media.extend(
                    p.blocks
                        .iter()
                        .map(|&(ino, lbn, a)| (a, (ino, i64::from(lbn)))),
                );
                inode_homes.extend(p.inodes);
            }
        }
        for (&ino, file) in &files {
            assert!(
                inode_homes.contains(&(file.daddr, ino)),
                "ino {ino}: no partial holds its dinode"
            );
            for (&lbn, &addr) in file.ptrs.iter().filter(|(_, &a)| a < sb.seg_base(sb.nsegs)) {
                assert_eq!(
                    on_media.get(&addr),
                    Some(&(ino, lbn)),
                    "ino {ino} lbn {lbn} at {addr}"
                );
            }
        }
        files
    }
}

#[derive(Clone, Debug)]
enum TreeOp {
    /// Write `blocks` blocks (less `short` bytes) at block `at`.
    Write {
        file: usize,
        at: u32,
        blocks: u32,
        short: u32,
    },
    /// Truncate to `to` blocks less `short` bytes.
    Truncate {
        file: usize,
        to: u32,
        short: u32,
    },
    Unlink {
        file: usize,
    },
}

/// Block offsets biased toward the tree's boundaries, up to ~13 MB.
fn arb_tree_block() -> impl Strategy<Value = u32> {
    prop_oneof![
        3 => 0u32..3400,
        1 => 9u32..15,
        2 => 1033u32..1040,
        2 => 2057u32..2063,
        1 => 3081u32..3087,
    ]
}

fn arb_tree_op() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        5 => (0usize..3, arb_tree_block(), 1u32..5, 0u32..4096)
            .prop_map(|(file, at, blocks, short)| TreeOp::Write { file, at, blocks, short }),
        4 => (0usize..3, arb_tree_block(), 0u32..4096)
            .prop_map(|(file, to, short)| TreeOp::Truncate { file, to, short }),
        1 => (0usize..3).prop_map(|file| TreeOp::Unlink { file }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Sparse files — a few blocks at offsets up to ~13 MB, truncated at
    /// random, sometimes before the dirty blocks ever reach the log —
    /// and after every checkpoint three readings of every file must
    /// agree: `ptree::blocks` resolved through `bmapv`; the raw-byte walk
    /// above; and, per segment, the audit's totals and the usage table.
    #[test]
    fn pointer_tree_agrees_with_a_raw_walk_and_the_audit(
        ops in proptest::collection::vec(
            (arb_tree_op(), prop_oneof![2 => Just(false), 1 => Just(true)]),
            4..16,
        ),
    ) {
        use hl_lfs::config::AddressMap;
        use hl_lfs::ondisk::seg_flags;
        use hl_lfs::ptree;
        use hl_lfs::types::LBlock;
        use std::collections::BTreeMap;
        use tree::{raw_walk, Rig, BS, UNASSIGNED};

        let rig = Rig::new();
        let mut fs = rig.mkfs_and_mount();
        let paths = ["/a", "/b", "/c"];
        let last = ops.len() - 1;
        for (step, (op, settle)) in ops.into_iter().enumerate() {
            match op {
                TreeOp::Write { file, at, blocks, short } => {
                    let ino = match fs.lookup(paths[file]) {
                        Ok(ino) => ino,
                        Err(_) => fs.create(paths[file]).expect("create"),
                    };
                    let len = blocks as usize * BS - short as usize;
                    fs.write(ino, u64::from(at) * BS as u64, &vec![step as u8 | 1; len]).expect("write");
                }
                TreeOp::Truncate { file, to, short } => {
                    if let Ok(ino) = fs.lookup(paths[file]) {
                        let size = (u64::from(to) * BS as u64).saturating_sub(u64::from(short));
                        fs.truncate(ino, size).expect("truncate");
                    }
                }
                TreeOp::Unlink { file } => {
                    if fs.lookup(paths[file]).is_ok() {
                        fs.unlink(paths[file]).expect("unlink");
                    }
                }
            }
            // Two steps in three run on with dirty state in the cache.
            if !settle && step != last {
                continue;
            }
            fs.checkpoint().expect("checkpoint");
            let raw = raw_walk(&rig.disk);
            let mut live = vec![0u64; fs.nsegs() as usize];
            let mut credit = |addr: u32, bytes: u64| {
                if addr != UNASSIGNED {
                    live[rig.map.seg_of(addr).expect("a segment address") as usize] += bytes;
                }
            };
            for (&ino, file) in &raw {
                let st = fs.stat(ino).expect("stat");
                prop_assert_eq!(st.size, file.size, "ino {} size", ino);
                let owned: Vec<LBlock> = ptree::blocks(0..st.size.div_ceil(BS as u64)).collect();
                let reqs: Vec<_> = owned.iter().map(|&lb| (ino, lb)).collect();
                let lib: BTreeMap<i64, u32> = owned
                    .iter()
                    .map(|lb| lb.encode())
                    .zip(fs.bmapv(&reqs).expect("bmapv"))
                    .collect();
                let diverges = lib
                    .keys()
                    .chain(file.ptrs.keys())
                    .find(|lbn| lib.get(lbn) != file.ptrs.get(lbn))
                    .map(|lbn| (lbn, lib.get(lbn), file.ptrs.get(lbn)));
                prop_assert_eq!(
                    diverges, None,
                    "step {}: ino {} (lbn, ptree + bmap, raw walk) of {} blocks", step, ino, owned.len()
                );
                // `blocks` counts assigned pointers.
                let assigned = file.ptrs.values().filter(|&&a| a != UNASSIGNED).count();
                prop_assert_eq!(file.blocks as usize, assigned, "step {}: ino {} blocks", step, ino);
                prop_assert_eq!(st.blocks, file.blocks);
                credit(file.daddr, 128);
                file.ptrs.values().for_each(|&a| credit(a, BS as u64));
            }
            let (audited, tertiary) = fs.audit_all_live().expect("audit");
            prop_assert!(tertiary.is_empty());
            for seg in 0..fs.nsegs() {
                let raw_live = live[seg as usize];
                prop_assert_eq!(u64::from(audited[seg as usize]), raw_live, "step {}: segment {} audit", step, seg);
                let u = fs.seg_usage(seg);
                if u.flags & (seg_flags::CACHE | seg_flags::NOSTORE) == 0 {
                    prop_assert_eq!(u64::from(u.live_bytes), raw_live, "step {}: segment {} live bytes", step, seg);
                }
            }
            let report = fs.check().expect("check");
            prop_assert!(report.clean(), "step {}: {:?}", step, report.findings);
        }
    }
}

// ---------------------------------------------------------------------------
// The independent reader (`tree`, above) against mount: it accepts
// exactly the partials roll-forward replays, on an intact image and on
// one with a single flipped byte, and reads a migrated segment off the
// jukebox medium as the library's scan does.
// ---------------------------------------------------------------------------

/// A crashed HighLight image: two checkpoints (so both slots are live),
/// files migrated to tertiary before the second, then four syncs the
/// checkpoint never saw, spilling over several 32-block log segments.
fn crashed_image() -> partials::Rig {
    let rig = partials::Rig::new();
    let mut hl = rig.mkfs_and_mount();
    for i in 0..6u8 {
        let ino = hl.create(&format!("/old{i}")).expect("create");
        hl.write(ino, 0, &vec![i | 0x40; 30_000]).expect("write");
    }
    hl.sync().expect("sync");
    for i in 0..3 {
        hl.migrate_file(&format!("/old{i}"), i != 1, None)
            .expect("migrate");
    }
    hl.checkpoint().expect("checkpoint");
    for round in 0..4u8 {
        for i in 0..3u8 {
            let ino = hl.create(&format!("/new{round}_{i}")).expect("create");
            hl.write(ino, 0, &vec![round * 16 + i + 1; 25_000])
                .expect("write");
        }
        hl.sync().expect("sync");
    }
    drop(hl); // no checkpoint: the next mount rolls forward
    rig
}

#[test]
fn independent_reader_accepts_exactly_what_roll_forward_accepts() {
    use hl_lfs::config::AddressMap;
    use hl_vdev::BlockDev;
    use tree::{newest_checkpoint, roll_forward, segment_partials, superblock, BS};

    let flip = |rig: &partials::Rig, addr: u32, byte: usize| {
        let mut blk = vec![0u8; BS];
        rig.disk.peek(u64::from(addr), &mut blk).expect("peek");
        blk[byte] ^= 0x10;
        rig.disk.poke(u64::from(addr), &blk).expect("poke");
    };

    // Intact: the checkpointed image verifies sum by sum (`raw_walk`
    // asserts that), and the reader replays what mount replays.
    let rig = crashed_image();
    let sb = superblock(&rig.disk).expect("superblock");
    let ckpt = newest_checkpoint(&rig.disk);
    assert!(
        tree::checkpoint_slots(&rig.disk)
            .iter()
            .all(Option::is_some),
        "two checkpoints fill both slots"
    );
    tree::raw_walk(&rig.disk);
    let replayed = roll_forward(&rig.disk, &sb, &ckpt);
    let segs: std::collections::BTreeSet<_> = replayed.iter().map(|p| p.addr / sb.bps).collect();
    assert!(
        replayed.len() >= 4 && segs.len() >= 2,
        "log too short to mean much"
    );
    let (mut hl, report) = rig.remount().expect("mount");
    assert_eq!(report.checkpoint_serial, ckpt.serial);
    assert_eq!(report.partials_replayed as usize, replayed.len());
    let fsck = hl.fsck().expect("fsck");
    assert!(fsck.clean(), "{}", fsck.render());

    // A migrated segment straight off the medium: both sums of every
    // partial verify, and nothing on it has been overwritten, so the
    // library's live scan lists the same items in the same order.
    let (vol, slot, image) = rig.written_slots().swap_remove(0);
    let map = hl.map();
    let seg = map.tert_seg(vol, slot);
    let on_media = segment_partials(&image, map.seg_base(seg), sb.summary_bytes, 0);
    assert!(!on_media.is_empty() && on_media.iter().all(|p| p.datasum_ok));
    let items: Vec<_> = on_media
        .iter()
        .flat_map(|p| {
            let blocks = p.blocks.iter().map(|&(ino, lbn, _)| {
                hl_lfs::migrate::MigrateItem::Block(
                    ino,
                    hl_lfs::types::LBlock::decode(i64::from(lbn)),
                )
            });
            blocks.chain(
                p.inodes
                    .iter()
                    .map(|&(_, ino)| hl_lfs::migrate::MigrateItem::Inode(ino)),
            )
        })
        .collect();
    assert_eq!(hl.lfs().live_items(seg).expect("scan"), items);
    drop(hl);

    // One flipped byte in the payload of the third replayed partial, or
    // in its summary: both readers stop after two. One in the newest
    // checkpoint slot: both fall back to the other. One in the
    // superblock's summed bytes: both refuse the image.
    for in_summary in [false, true] {
        let rig = crashed_image();
        let victim = &replayed[2];
        let (addr, byte) = if in_summary {
            (victim.addr, 40)
        } else {
            (victim.addr + victim.nblocks, 1_234)
        };
        flip(&rig, addr, byte);
        assert_eq!(roll_forward(&rig.disk, &sb, &ckpt).len(), 2);
        let (_, report) = rig.remount().expect("mount");
        assert_eq!(report.partials_replayed, 2, "summary byte: {in_summary}");
    }
    let rig = crashed_image();
    flip(&rig, 1, (ckpt.serial as usize % 2) * 2048 + 9);
    let older = newest_checkpoint(&rig.disk);
    assert_eq!(older.serial, ckpt.serial - 1);
    let (_, report) = rig.remount().expect("mount");
    assert_eq!(report.checkpoint_serial, older.serial);
    assert_eq!(
        report.partials_replayed as usize,
        roll_forward(&rig.disk, &sb, &older).len()
    );
    flip(&rig, 0, 33);
    assert!(superblock(&rig.disk).is_none());
    assert!(rig.remount().is_err());
}

// ---------------------------------------------------------------------------
// The checksum (`hl_lfs::ondisk::cksum`, DESIGN.md §6a "Checksum"):
// equal to the independent reader's one-word-at-a-time version, and
// changed by every corruption the format relies on it to catch.
//
// Seen to go red, each sabotage planted in `ondisk::cksum` alone and
// reverted. Every one of them also turns `cksum_matches_the_readers_…`,
// `golden_format::cksum_known_answers` and the three tests above that
// hold the independent reader against the library red:
//   * the position term dropped (`word` instead of `word + w`) — those
//     only: the multiply already makes a lane order-sensitive, the term
//     is belt and braces (DESIGN.md §6a says what for).
//   * the lanes folded with a commutative `+` or `^` —
//     `cksum_detects_swapped_words` ("noise: words 1532 and 1533": two
//     lanes of one stride near the end).
//   * the length dropped from the fold (`h` starts at 0) —
//     `cksum_detects_trailing_zeros_and_truncation` (a tail of 1–7
//     bytes and the same bytes followed by zero bytes pad to one word).
//   * the tail ignored (the words after the last whole stride skipped) —
//     `cksum_detects_every_single_bit_flip`, `…swapped_words`,
//     `…torn_writes` and `summary_round_trips_and_rejects_bitflips`
//     (48, 44 and `summary_bytes − 4` all end in a tail). The crash
//     torture does *not* notice: none of its tears ends inside the last
//     28 bytes of a summary.
//   * the lane step without its multiply, `rotl(acc, 5) + word + w` (the
//     byte-serial chain widened, as ISSUE 24's prototype had it) —
//     `cksum_detects_swapped_words` ("small integers: words 0 and 256"):
//     words 64 lane steps apart are rotated alike and their sum commutes.
// ---------------------------------------------------------------------------

mod sums {
    /// Deterministic noise.
    pub fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    /// The lengths the format sums (48, 44, 508, 4 092, whole blocks) and
    /// every residue modulo the 32-byte stride around them.
    pub fn lengths() -> Vec<usize> {
        let mut out: Vec<usize> = (0..=72).collect();
        out.extend([508, 4_092, 4_096, 4_100, 8_192]);
        out.extend(4_064..4_096 + 33);
        out
    }
}

#[test]
fn cksum_matches_the_readers_word_at_a_time_version() {
    use hl_lfs::ondisk::cksum;
    let pool = sums::noise(24, 4_200);
    for len in 0..=4_200 {
        assert_eq!(
            cksum(&pool[..len]),
            tree::cksum(&pool[..len]),
            "length {len}"
        );
        assert_eq!(
            cksum(&vec![0u8; len]),
            tree::cksum(&vec![0u8; len]),
            "{len} zeros"
        );
    }
    for seed in 1..=4 {
        let mb = sums::noise(seed, (1 << 20) + seed as usize * 3);
        assert_eq!(cksum(&mb), tree::cksum(&mb), "1 MB, seed {seed}");
    }
}

#[test]
fn cksum_detects_every_single_bit_flip() {
    use hl_lfs::ondisk::cksum;
    // Every residue of a short payload, and the three lengths the
    // format sums whole blocks' worth of.
    for len in (0..=72).chain([508, 4_092, 4_096]) {
        for mut p in [sums::noise(7, len), vec![0u8; len]] {
            let sum = cksum(&p);
            for bit in 0..len * 8 {
                p[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(cksum(&p), sum, "length {len}, bit {bit}");
                p[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }
}

#[test]
fn cksum_detects_swapped_words() {
    use hl_lfs::ondisk::cksum;
    const WORDS: usize = 3 * 512 + 7; // three blocks, a whole stride, a 3-word tail
    let word = |p: &[u8], i: usize| u64::from_le_bytes(p[8 * i..8 * i + 8].try_into().unwrap());
    let swap = |p: &mut [u8], i: usize, j: usize| {
        for b in 0..8 {
            p.swap(8 * i + b, 8 * j + b);
        }
    };
    // Same lane (a stride and a half-block apart), different lanes of
    // one stride (every pair, the last whole stride and the tail
    // included), the same offset of adjacent blocks.
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for i in (0..WORDS).step_by(5) {
        pairs.extend([(i, i + 4), (i, i + 256), (i, i + 512)]);
        let stride = i / 4 * 4;
        pairs.extend((stride..stride + 4).flat_map(|a| (a + 1..stride + 4).map(move |b| (a, b))));
    }
    pairs.retain(|&(_, j)| j < WORDS);
    let dense = sums::noise(3, WORDS * 8);
    // Small integers, as in pointer blocks and directory entries.
    let small: Vec<u8> = (0..WORDS as u64)
        .flat_map(|i| (i % 61 + 1).to_le_bytes())
        .collect();
    for (name, base) in [("noise", dense), ("small integers", small)] {
        let mut p = base;
        let sum = cksum(&p);
        for &(i, j) in &pairs {
            if word(&p, i) == word(&p, j) {
                continue;
            }
            swap(&mut p, i, j);
            assert_ne!(cksum(&p), sum, "{name}: words {i} and {j}");
            swap(&mut p, i, j);
        }
    }
    // A sparse payload — zeros but for the two words, which differ in
    // one bit, one byte or everywhere: nothing between them stirs a lane.
    let values = sums::noise(5, 8 * 64);
    for (n, &(i, j)) in pairs.iter().enumerate() {
        let a = word(&values, n % 64);
        for b in [
            a ^ 1 << (n % 64),
            a ^ 0xff << (n % 8 * 8),
            !a,
            a.rotate_left(17) | 1,
        ] {
            if a == b {
                continue;
            }
            let mut p = vec![0u8; WORDS * 8];
            p[8 * i..8 * i + 8].copy_from_slice(&a.to_le_bytes());
            p[8 * j..8 * j + 8].copy_from_slice(&b.to_le_bytes());
            let sum = cksum(&p);
            swap(&mut p, i, j);
            assert_ne!(cksum(&p), sum, "sparse: {a:#x} at {i}, {b:#x} at {j}");
        }
    }
}

#[test]
fn cksum_detects_torn_writes() {
    use hl_lfs::ondisk::cksum;
    // The new payload's prefix reached the medium, the rest still holds
    // what was there: other data, zeros (a fresh medium), or the same
    // data but for one block.
    let len = 2 * 4_096 + 44;
    let new = sums::noise(11, len);
    let mut one_block_older = new.clone();
    one_block_older[4_096..8_192].copy_from_slice(&sums::noise(12, 4_096));
    let sum = cksum(&new);
    for old in [sums::noise(13, len), vec![0u8; len], one_block_older] {
        let mut torn = old.clone();
        for tear in 0..len {
            // `torn` is new[..tear] ‖ old[tear..].
            if torn != new {
                assert_ne!(cksum(&torn), sum, "tear at byte {tear}");
            }
            torn[tear] = new[tear];
        }
    }
}

#[test]
fn cksum_detects_trailing_zeros_and_truncation() {
    use hl_lfs::ondisk::cksum;
    for len in sums::lengths() {
        for base in [sums::noise(17, len), vec![0u8; len]] {
            let sum = cksum(&base);
            let mut padded = base.clone();
            for extra in 1..=72 {
                padded.push(0);
                assert_ne!(cksum(&padded), sum, "{len} bytes + {extra} zero bytes");
            }
            // Dropping words, zero or not, from the end.
            for keep in len.saturating_sub(40)..len {
                assert_ne!(cksum(&base[..keep]), sum, "{len} bytes cut to {keep}");
            }
        }
    }
}

/// A format-1 image — the `S1` magic, its superblock summed by the
/// byte-serial chain format 1 used — is refused as that, not
/// misdiagnosed as a foreign device or a rotted superblock. (`hlfsck`
/// runs on a mounted hierarchy, so mount is where it surfaces.)
#[test]
fn a_format_1_image_is_refused_by_name() {
    use hl_lfs::LfsError;
    use hl_vdev::BlockDev;

    let downgrade = |disk: &hl_vdev::Disk| {
        let mut sb = vec![0u8; 4096];
        disk.peek(0, &mut sb).expect("peek");
        assert_eq!(&sb[..8], b"2SFLILGH", "a fresh image is format 2");
        sb[0] = b'1';
        let sum = sb[..48]
            .iter()
            .enumerate()
            .fold(0x6c66_7331u32, |acc, (i, &b)| {
                acc.rotate_left(5)
                    .wrapping_add(u32::from(b))
                    .wrapping_add(i as u32)
            });
        sb[48..52].copy_from_slice(&sum.to_le_bytes());
        disk.poke(0, &sb).expect("poke");
    };

    let rig = tree::Rig::new();
    drop(rig.mkfs_and_mount());
    downgrade(&rig.disk);
    assert_eq!(
        rig.remount().map(|_| ()),
        Err(LfsError::Corrupt("unsupported format version"))
    );
    // Other damage reads as it always did.
    let mut sb = vec![0u8; 4096];
    rig.disk.peek(0, &mut sb).expect("peek");
    sb[7] = b'X';
    rig.disk.poke(0, &sb).expect("poke");
    assert_eq!(
        rig.remount().map(|_| ()),
        Err(LfsError::Corrupt("bad superblock magic"))
    );

    let rig = partials::Rig::new();
    drop(rig.mkfs_and_mount());
    downgrade(&rig.disk);
    let refused = rig
        .remount()
        .map(|_| ())
        .expect_err("a format-1 image mounted");
    assert!(
        refused.to_string().contains("unsupported format version"),
        "{refused}"
    );
}
