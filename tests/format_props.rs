//! Property tests on the on-media formats, the uniform address space,
//! directory blocks, and the access tracker.

use highlight::migrator::AccessTracker;
use highlight::{TsegTable, UniformMap};
use hl_lfs::config::AddressMap;
use hl_lfs::dir;
use hl_lfs::ondisk::{Checkpoint, Dinode, Finfo, IfileEntry, SegSummary, SegUse, CHECKPOINT_SLOT};
use hl_lfs::types::{FileKind, DINODE_SIZE, NDIRECT, UNASSIGNED};
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
        let mut t = AccessTracker::with_max_extents(8);
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

        pub fn mkfs_and_mount(&self) -> HighLight {
            let mut cfg = HlConfig::paper(self.clock.clone(), 6);
            cfg.lfs.seg_bytes = BPS * BLOCK_SIZE as u32;
            cfg.lfs.summary_bytes = SUMMARY_BYTES as u32;
            let disk = self.disk.clone() as Rc<dyn BlockDev>;
            let jukebox = Rc::new(self.jukebox.clone());
            HighLight::mkfs(disk.clone(), jukebox.clone(), cfg.clone()).expect("mkfs");
            HighLight::mount(disk, jukebox, cfg).expect("mount")
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
    /// library's walker: summary block, then the FINFO-described file
    /// blocks in order, then the inode blocks; stop at the first summary
    /// that does not verify or whose serial does not increase. Every
    /// structural promise is asserted on the way.
    pub fn ref_walk(image: &[u8], base: BlockAddr) -> Vec<RefPartial> {
        let mut out: Vec<RefPartial> = Vec::new();
        let mut off = 0u32;
        while off + 1 < BPS {
            let sum = &image[off as usize * BLOCK_SIZE..][..SUMMARY_BYTES];
            let Ok((summary, datasum)) = SegSummary::decode(sum) else {
                break;
            };
            if out.last().is_some_and(|p| summary.serial <= p.serial) {
                break;
            }
            assert!(summary.fits(SUMMARY_BYTES), "summary over its limit");
            let ndata = summary.data_blocks() as u32;
            let nblocks = ndata + summary.inode_addrs.len() as u32;
            assert!(nblocks > 0, "empty partial written");
            assert!(off + 1 + nblocks <= BPS, "partial overruns its segment");
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
                out.extend(ref_walk(&rig.disk_segment(base), base));
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
        use partials::{ref_walk, walk_log, Rig};

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
            let partials = ref_walk(&image, map.seg_base(seg));
            prop_assert!(!partials.is_empty(), "written slot without a partial");
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
