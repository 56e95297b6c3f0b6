//! The sum a block carries (DESIGN.md §6a, "Checksum"): `ss_datasum`
//! folds the payload blocks' own `cksum`s, and a block handle remembers
//! its sum once asked (`Block::sum`), so a block the migrator or a
//! cleaner moves unchanged is not read again.
//!
//! `a_carried_sum_is_always_the_sum_of_the_bytes_beside_it` runs random
//! scripts of writes — in place through `Block::make_mut` and
//! `SparseStore::write` (`Block::get_mut`), and handle moves through
//! `put`, `lend`, `put_segment` and `lend_segment` — mixed with clones,
//! drops, split windows and datasums, and after every step holds
//! `datasum_of_blocks` of the handles (carried sums) to `datasum_of` of
//! their bytes (summed afresh), for a payload of held handles and for
//! the store's own blocks. Two distinct blocks swapped must change the
//! datasum. Seen red, each sabotage alone: `Block::get_mut` keeping the
//! memo (a block summed, put in the store, then written in place there
//! lends its old sum); the fold taking the block sums without their
//! positions (an XOR of the sums: the swap goes unnoticed);
//! `Block::split` windows sharing one memo (a window answers with its
//! sibling's sum). Dropping the index term alone leaves the fold
//! order-sensitive, so only the pinned `ss_datasum` of
//! `golden_format`'s summary snapshot sees it.
//!
//! `migrating_a_synced_file_sums_only_fresh_blocks` and
//! `cleaning_a_segment_sums_only_fresh_blocks` pin the bytes `cksum`
//! reads (`hl_vdev::bytes_summed`, a per-thread count) while
//! `HighLight::migrate_file` moves a written-and-synced 1 MB file to a
//! staging segment, and while one `Lfs::clean_once` copies the live
//! blocks of a log segment forward.

use highlight::rig::{hp6300, HlRig};
use hl_lfs::config::{LfsConfig, LinearMap, NoTertiary};
use hl_lfs::ondisk::SegSummary;
use hl_lfs::ufs::Ufs;
use hl_lfs::Lfs;
use hl_sim::Clock;
use hl_vdev::{bytes_summed, Block, BlockDev, Disk, DiskProfile, Segment, SparseStore, BLOCK_SIZE};
use proptest::prelude::*;
use std::rc::Rc;

/// Blocks of the store a script works on.
const STORE_BLOCKS: u64 = 6;
/// Handles a script holds: the payload it sums.
const HELD: usize = 4;

/// `datasum_of_blocks` of `blocks` — the carried sums — equals
/// `datasum_of` their bytes summed afresh.
fn carried_sums_hold(blocks: &[Block]) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        SegSummary::datasum_of_blocks(blocks),
        SegSummary::datasum_of(&blocks.concat())
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_carried_sum_is_always_the_sum_of_the_bytes_beside_it(
        script in prop::collection::vec((0u8..9, 0usize..64, any::<u64>()), 1..48),
    ) {
        let mut store = SparseStore::new(BLOCK_SIZE);
        let mut held: Vec<Block> = (0..HELD).map(|_| Block::zeroed(BLOCK_SIZE)).collect();
        for (op, at, x) in script {
            let (i, b) = (at % HELD, at as u64 % STORE_BLOCKS);
            let byte = x as u8;
            match op {
                // A write in place, or into a private copy of a shared block.
                0 => held[i].make_mut()[(x as usize) % BLOCK_SIZE] ^= byte | 1,
                // A byte write into the store: in place where the store
                // holds the block's only handle.
                1 => store.write(b, &vec![byte; BLOCK_SIZE]),
                2 => store.put(b, &held[i..i + 1]),
                3 => store.lend(b, &mut held[i..i + 1]),
                // Two windows of one fresh buffer, one summed first.
                4 => {
                    let buf: Vec<u8> = (0..2 * BLOCK_SIZE).map(|k| ((k >> 5) as u64 ^ x) as u8).collect();
                    let seg = Segment::split(Rc::from(buf), BLOCK_SIZE);
                    seg[0].sum();
                    held[i] = seg[0].clone();
                    held[(i + 1) % HELD] = seg[1].clone();
                    store.put_segment(b, &seg);
                }
                5 => {
                    let seg = store.lend_segment(b, 2);
                    held[i] = seg[x as usize % 2].clone();
                }
                6 => held[i] = held[(i + 1 + x as usize % (HELD - 1)) % HELD].clone(),
                // A handle dropped: the buffer's other holders may now
                // hold its only handle.
                7 => held[i] = Block::zeroed(BLOCK_SIZE),
                _ => {
                    held[i].sum();
                }
            }
            carried_sums_hold(&held)?;
            let mut lent: Vec<Block> = (0..STORE_BLOCKS).map(|_| Block::zeroed(BLOCK_SIZE)).collect();
            store.lend(0, &mut lent);
            carried_sums_hold(&lent)?;
            if held[0][..] != held[1][..] {
                let mut swapped = held.clone();
                swapped.swap(0, 1);
                prop_assert!(
                    SegSummary::datasum_of_blocks(&swapped) != SegSummary::datasum_of_blocks(&held),
                    "two distinct blocks swapped, same datasum"
                );
            }
        }
    }
}

/// Bytes checksummed on this thread while `f` runs.
fn summed_during(f: impl FnOnce()) -> u64 {
    let before = bytes_summed();
    f();
    bytes_summed() - before
}

/// `len` bytes of a file's contents, distinct per `id`.
fn contents(id: u32, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u32).wrapping_mul(2_654_435_761).wrapping_add(id) as u8)
        .collect()
}

#[test]
fn migrating_a_synced_file_sums_only_fresh_blocks() {
    let rig = HlRig::new(2 + 40 * 256 + 5, hp6300(2, 4), 4, None);
    rig.mkfs();
    let mut hl = rig.mount();
    let ino = hl.create("/f").expect("create");
    hl.write(ino, 0, &contents(1, 1 << 20)).expect("write");
    hl.sync().expect("sync");
    let summed = summed_during(|| {
        hl.migrate_file("/f", false, None).expect("migrate");
    });
    // The indirect block, whose pointers the migration just patched,
    // and the two 4 092-byte summary sums of the two partials. The 256
    // data blocks carry the sums the log write gave them (format 2
    // re-summed all 257 payload blocks: 257 * 4096 + 2 * 4092).
    assert_eq!(summed, 4096 + 2 * 4092);
}

#[test]
fn cleaning_a_segment_sums_only_fresh_blocks() {
    let nblocks = 2 + 24 * 256;
    let disk = Rc::new(Disk::new(DiskProfile::RZ57, nblocks, None));
    disk.poke(0, &vec![0u8; nblocks as usize * BLOCK_SIZE])
        .unwrap();
    let cfg = LfsConfig::base(Clock::new());
    let map = Rc::new(LinearMap::for_device(nblocks, cfg.blocks_per_seg(), 2));
    Lfs::mkfs(disk.clone(), map.clone(), Rc::new(NoTertiary), cfg.clone()).expect("mkfs");
    let mut fs = Lfs::mount(disk, map, Rc::new(NoTertiary), cfg).expect("mount");
    let ino = fs.create("/f").expect("create");
    fs.write(ino, 0, &contents(1, 1 << 20)).expect("write");
    fs.sync().expect("sync");
    // Overwrite a quarter of it: the first log segment keeps the rest.
    fs.write(ino, 0, &contents(2, 1 << 18)).expect("overwrite");
    fs.sync().expect("sync");
    let (partials, written) = (fs.stats().partials_written, fs.stats().blocks_written);
    let mut report = None;
    let summed = summed_during(|| report = fs.clean_once().expect("clean"));
    let report = report.expect("a victim");
    assert_eq!((report.blocks_copied, report.inodes_copied), (184, 1));
    assert_eq!(
        (
            fs.stats().partials_written - partials,
            fs.stats().blocks_written - written
        ),
        (3, 189)
    );
    // Three partials of 186 payload blocks: only the two encoded afresh
    // are summed — the file's indirect block, repointed, and an inode
    // block — not the 184 copies, which carry their sums from the disk.
    // Then the three summaries written and the five the walk of the
    // victim decodes (508 bytes each under the base LFS's 512-byte
    // summary). Format 2 re-summed all 186: 186 * 4096 + 8 * 508.
    assert_eq!(summed, 2 * 4096 + (3 + 5) * 508);
}
