//! Blocks by reference: a segment moved between the levels is the same
//! array of handles, or the same buffers, at both, and copy-on-write per
//! run and per block keeps either side's writes from reaching the other.
//!
//! `random_scripts_match_a_byte_oracle` runs random scripts over one
//! `Disk` and one `Jukebox` — timed writes and byte pokes on each, moves
//! by reference in both directions (copy-outs `read_seg` →
//! `write_segment_on`, fills `read_segment_on` → `write_seg` /
//! `poke_seg`), erases, timed reads — holding the last move's segment
//! for a while the way a lane holds the segment it moves. After every
//! step every disk block and every jukebox slot must read what a plain
//! byte array per device, which knows nothing of sharing, says.
//! Segments are four blocks, so buffers shared by a handful of windows
//! are common and a window can outlive its siblings.
//!
//! `a_fetched_line_restaged_for_migration_leaves_the_medium_alone` is the
//! same promise at the engine: a segment fetched into a cache line
//! shares the medium's buffers; when the line is re-staged for another
//! migration the migrator's writes replace the line's blocks, the
//! medium still reads the segment it held, and `hlfsck` is clean.
//!
//! `an_lfs_write_to_a_block_shared_with_the_disk_leaves_the_disk_alone`
//! and `..._with_a_line_and_a_slot_...` are the promise at the buffer
//! cache: a read miss keeps the handle the store lent (through
//! `read_blocks`), so the cached block and the disk block — or the cache
//! line's block and the jukebox slot's, for a file fetched back from
//! tertiary storage — are one buffer. A partial overwrite through
//! `Lfs::write` must take a fresh block, and the old address must still
//! read the old bytes until the log moves on.
//!
//! `an_lfs_write_into_one_window_of_a_calls_buffer_leaves_the_rest_alone`
//! is the promise for the windows one `Lfs::write` call cuts from its
//! buffer: a partial overwrite of one of them, dirty, synced or migrated,
//! copies that block alone, and no sibling, disk, line or slot copy
//! changes its bytes or its carried sum.
//!
//! Sabotages this file was seen to catch (each applied alone, each red):
//!
//! - mutating a shared buffer in place (`SparseStore::write` writing
//!   through the handle where `get_mut` refuses): disk blocks a move
//!   filled from an unwritten slot share the jukebox's zero block, so one
//!   write changes them all ("disk diverged at block 20" at step 3), and
//!   at the engine the re-staged line's writes reach the medium ("the
//!   medium's copy of /a changed");
//! - `Block::get_mut` ignoring the window offset (`&mut b[..len]`): the
//!   last surviving window of a segment-sized buffer writes its dead
//!   sibling's bytes instead of its own ("disk diverged at block 23" at
//!   step 462 — the engine case stays green, its windows never outlive
//!   the medium's);
//! - erase leaving a slot (`erase_volume` not clearing the slot array):
//!   the erased slot still reports written ("v0/s2 written flag");
//! - writing through a shared handle instead of taking a fresh block
//!   (`Block::make_mut` handing out the shared buffer's bytes): the
//!   overwrite reaches the disk's copy through the handle it lent ("a
//!   lent handle changed") and, for the fetched file, the cache line's
//!   and the medium's ("the line's copy changed"; the re-staged line
//!   above also goes red: "the medium's copy of /a changed");
//! - writing a window in place while a sibling window holds its buffer
//!   (`Block::make_mut` copying only a handle that is its whole buffer):
//!   the disk store's clone of the same window sees the write ("synced:
//!   the disk's copy: block 5 changed"), and so do the lent handle and
//!   the line above ("a lent handle changed", "the line's copy
//!   changed");
//! - lending the zero block mutably (`SparseStore::write` of a never
//!   written block writing into the store's shared zero block): every
//!   other unwritten block reads the write ("disk diverged at block 0";
//!   at the engine, `mkfs` fails).
//!
//! `run_sized_scripts_match_a_byte_oracle` is the same script with
//! 256-block segments, so that a fill or a copy-out at a run boundary of
//! the disk's store moves the segment's one array (the run becomes the
//! slot's array, or the slot the run's), mixed with moves off the
//! boundary, log writes of fresh handles (`write_blocks`, or `poke_seg`
//! of a short segment), the held segment's handles put back elsewhere,
//! byte pokes and erases; the segment a move last lent must keep its
//! bytes. Sabotages of the shared runs, each applied alone, each red:
//!
//! - a write or put into a shared run without `Rc::make_mut` (`run_mut`
//!   writing the array through a raw pointer): "step 17: disk diverged
//!   at block 178", and at the engine the re-staged line's writes reach
//!   the medium ("the medium's copy of /a changed"); the four-block
//!   script stays green, since no move of it fills a run;
//! - the whole-run path taken for a misaligned segment (`whole_run`
//!   ignoring the alignment): "step 1: media v0/s1 diverged";
//! - the whole-run path taken for a segment shorter than a run
//!   (`whole_run` ignoring the length): the four-block script panics at
//!   its first aligned move ("a whole run is RUN blocks").

use std::rc::Rc;

use highlight::rig::{hp6300, HlRig};
use highlight::MigrateStats;
use hl_footprint::{Footprint, Jukebox, JukeboxConfig};
use hl_lfs::config::AddressMap;
use hl_lfs::LBlock;
use hl_sim::rng::DetRng;
use hl_vdev::{cksum, Block, BlockDev, Disk, DiskProfile, Segment, BLOCK_SIZE, SEGMENT_ORIGIN};

const VOLUMES: u32 = 2;
const SLOTS: u32 = 3;

/// Blocks in one run of a disk's store, and in a paper-sized segment.
const RUN: usize = 256;

/// One script's shape.
#[derive(Clone, Copy)]
struct Geometry {
    /// Blocks per segment, on the disk and on the medium.
    seg_blocks: usize,
    disk_blocks: u64,
    steps: usize,
    /// Draws a segment's disk start from the run boundaries as often as
    /// not, and runs the handle writes (ops 10 and 11).
    run_sized: bool,
}

/// Four-block segments: buffers shared by a handful of windows are
/// common, and every move is shorter than a run.
const SMALL: Geometry = Geometry {
    seg_blocks: 4,
    disk_blocks: 24,
    steps: 1_500,
    run_sized: false,
};

/// Run-sized segments on a disk of two whole runs (disk segments 0 and
/// 1) and a few blocks more, so a move is aligned or misaligned.
const RUN_SIZED: Geometry = Geometry {
    seg_blocks: RUN,
    disk_blocks: SEGMENT_ORIGIN as u64 + 2 * RUN as u64 + 3,
    steps: 300,
    run_sized: true,
};

impl Geometry {
    fn seg_bytes(&self) -> usize {
        self.seg_blocks * BLOCK_SIZE
    }

    /// A segment's first disk block.
    fn start(&self, rng: &mut DetRng) -> u64 {
        if self.run_sized && rng.chance(0.5) {
            SEGMENT_ORIGIN as u64 + RUN as u64 * rng.below(2)
        } else {
            rng.below(self.disk_blocks - self.seg_blocks as u64 + 1)
        }
    }
}

/// What each device must read, as plain bytes.
struct Oracle {
    disk: Vec<u8>,
    /// `(vol, slot)` in row order; `None` = never written since erase.
    media: Vec<Option<Vec<u8>>>,
}

impl Oracle {
    fn slot(&mut self, vol: u32, slot: u32) -> &mut Option<Vec<u8>> {
        &mut self.media[(vol * SLOTS + slot) as usize]
    }

    fn disk_run(&self, block: u64, n: usize) -> &[u8] {
        &self.disk[block as usize * BLOCK_SIZE..][..n * BLOCK_SIZE]
    }

    fn set_disk(&mut self, block: u64, data: &[u8]) {
        let off = block as usize * BLOCK_SIZE;
        self.disk[off..off + data.len()].copy_from_slice(data);
    }
}

/// `n` blocks, each a distinct pattern under its own random tag.
fn bytes(rng: &mut DetRng, n: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(n * BLOCK_SIZE);
    for _ in 0..n {
        let tag = rng.below(256) as u8;
        out.extend((0..BLOCK_SIZE).map(|i| (i as u8).wrapping_mul(31) ^ tag));
    }
    out
}

fn check(geo: Geometry, disk: &Disk, jb: &Jukebox, oracle: &Oracle, step: usize) {
    let mut block = vec![0u8; BLOCK_SIZE];
    for b in 0..geo.disk_blocks {
        disk.peek(b, &mut block).unwrap();
        assert!(
            block == oracle.disk_run(b, 1),
            "step {step}: disk diverged at block {b}"
        );
    }
    let mut seg = vec![0u8; geo.seg_bytes()];
    for vol in 0..VOLUMES {
        for slot in 0..SLOTS {
            let want = &oracle.media[(vol * SLOTS + slot) as usize];
            assert_eq!(
                jb.segment_written(vol, slot),
                want.is_some(),
                "step {step}: v{vol}/s{slot} written flag"
            );
            jb.peek_segment(vol, slot, &mut seg).unwrap();
            let same = match want {
                Some(w) => seg == *w,
                None => seg.iter().all(|&b| b == 0),
            };
            assert!(same, "step {step}: media v{vol}/s{slot} diverged");
        }
    }
}

fn run(seed: u64, geo: Geometry) {
    let mut rng = DetRng::new(seed);
    let (n, seg_bytes) = (geo.seg_blocks, geo.seg_bytes());
    let disk = Disk::new(DiskProfile::RZ57, geo.disk_blocks, None);
    let jb = Jukebox::new(
        JukeboxConfig {
            volumes: VOLUMES,
            segments_per_volume: SLOTS,
            segment_bytes: seg_bytes,
            ..JukeboxConfig::hp6300_paper()
        },
        None,
    );
    let mut oracle = Oracle {
        disk: vec![0; geo.disk_blocks as usize * BLOCK_SIZE],
        media: vec![None; (VOLUMES * SLOTS) as usize],
    };
    // The last move's segment and the bytes it held then, kept for a
    // while (as a lane keeps the segment it moves), so some writes find
    // their run or block shared three ways; it must never change.
    let mut held: Option<(Segment, Vec<u8>)> = None;
    let mut t = 0;
    let mut moves = [0u32; 2];
    for step in 0..geo.steps {
        let vol = rng.below(VOLUMES as u64) as u32;
        let slot = rng.below(SLOTS as u64) as u32;
        let start = geo.start(&mut rng);
        let ops = if geo.run_sized { 12 } else { 10 };
        match rng.below(ops) {
            // Byte writes and pokes on the disk, 1–4 blocks.
            0..=2 => {
                let at = rng.below(geo.disk_blocks);
                let k = (rng.range(1, 5)).min(geo.disk_blocks - at) as usize;
                let data = bytes(&mut rng, k);
                if rng.chance(0.5) {
                    t = disk.write(t, at, &data).unwrap().end;
                } else {
                    disk.poke(at, &data).unwrap();
                }
                oracle.set_disk(at, &data);
            }
            // Copy-out: disk → medium, by reference.
            3 | 4 => {
                let (r, seg) = disk.read_seg(t, start, n).unwrap();
                t = jb
                    .write_segment_on(r.end, 0, vol, slot, &seg)
                    .unwrap()
                    .0
                    .end;
                let was = oracle.disk_run(start, n).to_vec();
                *oracle.slot(vol, slot) = Some(was.clone());
                // Handles moved, not bytes: the medium lends the disk's
                // array back.
                let (r, _, back) = jb.read_segment_on(t, 0, vol, slot).unwrap();
                t = r.end;
                assert!(std::ptr::eq(&back[0], &seg[0]), "step {step}: a copy");
                held = Some((seg, was));
                moves[0] += 1;
            }
            // Fill: medium → disk, by reference: a timed write or a poke.
            5 | 6 => {
                let (r, _, seg) = jb.read_segment_on(t, 1, vol, slot).unwrap();
                t = r.end;
                if rng.chance(0.5) {
                    t = disk.write_seg(t, start, &seg).unwrap().end;
                } else {
                    disk.poke_seg(start, &seg).unwrap();
                }
                let was = oracle.slot(vol, slot).clone().unwrap_or(vec![0; seg_bytes]);
                oracle.set_disk(start, &was);
                held = Some((seg, was));
                moves[1] += 1;
            }
            // Timed writes of a fresh segment and byte pokes on the
            // medium.
            7 => {
                let data = bytes(&mut rng, n);
                if rng.chance(0.5) {
                    let seg = Segment::split(Rc::from(data.as_slice()), BLOCK_SIZE);
                    t = jb.write_segment_on(t, 0, vol, slot, &seg).unwrap().0.end;
                } else {
                    jb.poke_segment(vol, slot, &data).unwrap();
                }
                *oracle.slot(vol, slot) = Some(data);
            }
            8 => {
                jb.erase_volume(vol).unwrap();
                for s in 0..SLOTS {
                    *oracle.slot(vol, s) = None;
                }
            }
            // Timed byte reads, and letting go of the held segment.
            9 => {
                let mut buf = vec![0u8; seg_bytes];
                t = disk.read(t, start, &mut buf).unwrap().end;
                assert!(buf == oracle.disk_run(start, n), "step {step}: disk read");
                let (r, _, seg) = jb.read_segment_on(t, 1, vol, slot).unwrap();
                t = r.end;
                let want = oracle.slot(vol, slot).clone().unwrap_or(vec![0; seg_bytes]);
                assert!(seg.concat() == want, "step {step}: media read");
                held = None;
            }
            // A log write of fresh blocks by handle, 1–4 blocks, as the
            // LFS writes a partial segment.
            10 => {
                let at = rng.below(geo.disk_blocks);
                let k = (rng.range(1, 5)).min(geo.disk_blocks - at) as usize;
                let data = bytes(&mut rng, k);
                let seg = Segment::split(Rc::from(data.as_slice()), BLOCK_SIZE);
                if rng.chance(0.5) {
                    t = disk.write_blocks(t, at, &seg).unwrap().end;
                } else {
                    disk.poke_seg(at, &seg).unwrap();
                }
                oracle.set_disk(at, &data);
            }
            // Some of the held segment's handles put back elsewhere on
            // the disk, as the cleaner re-logs live blocks it read.
            _ => {
                if let Some((seg, was)) = &held {
                    let at = rng.below(geo.disk_blocks - 4);
                    let from = rng.below(n as u64 - 4) as usize;
                    t = disk.write_blocks(t, at, &seg[from..from + 4]).unwrap().end;
                    oracle.set_disk(at, &was[from * BLOCK_SIZE..(from + 4) * BLOCK_SIZE]);
                }
            }
        }
        check(geo, &disk, &jb, &oracle, step);
        if let Some((seg, was)) = &held {
            assert!(seg.concat() == *was, "step {step}: a held segment changed");
        }
    }
    assert!(
        moves.iter().all(|&m| m as usize > geo.steps / 15),
        "seed {seed}: moves {moves:?}"
    );
}

#[test]
fn random_scripts_match_a_byte_oracle() {
    for seed in [25, 1993, 0xb10c] {
        run(seed, SMALL);
    }
}

/// Whole-segment fills and copy-outs at and off the run boundaries of the
/// disk's store, among log writes, byte pokes and erases on both levels.
#[test]
fn run_sized_scripts_match_a_byte_oracle() {
    for seed in [25, 1993] {
        run(seed, RUN_SIZED);
    }
}

fn content(id: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(13).wrapping_add(id))
        .collect()
}

/// Every written jukebox slot, in `(vol, slot)` order.
fn written(jb: &Jukebox) -> Vec<(u32, u32)> {
    (0..jb.volumes())
        .flat_map(|v| (0..jb.segments_per_volume()).map(move |s| (v, s)))
        .filter(|&(v, s)| jb.segment_written(v, s))
        .collect()
}

#[test]
fn a_fetched_line_restaged_for_migration_leaves_the_medium_alone() {
    let rig = HlRig::new(2 + 40 * 256 + 5, hp6300(2, 4), 1, None);
    let (disk, jb) = (&rig.disk, &rig.jukebox);
    rig.mkfs();
    let mut hl = rig.mount();
    let (a, b) = (content(1, 300_000), content(2, 200_000));
    let ino_a = hl.create("/a").expect("create");
    hl.write(ino_a, 0, &a).expect("write");
    hl.migrate_file("/a", true, None).expect("migrate /a");
    hl.seal_staging(&mut MigrateStats::default()).expect("seal");
    let map = hl.map();
    let [(vol, slot)] = written(jb)[..] else {
        panic!("/a filled one segment: {:?}", written(jb));
    };
    let tert_a = map.tert_seg(vol, slot);
    let mut media_a = vec![0u8; 1 << 20];
    jb.peek_segment(vol, slot, &mut media_a).unwrap();

    // Demand fetch: the one cache line now holds the medium's segment,
    // the very array of handles.
    hl.eject_all();
    hl.drop_caches();
    let mut back = vec![0u8; a.len()];
    hl.read(ino_a, 0, &mut back).expect("read /a");
    assert!(back == a, "/a read back");
    let line = hl.cache().borrow().peek(tert_a).expect("fetched").disk_seg;
    let base = map.seg_base(line) as u64;
    let now = hl.clock().now();
    let (_, on_disk) = disk.read_seg(now, base, 256).unwrap();
    let (_, _, on_media) = jb.read_segment_on(now, 0, vol, slot).unwrap();
    assert!(std::ptr::eq(&on_disk[0], &on_media[0]));
    drop((on_disk, on_media));

    // Re-stage that line: migrating /b writes a new segment into it.
    let ino_b = hl.create("/b").expect("create");
    hl.write(ino_b, 0, &b).expect("write");
    hl.migrate_file("/b", true, None).expect("migrate /b");
    hl.seal_staging(&mut MigrateStats::default()).expect("seal");
    let [_, (vol_b, slot_b)] = written(jb)[..] else {
        panic!("/b filled one segment: {:?}", written(jb));
    };
    let tert_b = map.tert_seg(vol_b, slot_b);
    assert_eq!(
        hl.cache().borrow().peek(tert_b).map(|l| l.disk_seg),
        Some(line),
        "/b was staged in /a's line"
    );
    let mut media = vec![0u8; 1 << 20];
    jb.peek_segment(vol, slot, &mut media).unwrap();
    assert!(media == media_a, "the medium's copy of /a changed");
    let fsck = hl.fsck().expect("fsck");
    assert!(fsck.clean(), "{}", fsck.render());

    // Both read back from cold caches, after a remount.
    drop(hl);
    let mut hl = rig.mount();
    hl.eject_all();
    hl.drop_caches();
    for (path, want) in [("/a", &a), ("/b", &b)] {
        let ino = hl.lookup(path).expect("lookup");
        let mut back = vec![0u8; want.len()];
        hl.read(ino, 0, &mut back).expect("read");
        assert!(back == *want, "{path} diverged");
    }
    let fsck = hl.fsck().expect("fsck");
    assert!(fsck.clean(), "{}", fsck.render());
}

/// Overwrites 100 bytes inside block 1 of `ino` (cached, sharing its
/// buffer with a device) through `Lfs::write`; returns what block 1
/// held before.
fn overwrite_block_one(hl: &mut highlight::HighLight, ino: u32, old: &[u8]) -> Vec<u8> {
    let before = old[BLOCK_SIZE..2 * BLOCK_SIZE].to_vec();
    hl.lfs()
        .write(ino, BLOCK_SIZE as u64 + 10, &[0xee; 100])
        .expect("overwrite");
    let mut back = vec![0u8; 2 * BLOCK_SIZE];
    hl.read(ino, 0, &mut back).expect("read");
    assert!(back[BLOCK_SIZE + 10..BLOCK_SIZE + 110]
        .iter()
        .all(|&b| b == 0xee));
    assert!(
        back[..BLOCK_SIZE] == old[..BLOCK_SIZE],
        "block 0 is untouched"
    );
    before
}

#[test]
fn an_lfs_write_to_a_block_shared_with_the_disk_leaves_the_disk_alone() {
    let rig = HlRig::new(2 + 40 * 256 + 5, hp6300(2, 4), 1, None);
    rig.mkfs();
    let mut hl = rig.mount();
    let data = content(3, 4 * BLOCK_SIZE);
    let ino = hl.create("/c").expect("create");
    hl.write(ino, 0, &data).expect("write");
    hl.sync().expect("sync");
    hl.drop_caches();
    // A read miss: the cache keeps the disk store's handles.
    let mut back = vec![0u8; data.len()];
    hl.read(ino, 0, &mut back).expect("read");
    assert!(back == data);
    let addr = hl.lfs().bmapv(&[(ino, LBlock::Data(1))]).expect("bmap")[0];
    let mut on_disk = vec![Block::zeroed(BLOCK_SIZE)];
    rig.disk
        .read_blocks(hl.clock().now(), addr as u64, &mut on_disk)
        .unwrap();
    let before = overwrite_block_one(&mut hl, ino, &data);
    assert!(*on_disk[0] == before[..], "a lent handle changed");
    let mut old = vec![0u8; BLOCK_SIZE];
    rig.disk.peek(addr as u64, &mut old).unwrap();
    assert!(old == before, "the disk's old copy of block 1 changed");

    // The log moves the new bytes on; the old address keeps the old.
    hl.sync().expect("sync");
    let moved = hl.lfs().bmapv(&[(ino, LBlock::Data(1))]).expect("bmap")[0];
    assert_ne!(moved, addr);
    rig.disk.peek(addr as u64, &mut old).unwrap();
    assert!(
        old == before,
        "the disk's old copy of block 1 changed at sync"
    );
    rig.disk.peek(moved as u64, &mut old).unwrap();
    assert!(old[10..110].iter().all(|&b| b == 0xee));
}

#[test]
fn an_lfs_write_to_a_block_shared_with_a_line_and_a_slot_leaves_both_alone() {
    let rig = HlRig::new(2 + 40 * 256 + 5, hp6300(2, 4), 1, None);
    let jb = &rig.jukebox;
    rig.mkfs();
    let mut hl = rig.mount();
    let data = content(4, 4 * BLOCK_SIZE);
    let ino = hl.create("/d").expect("create");
    hl.write(ino, 0, &data).expect("write");
    hl.migrate_file("/d", true, None).expect("migrate");
    hl.seal_staging(&mut MigrateStats::default()).expect("seal");
    hl.sync().expect("sync");
    let map = hl.map();
    let [(vol, slot)] = written(jb)[..] else {
        panic!("/d filled one segment: {:?}", written(jb));
    };
    let tseg = map.tert_seg(vol, slot);

    // Fetched back: the cache line shares the slot's buffers, and the
    // buffer cache shares the line's.
    hl.eject_all();
    hl.drop_caches();
    let mut back = vec![0u8; data.len()];
    hl.read(ino, 0, &mut back).expect("read");
    assert!(back == data);
    let addr = hl.lfs().bmapv(&[(ino, LBlock::Data(1))]).expect("bmap")[0];
    assert_eq!(map.seg_of(addr), Some(tseg), "block 1 is tertiary");
    let off = (addr - map.seg_base(tseg)) as usize;
    let line = hl.cache().borrow().peek(tseg).expect("fetched").disk_seg;
    let at_line = map.seg_base(line) as u64 + off as u64;

    let before = overwrite_block_one(&mut hl, ino, &data);
    let mut old = vec![0u8; BLOCK_SIZE];
    rig.disk.peek(at_line, &mut old).unwrap();
    assert!(old == before, "the line's copy changed");
    let mut media = vec![0u8; 1 << 20];
    jb.peek_segment(vol, slot, &mut media).unwrap();
    assert!(
        media[off * BLOCK_SIZE..(off + 1) * BLOCK_SIZE] == before[..],
        "the medium's copy changed"
    );
    hl.sync().expect("sync");
    let fsck = hl.fsck().expect("fsck");
    assert!(fsck.clean(), "{}", fsck.render());
}

/// The handles the disk store lends for `blocks` blocks from `addr`.
fn disk_blocks(disk: &Disk, now: u64, addr: u64, blocks: usize) -> Vec<Block> {
    let mut out = vec![Block::zeroed(BLOCK_SIZE); blocks];
    disk.read_blocks(now, addr, &mut out).unwrap();
    out
}

/// Each handle holds its block of `want` and carries the sum of its
/// bytes, and `block` is the window beside its left sibling's, in one
/// buffer.
fn hold(held: &[Block], want: &[u8], block: usize, what: &str) {
    for (l, b) in held.iter().enumerate() {
        assert!(
            **b == want[l * BLOCK_SIZE..(l + 1) * BLOCK_SIZE],
            "{what}: block {l} changed"
        );
        assert_eq!(b.sum(), cksum(b), "{what}: block {l}'s carried sum");
    }
    assert!(
        std::ptr::eq(
            held[block - 1].as_ptr().wrapping_add(BLOCK_SIZE),
            held[block].as_ptr()
        ),
        "{what}: block {block} is a window of the call's buffer"
    );
}

/// One `Lfs::write` call's 16 blocks are 16 windows onto one buffer. An
/// overwrite of 100 bytes inside block 5 — while the blocks are dirty in
/// the buffer cache, after `sync` (the window then shared with the disk
/// store), and after migration (shared with a cache line and a jukebox
/// slot) — takes a private copy of block 5: its 15 siblings, the disk's
/// copy and the slot's copy keep their bytes and the sums they carry,
/// and after a remount every file reads what a byte oracle says.
/// Seen red with `Block::make_mut` writing a window in place while a
/// sibling window holds its buffer ("synced: the disk's copy: block 5
/// changed").
#[test]
fn an_lfs_write_into_one_window_of_a_calls_buffer_leaves_the_rest_alone() {
    const BLOCKS: usize = 16;
    const AT: usize = 5 * BLOCK_SIZE + 10;
    let rig = HlRig::new(2 + 40 * 256 + 5, hp6300(2, 4), 1, None);
    let (disk, jb) = (&rig.disk, &rig.jukebox);
    rig.mkfs();
    let mut hl = rig.mount();
    let map = hl.map();
    let mut oracle = Vec::new();
    for (k, when) in ["dirty", "synced", "migrated"].into_iter().enumerate() {
        let path = format!("/w{k}");
        let old = content(10 + k as u8, BLOCKS * BLOCK_SIZE);
        let ino = hl.create(&path).expect("create");
        hl.write(ino, 0, &old).expect("write");
        let held = match when {
            "dirty" => Vec::new(),
            "synced" => {
                hl.sync().expect("sync");
                let addr = hl.lfs().bmapv(&[(ino, LBlock::Data(0))]).expect("bmap")[0];
                let on_disk = disk_blocks(disk, hl.clock().now(), addr as u64, BLOCKS);
                hold(&on_disk, &old, 5, "synced: the disk's copy");
                vec![("the disk's copy", on_disk)]
            }
            _ => {
                hl.migrate_file(&path, true, None).expect("migrate");
                hl.seal_staging(&mut MigrateStats::default()).expect("seal");
                hl.sync().expect("sync");
                let [(vol, slot)] = written(jb)[..] else {
                    panic!("{path} filled one segment: {:?}", written(jb));
                };
                let tseg = map.tert_seg(vol, slot);
                let addr = hl.lfs().bmapv(&[(ino, LBlock::Data(0))]).expect("bmap")[0];
                let off = (addr - map.seg_base(tseg)) as usize;
                let line = hl.cache().borrow().peek(tseg).expect("staged").disk_seg;
                let now = hl.clock().now();
                let on_line =
                    disk_blocks(disk, now, map.seg_base(line) as u64 + off as u64, BLOCKS);
                let (_, _, on_slot) = jb.read_segment_on(now, 0, vol, slot).unwrap();
                let on_slot = on_slot[off..off + BLOCKS].to_vec();
                hold(&on_line, &old, 5, "migrated: the line's copy");
                hold(&on_slot, &old, 5, "migrated: the slot's copy");
                assert!(std::ptr::eq(on_line[5].as_ptr(), on_slot[5].as_ptr()));
                vec![("the line's copy", on_line), ("the slot's copy", on_slot)]
            }
        };
        hl.write(ino, AT as u64, &[0xee; 100]).expect("overwrite");
        let mut new = old.clone();
        new[AT..AT + 100].fill(0xee);
        let mut back = vec![0u8; new.len()];
        hl.read(ino, 0, &mut back).expect("read");
        assert!(back == new, "{when}: {path} reads the overwrite");
        for (what, blocks) in &held {
            hold(blocks, &old, 5, &format!("{when}: {what}"));
        }
        // What the log wrote: every block, when none was synced before;
        // else block 5 alone, the others staying where they were.
        hl.sync().expect("sync");
        let rewritten = if when == "dirty" { 0..BLOCKS } else { 5..6 };
        for l in rewritten {
            let addr = hl
                .lfs()
                .bmapv(&[(ino, LBlock::Data(l as u32))])
                .expect("bmap")[0];
            let on_disk = disk_blocks(disk, hl.clock().now(), addr as u64, 1);
            assert!(*on_disk[0] == new[l * BLOCK_SIZE..(l + 1) * BLOCK_SIZE]);
            assert_eq!(
                on_disk[0].sum(),
                cksum(&on_disk[0]),
                "{when}: block {l}'s carried sum"
            );
        }
        oracle.push((path, new));
    }
    let fsck = hl.fsck().expect("fsck");
    assert!(fsck.clean(), "{}", fsck.render());

    drop(hl);
    let mut hl = rig.mount();
    hl.eject_all();
    hl.drop_caches();
    for (path, want) in &oracle {
        let ino = hl.lookup(path).expect("lookup");
        let mut back = vec![0u8; want.len()];
        hl.read(ino, 0, &mut back).expect("read");
        assert!(back == *want, "{path} diverged after a remount");
    }
    let fsck = hl.fsck().expect("fsck");
    assert!(fsck.clean(), "{}", fsck.render());
}
