//! Whole-hierarchy image pin: every byte the system leaves on the disk
//! and on the jukebox media after one scripted life that passes through
//! every site that lays out or parses a partial segment — the log
//! writer (create / write / sync / checkpoint), the migrator
//! (`migrate_file`, with and without inodes, several partials per
//! staging segment), the disk cleaner (`clean_once`), end-of-medium
//! relocation (immediate and delayed copy-out), the tertiary cleaner
//! (`tcleaner::clean_volume`), and mount-time roll-forward (remounts,
//! one of them without a checkpoint). A second,
//! deep script takes two files behind the double-indirect pointer — one
//! dense, one with a hole spanning a whole level-1 block — through
//! migration, refetch, tertiary cleaning, remount, a truncate across
//! every boundary of the block-pointer tree and unlink, checking
//! `hlfsck`, the live-byte audit and `stat.blocks` after every step.
//!
//! The digests are FNV-1a over the raw device bytes, so a change that
//! moves a block, reorders a partial, bumps a serial differently or
//! perturbs buffer-cache eviction (which shifts what the cleaner finds
//! resident, and so simulated time and the engine trace) moves them. A
//! change that must move one re-pins it alone, with the reason. The
//! lives themselves are in `lives/mod.rs`, which `hash_salt` replays
//! under salted hashers.
//!
//! Re-pins: `disk` + `media` for format 2 (every sum is the word-wide
//! `cksum`); `disk` again because `mkfs` now counts the root directory's
//! first block in its `blocks` (it said 0); `trace` because the scheduler
//! stopped writing park/wake lines into the engine trace; `trace` of the
//! two copy-out lives again when the recovery steps became trace events
//! (their end-of-medium `rcv` lines). Clocks never
//! moved until the on-fetch rearrangement step was removed with the
//! feature: that re-pinned every field of both lives but `eom_events`
//! (the step wrote the fifth slot). `disk`, `sim_now` and `trace` of
//! all three lives when `eject_all` began to eject in tertiary-segment
//! order rather than the cache directory's slot order: the freed disk
//! segments return to the pool in another order, so later fills land
//! on other disk segments (every clock ends earlier).

mod lives;

use highlight::rig::{hp6300, HlRig};
use highlight::CopyOutMode;
use hl_vdev::BLOCK_SIZE;
use lives::{content, deep_life, scripted_life, Pin, DENSE_LEN, MB};

#[test]
fn immediate_copy_out_life_matches_the_pinned_image() {
    assert_eq!(
        scripted_life(CopyOutMode::Immediate),
        Pin {
            disk: 0x233b_4683_97f5_bef2,
            media: 0x588d_8ee0_40b9_4b7a,
            slots_written: 4,
            eom_events: 1,
            sim_now: 90_948_285,
            trace: 0x5481_07dd_94a1_46d6,
        }
    );
}

#[test]
fn delayed_copy_out_life_matches_the_pinned_image() {
    assert_eq!(
        scripted_life(CopyOutMode::Delayed),
        Pin {
            disk: 0x52bf_2e11_49a7_3c64,
            media: 0xf941_591a_e404_db19,
            slots_written: 4,
            eom_events: 2,
            sim_now: 92_122_146,
            trace: 0x6bc0_ebd2_1e0a_b9ba,
        }
    );
}

#[test]
fn deep_file_life_matches_the_pinned_image() {
    assert_eq!(
        deep_life(),
        Pin {
            disk: 0xa365_8859_1080_dddf,
            media: 0x3bb1_bf2b_d81e_9690,
            slots_written: 11,
            eom_events: 0,
            sim_now: 357_014_458,
            trace: 0xf1bf_2aa6_c982_b310,
        }
    );
}

/// The buffer cache's counters and the clock after reads of a dense
/// file that reaches `Ind2Child(1)`, from a cold cache: one sequential
/// pass in 64 KB calls (16-block clusters across `Ind1` and both
/// double-indirect children), then 3 000 short runs of 4 KB reads at
/// pseudo-random frames, each run sequential after its first read, so
/// clusters start anywhere and evictions leave some pointer blocks
/// resident without others. Read-ahead reads every later pointer of a
/// cluster from the indirect block it has already walked, so these
/// counts pin that it still counts each hit the full walk counted
/// and refreshes what the walk refreshed (eviction order shows in
/// `blocks_read` and the clock). The values are the parent commit's,
/// from before read-ahead held the pointer block. Seen red, each
/// sabotage alone: a held block counted as one hit under a
/// double-indirect child (the root's hit lost); held reads counting no
/// hits; the first walk taking the pointer block from the cache without
/// walking through the root; a cached candidate ending the cluster
/// without a refresh (misses, reads and the clock move too).
#[test]
fn deep_reads_count_every_hit_of_the_pointer_walk() {
    let rig = HlRig::new(2 + 48 * 256 + 5, hp6300(4, 6), 6, None);
    rig.mkfs();
    let mut hl = rig.mount();
    let dense = content(43, DENSE_LEN);
    let ino = hl.create("/d").expect("create");
    for (i, chunk) in dense.chunks(MB as usize).enumerate() {
        hl.write(ino, i as u64 * MB, chunk).expect("write");
    }
    hl.checkpoint().expect("checkpoint");
    hl.drop_caches();
    let mut buf = vec![0u8; 64 << 10];
    for at in (0..DENSE_LEN).step_by(buf.len()) {
        let n = hl.read(ino, at as u64, &mut buf).expect("read");
        assert!(buf[..n] == dense[at..at + n], "sequential pass at {at}");
    }
    hl.drop_caches();
    let frames = DENSE_LEN as u64 / BLOCK_SIZE as u64;
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut frame = [0u8; BLOCK_SIZE];
    for _ in 0..3_000 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let first = (x >> 33) % frames;
        for f in first..(first + 1 + (x >> 20) % 6).min(frames) {
            let at = (f * BLOCK_SIZE as u64) as usize;
            hl.read(ino, at as u64, &mut frame).expect("read");
            assert!(frame[..] == dense[at..at + BLOCK_SIZE], "frame {f}");
        }
    }
    let s = hl.lfs().stats();
    assert_eq!(
        (
            s.cache_hits,
            s.cache_misses,
            s.dev_reads,
            s.blocks_read,
            rig.clock.now()
        ),
        (48_099, 24_241, 3_916, 24_248, 185_634_811)
    );
}
