//! Direct unit tests for the migration policies (DESIGN.md §6i):
//! `StpPolicy::score` ordering and its fixed product, `NamespacePolicy`
//! unit grouping and dormancy, and `BlockRangePolicy` edge cases — each
//! `select()` run against a real mounted filesystem, not mocks.

use highlight::migrator::{
    AccessTracker, BlockRangePolicy, Candidate, MigrationPolicy, NamespacePolicy, StpPolicy,
};
use highlight::rig::{hp6300, HlRig};
use highlight::HighLight;
use hl_lfs::migrate::MigrateItem;
use hl_lfs::types::Ino;
use hl_sim::time::secs;
use hl_sim::Clock;
use hl_vdev::BLOCK_SIZE;

fn mounted() -> (HighLight, Clock) {
    let rig = HlRig::new(2 + 48 * 256 + 5, hp6300(4, 8), 8, None);
    rig.mkfs();
    (rig.mount(), rig.clock)
}

fn create_file(hl: &mut HighLight, path: &str, len: usize) -> Ino {
    let ino = hl.create(path).expect("create");
    hl.write(ino, 0, &vec![0xAB; len]).expect("write");
    ino
}

/// The inodes a batch touches (data blocks only).
fn batch_inos(batch: &[MigrateItem]) -> Vec<Ino> {
    let mut inos: Vec<Ino> = batch
        .iter()
        .map(|i| match i {
            MigrateItem::Block(ino, _) => *ino,
            MigrateItem::Inode(ino) => *ino,
        })
        .collect();
    inos.dedup();
    inos
}

fn cand(size: u64, atime: u64, mtime: u64) -> Candidate {
    Candidate {
        path: "/x".into(),
        ino: 1,
        size,
        atime,
        mtime,
        unit: "x".into(),
    }
}

// ---------------------------------------------------------------------
// StpPolicy
// ---------------------------------------------------------------------

#[test]
fn stp_score_orders_by_space_time_product() {
    let p = StpPolicy::paper();
    let now = secs(1000.0);
    // Same age: bigger file scores higher.
    assert!(p.score(&cand(1 << 20, 0, 0), now) > p.score(&cand(1 << 10, 0, 0), now));
    // Same size: older file scores higher.
    assert!(p.score(&cand(1 << 20, 0, 0), now) > p.score(&cand(1 << 20, secs(900.0), 0), now));
    // Age counts from the *freshest* of atime/mtime.
    assert_eq!(
        p.score(&cand(1 << 20, secs(900.0), secs(100.0)), now),
        p.score(&cand(1 << 20, secs(100.0), secs(900.0)), now)
    );
    // A small-but-ancient file can outrank a huge-but-hot one — the
    // space-time *product* is what ranks, not either factor alone.
    let ancient_small = cand(1 << 16, 0, 0);
    let hot_huge = cand(1 << 24, now - 1, now - 1);
    assert!(p.score(&ancient_small, now) > p.score(&hot_huge, now));
}

#[test]
fn stp_score_is_the_plain_product_of_size_and_age() {
    // Both exponents are 1 (§5.1): the score is (size + 1) · (age + 1),
    // so trading size for age at the same product ties.
    let p = StpPolicy::paper();
    let now = secs(100.0);
    let age = |t: u64| (now - t) as f64 + 1.0;
    assert_eq!(
        p.score(&cand(1 << 20, secs(40.0), 0), now),
        ((1u64 << 20) + 1) as f64 * age(secs(40.0))
    );
    assert_eq!(p.score(&cand(0, now, now), now), 1.0);
    assert_eq!(
        p.score(&cand(4095, now - 1, 0), now),
        p.score(&cand(1, now - 4095, 0), now)
    );
}

#[test]
fn stp_select_takes_the_highest_scored_file_first() {
    let (mut hl, clock) = mounted();
    // Old big file, then progressively newer/smaller ones.
    let f_old_big = create_file(&mut hl, "/old_big", 256 * 1024);
    clock.advance_by(secs(500.0));
    let f_mid = create_file(&mut hl, "/mid", 64 * 1024);
    clock.advance_by(secs(500.0));
    let f_new_small = create_file(&mut hl, "/new_small", 8 * 1024);
    clock.advance_by(secs(10.0));
    hl.sync().expect("sync");

    let tracker = AccessTracker::default();
    let now = clock.now();
    let mut p = StpPolicy::paper();
    // A tiny target: only the best candidate fits.
    let batches = p.select(hl.lfs(), &tracker, now, 1).expect("select");
    assert!(!batches.is_empty());
    let first = batch_inos(&batches[0].0);
    assert!(
        first.contains(&f_old_big),
        "old+big must outrank the rest: got inos {first:?}, expected {f_old_big}"
    );
    assert!(!first.contains(&f_new_small));
    assert!(!first.contains(&f_mid));
    // STP batches carry no unit label (whole-file, not clustered).
    assert_eq!(batches[0].1, None);
}

// ---------------------------------------------------------------------
// NamespacePolicy
// ---------------------------------------------------------------------

#[test]
fn namespace_policy_groups_files_into_subtree_units() {
    let (mut hl, clock) = mounted();
    hl.mkdir("/proj_a").expect("mkdir");
    hl.mkdir("/proj_a/src").expect("mkdir");
    hl.mkdir("/proj_b").expect("mkdir");
    let a1 = create_file(&mut hl, "/proj_a/README", 16 * 1024);
    let a2 = create_file(&mut hl, "/proj_a/src/main.c", 48 * 1024);
    let b1 = create_file(&mut hl, "/proj_b/notes", 32 * 1024);
    // Everything ages far past the active window; then /proj_b is
    // touched again, making it unstable.
    clock.advance_by(secs(100_000.0));
    hl.write(b1, 0, &[1u8; 4096]).expect("rewrite");
    hl.sync().expect("sync");

    let tracker = AccessTracker::default();
    let now = clock.now();
    let mut p = NamespacePolicy::new("/");
    let batches = p.select(hl.lfs(), &tracker, now, u64::MAX).expect("select");
    // Unit proj_a migrates as ONE batch holding BOTH its files —
    // including the nested subdirectory — with a unit label for
    // clustering. Recently-modified proj_b is withheld.
    let a_batch = batches
        .iter()
        .find(|(items, _)| batch_inos(items).contains(&a1))
        .expect("proj_a selected");
    let inos = batch_inos(&a_batch.0);
    assert!(inos.contains(&a2), "unit must carry its whole subtree");
    assert!(a_batch.1.is_some(), "unit batches carry a cluster label");
    assert!(
        !batches
            .iter()
            .any(|(items, _)| batch_inos(items).contains(&b1)),
        "recently-modified unit must be withheld"
    );
}

#[test]
fn namespace_policy_migrates_mostly_dormant_units_despite_fresh_reads() {
    let (mut hl, clock) = mounted();
    hl.mkdir("/archive").expect("mkdir");
    let big = create_file(&mut hl, "/archive/corpus", 512 * 1024);
    let small = create_file(&mut hl, "/archive/index", 4 * 1024);
    clock.advance_by(secs(100_000.0));
    // A fresh *read* of the small index: the unit is ≥ 99% dormant by
    // bytes, so §5.3's secondary criterion ignores the fresh atime.
    let mut buf = [0u8; 512];
    hl.read(small, 0, &mut buf).expect("read");
    hl.sync().expect("sync");

    let tracker = AccessTracker::default();
    let now = clock.now();
    let mut p = NamespacePolicy::new("/");
    let batches = p.select(hl.lfs(), &tracker, now, u64::MAX).expect("select");
    assert!(
        batches
            .iter()
            .any(|(items, _)| batch_inos(items).contains(&big)),
        "mostly-dormant unit must migrate despite one fresh access"
    );
}

// ---------------------------------------------------------------------
// BlockRangePolicy
// ---------------------------------------------------------------------

#[test]
fn block_range_policy_migrates_only_cold_block_ranges() {
    let (mut hl, clock) = mounted();
    let bs = BLOCK_SIZE;
    // 16-block file; the tracker has seen the first 4 blocks recently
    // and the rest long ago.
    let f = create_file(&mut hl, "/mixed", 16 * bs);
    let mut tracker = AccessTracker::default();
    tracker.record(f, 0, 16 * bs as u64, clock.now());
    clock.advance_by(secs(10_000.0));
    tracker.record(f, 0, 4 * bs as u64, clock.now());
    hl.sync().expect("sync");

    let mut p = BlockRangePolicy {
        idle_threshold: secs(3600.0),
        root: "/".to_string(),
    };
    let batches = p
        .select(hl.lfs(), &tracker, clock.now(), u64::MAX)
        .expect("select");
    let blocks: Vec<u32> = batches
        .iter()
        .flat_map(|(items, _)| items.iter())
        .filter_map(|i| match i {
            MigrateItem::Block(ino, hl_lfs::types::LBlock::Data(b)) if *ino == f => Some(*b),
            _ => None,
        })
        .collect();
    assert!(!blocks.is_empty(), "cold tail must migrate");
    assert!(
        blocks.iter().all(|&b| b >= 4),
        "hot head blocks 0..4 must stay on disk: got {blocks:?}"
    );
    assert!(blocks.contains(&15), "the coldest tail block migrates");
}

#[test]
fn block_range_policy_edge_cases() {
    let (mut hl, clock) = mounted();
    // An empty file produces no items at all.
    let empty = hl.create("/empty").expect("create");
    // An untracked file migrates whole only once idle past threshold.
    let untracked = create_file(&mut hl, "/untracked", 8 * BLOCK_SIZE);
    hl.sync().expect("sync");

    let tracker = AccessTracker::default();
    let mut p = BlockRangePolicy {
        idle_threshold: secs(3600.0),
        root: "/".to_string(),
    };

    // Fresh: nothing qualifies.
    let batches = p
        .select(hl.lfs(), &tracker, clock.now(), u64::MAX)
        .expect("select");
    assert!(
        batches.iter().all(|(items, _)| {
            !batch_inos(items).contains(&untracked) && !batch_inos(items).contains(&empty)
        }),
        "nothing idle yet"
    );

    // Idle past threshold: the untracked file goes whole; the empty
    // file still produces nothing.
    clock.advance_by(secs(10_000.0));
    let batches = p
        .select(hl.lfs(), &tracker, clock.now(), u64::MAX)
        .expect("select");
    assert!(batches
        .iter()
        .any(|(items, _)| batch_inos(items).contains(&untracked)));
    assert!(batches
        .iter()
        .all(|(items, _)| !batch_inos(items).contains(&empty)));

    // Zero byte target: select returns no batches.
    let none = p
        .select(hl.lfs(), &tracker, clock.now(), 0)
        .expect("select");
    assert!(
        none.iter().all(|(items, _)| items.is_empty()) || none.is_empty(),
        "zero target selects nothing"
    );
}

#[test]
fn block_range_policy_tolerates_extents_past_eof() {
    let (mut hl, clock) = mounted();
    let f = create_file(&mut hl, "/shrunk", 8 * BLOCK_SIZE);
    let mut tracker = AccessTracker::default();
    // The tracker saw 32 blocks; the file only has 8 (as after a
    // truncate): e.end > nblocks must clamp, not panic.
    tracker.record(f, 0, 32 * BLOCK_SIZE as u64, clock.now());
    clock.advance_by(secs(10.0));
    hl.sync().expect("sync");

    let mut p = BlockRangePolicy {
        idle_threshold: secs(3600.0),
        root: "/".to_string(),
    };
    let batches = p
        .select(hl.lfs(), &tracker, clock.now(), u64::MAX)
        .expect("select survives overlong extents");
    // The extent is hot (just recorded), so nothing migrates.
    assert!(batches
        .iter()
        .all(|(items, _)| !batch_inos(items).contains(&f)));
}

/// A new file does not inherit the access record of the unlinked file
/// whose inode number it reuses: `GenerationalPolicy` and
/// `BlockRangePolicy` would otherwise read the dead file's extents.
#[test]
fn a_reused_inode_number_starts_with_no_access_record() {
    let (mut hl, _clock) = mounted();
    let a = create_file(&mut hl, "/a", 1 << 20);
    let mut buf = vec![0u8; 1 << 20];
    hl.read(a, 0, &mut buf).expect("read");
    assert!(!hl.tracker.extents(a).is_empty(), "the read was recorded");
    hl.unlink("/a").expect("unlink");
    let b = hl.create("/b").expect("create");
    assert_eq!(b, a, "the inode number is reused");
    assert!(hl.tracker.extents(b).is_empty(), "/b inherited /a's record");
}
