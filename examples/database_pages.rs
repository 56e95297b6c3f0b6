//! POSTGRES-style database pages over HighLight (§5.2, §8.1).
//!
//! "Database files tend to be large, may be accessed randomly and
//! incompletely ... Block-based migration can be useful, since it allows
//! old, unreferenced data within a file to migrate to tertiary storage
//! while active data in the same file remain on secondary storage."
//!
//! A 60 MB relation gets skewed page traffic (hot head, cold tail); the
//! block-range policy migrates only the cold extent, and the hot pages
//! keep disk-speed latency afterwards.
//!
//! ```text
//! cargo run --release --example database_pages
//! ```

use highlight::migrator::{BlockRangePolicy, MigrationPolicy};
use highlight::rig::{hp6300, HlRig, RZ57_BLOCKS};
use hl_sim::time::{as_secs, secs};
use hl_workload::sequoia::DatabasePages;

const PAGE: usize = 4096;
const PAGES: u64 = 15_000; // ~60 MB relation

fn main() {
    let rig = HlRig::new(RZ57_BLOCKS, hp6300(8, 40), 48, None);
    rig.mkfs();
    let mut hl = rig.mount();
    let clock = &rig.clock;
    // Finer-grained range records for the page-access pattern (§5.2's
    // granularity/overhead tradeoff).
    hl.tracker.max_extents = 64;

    // Load the relation.
    hl.mkdir("/pg").expect("mkdir");
    let rel = hl.create("/pg/relation.heap").expect("create");
    let slab = vec![0x42u8; 256 * PAGE];
    let mut off = 0u64;
    while off < PAGES * PAGE as u64 {
        hl.write(rel, off, &slab).expect("load");
        off += slab.len() as u64;
    }
    hl.sync().expect("sync");
    println!("loaded a {} MB relation", PAGES * PAGE as u64 / (1 << 20));

    // A query burst touches pages with a 90/10 skew; the access tracker
    // records the touched ranges (§5.2's sequentiality extents).
    let mut db = DatabasePages::new(7, PAGES);
    let mut page = vec![0u8; PAGE];
    for _ in 0..2_000 {
        let p = db.next_page();
        hl.read(rel, p * PAGE as u64, &mut page).expect("query");
    }
    println!(
        "query burst done; tracker recorded {} extent(s)",
        hl.tracker.extents(rel).len()
    );

    // Time passes; the block-range policy migrates only the cold ranges.
    clock.advance_by(secs(30.0 * 24.0 * 3600.0));
    // One more (recent) burst keeps the hot head hot.
    for _ in 0..500 {
        let p = db.next_page();
        hl.read(rel, p * PAGE as u64, &mut page).expect("query");
    }
    hl.sync().expect("sync");
    let mut policy = BlockRangePolicy {
        idle_threshold: secs(24.0 * 3600.0),
        root: "/pg".into(),
    };
    let tracker = hl.tracker.clone();
    let now = clock.now();
    let batches = policy
        .select(hl.lfs(), &tracker, now, 64 * 1024 * 1024)
        .expect("policy");
    let mut moved = 0;
    for (items, unit) in batches {
        let s = hl.migrate_items(&items, unit).expect("migrate");
        moved += s.blocks;
    }
    let mut tail = Default::default();
    hl.seal_staging(&mut tail).expect("seal");
    println!(
        "block-range policy migrated {} cold pages ({} MB); hot head stays on disk",
        moved,
        moved * PAGE as u64 / (1 << 20)
    );

    // Hot pages remain disk-fast; a deep cold probe pays the tape price.
    hl.eject_all();
    hl.drop_caches();
    let t0 = clock.now();
    for _ in 0..50 {
        let p = db.next_page() % 1_000; // hot head
        hl.read(rel, p * PAGE as u64, &mut page).expect("hot read");
    }
    let hot = clock.now() - t0;
    let t1 = clock.now();
    hl.read(rel, (PAGES - 10) * PAGE as u64, &mut page)
        .expect("cold read");
    let cold = clock.now() - t1;
    println!(
        "50 hot-page reads: {:.2} s total; one cold tail page: {:.2} s \
         (demand fetch from the jukebox)",
        as_secs(hot),
        as_secs(cold)
    );
    assert!(cold > hot, "cold read should dwarf the whole hot burst");
}
