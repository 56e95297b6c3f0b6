//! Sequoia satellite-image archive (§2): datasets of large, stable image
//! files are loaded, go cold, and migrate as namespace units (§5.3);
//! later analysis re-reads one dataset and unit-hint prefetching pulls
//! its sibling segments in ahead of the reader.
//!
//! ```text
//! cargo run --release --example sequoia_satellite
//! ```

use highlight::migrator::{MigrationPolicy, NamespacePolicy};
use highlight::rig::{hp6300, HlRig, RZ57_BLOCKS};
use highlight::PrefetchPolicy;
use hl_sim::time::{as_secs, secs};
use hl_workload::sequoia::SatelliteArchive;

fn main() {
    let mut rig = HlRig::new(RZ57_BLOCKS, hp6300(8, 40), 48, None);
    rig.cfg.prefetch = PrefetchPolicy::UnitHints;
    rig.mkfs();
    let mut hl = rig.mount();
    let clock = &rig.clock;

    // Load 4 datasets of 6 × 2 MB images.
    let archive = SatelliteArchive::new(42, 4, 6, 2 * 1024 * 1024);
    hl.mkdir("/archive").expect("mkdir");
    for d in archive.directories() {
        hl.mkdir(&d).expect("mkdir dataset");
    }
    for (i, (path, size)) in archive.images.iter().enumerate() {
        let ino = hl.create(path).expect("create");
        let img: Vec<u8> = (0..*size)
            .map(|b| (b as u8).wrapping_add(i as u8))
            .collect();
        hl.write(ino, 0, &img).expect("write");
    }
    hl.sync().expect("sync");
    println!(
        "loaded {} images ({} MB) across {} datasets",
        archive.images.len(),
        archive.images.iter().map(|(_, s)| s).sum::<u64>() / (1 << 20),
        archive.directories().len()
    );

    // Months pass; the data go cold. The namespace policy migrates whole
    // dataset subtrees, clustering each unit's segments together.
    clock.advance_by(secs(90.0 * 24.0 * 3600.0));
    let mut policy = NamespacePolicy::new("/archive");
    let tracker = hl.tracker.clone();
    let now = clock.now();
    let batches = policy
        .select(hl.lfs(), &tracker, now, 64 * 1024 * 1024)
        .expect("policy");
    println!(
        "namespace policy selected {} unit(s) for migration",
        batches.len()
    );
    for (items, unit) in batches {
        hl.migrate_items(&items, unit).expect("migrate unit");
    }
    let mut tail = Default::default();
    hl.seal_staging(&mut tail).expect("seal");
    println!(
        "tertiary now holds {} MB live",
        hl.tertiary_live_bytes() / (1 << 20)
    );

    // Analysis season: re-read one whole dataset, cold.
    hl.eject_all();
    hl.drop_caches();
    let dataset = &archive.directories()[1];
    let t0 = clock.now();
    let mut total = 0u64;
    for (path, size) in archive
        .images
        .iter()
        .filter(|(p, _)| p.starts_with(dataset))
    {
        let ino = hl.lookup(path).expect("lookup");
        let mut buf = vec![0u8; 256 * 1024];
        let mut off = 0;
        while off < *size {
            let n = hl.read(ino, off, &mut buf).expect("read");
            if n == 0 {
                break;
            }
            off += n as u64;
        }
        total += size;
    }
    let svc = hl.tio().stats();
    println!(
        "re-read dataset {dataset} ({} MB) in {:.1} s with {} demand fetches \
         (unit-hint prefetch overlapped the tape reads)",
        total / (1 << 20),
        as_secs(clock.now() - t0),
        svc.demand_fetches,
    );
}
