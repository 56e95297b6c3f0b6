//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Run all with `cargo bench -p hl-bench --bench ablations`, or one
//! study with e.g. `-- cache`.

use std::rc::Rc;

use highlight::fs::CopyOutMode;
use highlight::migrator::{BlockRangePolicy, MigrationPolicy, NamespacePolicy, StpPolicy};
use highlight::rig::{hp6300, HlRig};
use highlight::{EjectPolicy, HighLight, HlConfig, PrefetchPolicy};
use hl_bench::table::{print_table, Row};
use hl_footprint::JukeboxConfig;
use hl_sim::time::as_secs;
use hl_sim::Clock;
use hl_vdev::{BlockDev, Disk, DiskProfile};

/// A small HighLight instance: 64 MB of disk, 6×10 MB volumes, 8 cache
/// lines, with `cfg_mut` applied before it is formatted.
fn mini(cfg_mut: impl FnOnce(&mut HlConfig)) -> HighLight {
    let mut rig = HlRig::new(2 + 64 * 256, hp6300(6, 10), 8, None);
    cfg_mut(&mut rig.cfg);
    rig.mkfs();
    rig.mount()
}

fn filled(len: usize, seed: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u8) ^ seed).collect()
}

/// Migrates `n` 1 MB files named `/m{i}`.
fn migrate_files(hl: &mut HighLight, n: u32) {
    for i in 0..n {
        let p = format!("/m{i}");
        let ino = hl.create(&p).expect("create");
        hl.write(ino, 0, &filled(1_000_000, i as u8))
            .expect("write");
        hl.sync().expect("sync");
        hl.migrate_file(&p, false, None).expect("migrate");
        let mut t = Default::default();
        hl.seal_staging(&mut t).expect("seal");
    }
}

/// Cache ejection policies under a scan-plus-working-set access mix.
fn ablation_cache() {
    let mut rows = Vec::new();
    for (name, policy) in [
        ("LRU", EjectPolicy::Lru),
        ("random", EjectPolicy::Random(42)),
        ("fetch-time FIFO", EjectPolicy::FetchTime),
        ("least-worthy (§10)", EjectPolicy::LeastWorthy),
    ] {
        let mut hl = mini(|c| c.eject = policy);
        migrate_files(&mut hl, 15);
        hl.eject_all();
        hl.drop_caches();
        // A 6-file working set is re-read every round while a one-time
        // scan walks 3 *new* files per round (§10's "bypass the cache on
        // first reference" scenario), against the rig's 8 cache lines.
        let mut buf = vec![0u8; 64 * 1024];
        for round in 0..4u32 {
            // Working set (files 0..5), twice with buffer drops so the
            // re-touch reaches the segment cache.
            for _ in 0..2 {
                for i in 0..6 {
                    let ino = hl.lookup(&format!("/m{i}")).expect("lookup");
                    hl.read(ino, 0, &mut buf).expect("read");
                }
                hl.drop_caches();
            }
            if round < 3 {
                // One-time scan: 3 files never seen before.
                for i in (6 + round * 3)..(6 + round * 3 + 3) {
                    let ino = hl.lookup(&format!("/m{i}")).expect("lookup");
                    hl.read(ino, 0, &mut buf).expect("read");
                }
            }
            hl.drop_caches();
        }
        let fetches = hl.tio().stats().demand_fetches;
        rows.push(Row {
            label: name.into(),
            paper: "-".into(),
            measured: format!("{fetches} demand fetches"),
        });
    }
    print_table(
        "Ablation: cache ejection policy (one-time scans vs working set; lower is better)",
        ("policy", "paper", "measured"),
        &rows,
    );
}

/// Immediate vs delayed copy-out: how long the migrator blocks.
fn ablation_copyout() {
    let mut rows = Vec::new();
    for (name, mode) in [
        ("immediate (§5.4)", CopyOutMode::Immediate),
        ("delayed, pipeline 4", CopyOutMode::Delayed { pipeline: 4 }),
        ("delayed, pipeline 8", CopyOutMode::Delayed { pipeline: 8 }),
    ] {
        let mut hl = mini(|c| c.copyout = mode);
        // Time the migration burst itself (what blocks the foreground).
        for i in 0..6u32 {
            let p = format!("/m{i}");
            let ino = hl.create(&p).expect("create");
            hl.write(ino, 0, &filled(1_000_000, i as u8))
                .expect("write");
        }
        hl.sync().expect("sync");
        let t0 = hl.clock().now();
        for i in 0..6u32 {
            hl.migrate_file(&format!("/m{i}"), false, None)
                .expect("migrate");
            let mut t = Default::default();
            hl.seal_staging(&mut t).expect("seal");
        }
        let burst = hl.clock().now() - t0;
        let t1 = hl.clock().now();
        hl.drain_copyouts().expect("drain");
        let drain = hl.clock().now() - t1;
        rows.push(Row {
            label: name.into(),
            paper: "-".into(),
            measured: format!(
                "burst {:.1}s + idle drain {:.1}s",
                as_secs(burst),
                as_secs(drain)
            ),
        });
    }
    print_table(
        "Ablation: copy-out scheduling (burst = time the migrator holds the system)",
        ("mode", "paper", "measured"),
        &rows,
    );
}

/// Migration policy choice: who avoids fetching back the hot data?
fn ablation_policy() {
    let mut rows = Vec::new();
    type PolicyCtor = fn() -> Box<dyn MigrationPolicy>;
    let stp_11: PolicyCtor = || Box::new(StpPolicy::paper());
    let stp_age: PolicyCtor = || {
        Box::new(StpPolicy {
            size_exp: 0.0,
            age_exp: 1.0,
            ..StpPolicy::paper()
        })
    };
    let stp_size2: PolicyCtor = || {
        Box::new(StpPolicy {
            size_exp: 2.0,
            age_exp: 1.0,
            ..StpPolicy::paper()
        })
    };
    let ns: PolicyCtor = || Box::new(NamespacePolicy::new("/"));
    let br: PolicyCtor = || {
        Box::new(BlockRangePolicy {
            idle_threshold: hl_sim::time::secs(100.0),
            root: "/".into(),
        })
    };
    for (name, ctor) in [
        ("STP size^1*age^1 (paper)", stp_11),
        ("age-only (size^0)", stp_age),
        ("STP size^2*age^1", stp_size2),
        ("namespace units (§5.3)", ns),
        ("block ranges (§5.2)", br),
    ] {
        let mut hl = mini(|_| {});
        // Two project trees: one cold, one hot.
        for proj in ["cold", "hot"] {
            hl.mkdir(&format!("/{proj}")).expect("mkdir");
            for i in 0..4 {
                let p = format!("/{proj}/f{i}");
                let ino = hl.create(&p).expect("create");
                hl.write(ino, 0, &filled(700_000, i as u8)).expect("write");
            }
        }
        hl.sync().expect("sync");
        // Age passes; the hot tree is touched again recently.
        hl.clock().advance_by(hl_sim::time::secs(10_000.0));
        let mut buf = vec![0u8; 4096];
        for i in 0..4 {
            let ino = hl.lookup(&format!("/hot/f{i}")).expect("lookup");
            hl.read(ino, 0, &mut buf).expect("read");
        }
        hl.sync().expect("sync");
        // Policy migrates ~3 MB.
        let mut mig = highlight::Migrator {
            policy: ctor(),
            low_water_segs: 0,
            high_water_segs: 0,
        };
        mig.migrate_bytes(&mut hl, 3_000_000).expect("migrate");
        hl.drain_copyouts().expect("drain");
        // Re-access the hot tree: fetches = cost of bad decisions.
        hl.eject_all();
        hl.drop_caches();
        let f0 = hl.tio().stats().demand_fetches;
        let mut big = vec![0u8; 700_000];
        for i in 0..4 {
            let ino = hl.lookup(&format!("/hot/f{i}")).expect("lookup");
            hl.read(ino, 0, &mut big).expect("read");
        }
        let fetches = hl.tio().stats().demand_fetches - f0;
        rows.push(Row {
            label: name.into(),
            paper: "-".into(),
            measured: format!("{fetches} fetches re-reading hot set"),
        });
    }
    print_table(
        "Ablation: migration policy (hot-set re-read cost; lower is better)",
        ("policy", "paper", "measured"),
        &rows,
    );
}

/// Segment size: fetch latency vs summary overhead.
fn ablation_segsize() {
    let mut rows = Vec::new();
    for (name, seg_bytes) in [
        ("512 KB segments", 512 * 1024u32),
        ("1 MB segments", 1 << 20),
    ] {
        let mut rig = HlRig::new(
            2 + 64 * 256,
            JukeboxConfig {
                segment_bytes: seg_bytes as usize,
                ..hp6300(6, 10 * ((1 << 20) / seg_bytes))
            },
            12,
            None,
        );
        rig.cfg.lfs.seg_bytes = seg_bytes;
        rig.mkfs();
        let mut hl = rig.mount();
        let ino = hl.create("/f").expect("create");
        hl.write(ino, 0, &filled(3_000_000, 1)).expect("write");
        hl.sync().expect("sync");
        hl.migrate_file("/f", false, None).expect("migrate");
        let mut t = Default::default();
        hl.seal_staging(&mut t).expect("seal");
        hl.eject_all();
        hl.drop_caches();
        // First-byte latency (one segment fetch).
        let t0 = rig.clock.now();
        let mut small = [0u8; 4096];
        hl.read(ino, 0, &mut small).expect("read");
        let first = rig.clock.now() - t0;
        // Whole-file latency.
        let t1 = rig.clock.now();
        let mut big = vec![0u8; 3_000_000];
        hl.read(ino, 0, &mut big).expect("read");
        let total = rig.clock.now() - t1 + first;
        rows.push(Row {
            label: name.into(),
            paper: "-".into(),
            measured: format!(
                "first byte {:.2}s, 3MB total {:.2}s",
                as_secs(first),
                as_secs(total)
            ),
        });
    }
    print_table(
        "Ablation: segment (cache line) size — fetch granularity tradeoff",
        ("config", "paper", "measured"),
        &rows,
    );
}

/// Metadata placement: inode on disk vs migrated with the data.
fn ablation_metadata() {
    let mut rows = Vec::new();
    for (name, migrate_inode) in [
        ("metadata stays on disk (§8.2)", false),
        ("metadata migrates", true),
    ] {
        let mut hl = mini(|_| {});
        let ino = hl.create("/f").expect("create");
        hl.write(ino, 0, &filled(900_000, 1)).expect("write");
        hl.sync().expect("sync");
        hl.migrate_file("/f", migrate_inode, None).expect("migrate");
        let mut t = Default::default();
        hl.seal_staging(&mut t).expect("seal");
        hl.eject_all();
        hl.drop_caches();
        let t0 = hl.clock().now();
        let resolved = hl.lookup("/f").expect("lookup");
        let mut buf = [0u8; 4096];
        hl.read(resolved, 0, &mut buf).expect("read");
        let first = hl.clock().now() - t0;
        rows.push(Row {
            label: name.into(),
            paper: "-".into(),
            measured: format!("first byte {:.2}s", as_secs(first)),
        });
    }
    print_table(
        "Ablation: metadata placement (both ~1 fetch: the inode rides in the data's first segment)",
        ("config", "paper", "measured"),
        &rows,
    );
}

/// Prefetch policies on a multi-segment sequential read.
fn ablation_prefetch() {
    let mut rows = Vec::new();
    for (name, policy) in [
        ("none", PrefetchPolicy::None),
        ("next-segment(2)", PrefetchPolicy::NextSegments(2)),
        ("unit hints (§5.3)", PrefetchPolicy::UnitHints),
    ] {
        let mut hl = mini(|c| c.prefetch = policy.clone());
        // One 4 MB file = 5 tertiary segments, labelled as one unit.
        let ino = hl.create("/unitfile").expect("create");
        hl.write(ino, 0, &filled(4_000_000, 2)).expect("write");
        hl.sync().expect("sync");
        let items = hl.lfs().whole_file_items(ino, false).expect("items");
        hl.migrate_items(&items, Some(7)).expect("migrate");
        let mut t = Default::default();
        hl.seal_staging(&mut t).expect("seal");
        hl.eject_all();
        hl.drop_caches();
        // Read stdio-style (64 KB buffer): the prefetcher sees each
        // segment boundary as it is crossed.
        let t0 = hl.clock().now();
        let mut buf = vec![0u8; 64 * 1024];
        let mut off = 0u64;
        while off < 4_000_000 {
            let n = hl.read(ino, off, &mut buf).expect("read");
            if n == 0 {
                break;
            }
            off += n as u64;
        }
        rows.push(Row {
            label: name.into(),
            paper: "-".into(),
            measured: format!("4MB cold read {:.2}s", as_secs(hl.clock().now() - t0)),
        });
    }
    print_table(
        "Ablation: prefetch policy on a cold sequential multi-segment read",
        ("policy", "paper", "measured"),
        &rows,
    );
}

/// Cleaner policy under skewed overwrites: write cost of cleaning.
fn ablation_cleaner() {
    use hl_lfs::{CleanerPolicy, Ufs};
    let mut rows = Vec::new();
    for (name, policy) in [
        ("greedy", CleanerPolicy::Greedy),
        ("cost-benefit (Sprite)", CleanerPolicy::CostBenefit),
    ] {
        let clock = Clock::new();
        let disk = Rc::new(Disk::new(DiskProfile::RZ57, 2 + 24 * 256, None));
        let amap = Rc::new(hl_lfs::LinearMap::for_device(disk.nblocks(), 256, 2));
        let mut cfg = hl_lfs::LfsConfig::base(clock.clone());
        cfg.cleaner_policy = policy;
        cfg.min_clean_segs = 4;
        hl_lfs::Lfs::mkfs(
            disk.clone() as Rc<dyn BlockDev>,
            amap.clone(),
            Rc::new(hl_lfs::NoTertiary),
            cfg.clone(),
        )
        .expect("mkfs");
        let mut fs = hl_lfs::Lfs::mount(
            disk as Rc<dyn BlockDev>,
            amap,
            Rc::new(hl_lfs::NoTertiary),
            cfg,
        )
        .expect("mount");
        // Skewed churn with *mixed* segments: every round appends a
        // slice of cold (never-overwritten) data and rewrites a hot
        // 0.75 MB region, so reclaimed segments carry some live bytes.
        let cold = fs.create("/cold").expect("create");
        let hot = fs.create("/hot").expect("create");
        for round in 0..40u64 {
            fs.write(cold, round * 200_000, &filled(200_000, 1))
                .expect("cold");
            fs.write(hot, 0, &filled(750_000, round as u8))
                .expect("hot");
            fs.sync().expect("sync");
        }
        let st = fs.stats();
        rows.push(Row {
            label: name.into(),
            paper: "-".into(),
            measured: format!(
                "{} live blocks copied over {} reclaims",
                st.blocks_cleaned, st.segs_reclaimed
            ),
        });
    }
    print_table(
        "Ablation: cleaner victim policy under skewed churn (fewer copies is cheaper)",
        ("policy", "paper", "measured"),
        &rows,
    );
}

/// Segment replicas (§5.4 variant): read-closest vs single copy.
fn ablation_replicas() {
    let mut rows = Vec::new();
    for (name, copies) in [("single copy", 0u32), ("1 replica, read-closest", 1)] {
        let mut hl = mini(|_| {});
        hl.tio().set_replication(copies);
        migrate_files(&mut hl, 4);
        // Access pattern that ping-pongs between two files on different
        // volumes... with one volume per 10 segments all 4 land on
        // volume 0; replicas land on volume 1. Force the reader drive to
        // hold volume 1 by reading a replica home directly, then time a
        // fetch of each file: with replicas the loaded volume serves.
        hl.eject_all();
        hl.drop_caches();
        let t0 = hl.clock().now();
        let mut buf = vec![0u8; 64 * 1024];
        for i in 0..4 {
            let ino = hl.lookup(&format!("/m{i}")).expect("lookup");
            hl.read(ino, 0, &mut buf).expect("read");
        }
        rows.push(Row {
            label: name.into(),
            paper: "-".into(),
            measured: format!(
                "4 cold files in {:.1}s, {} replicated segs",
                as_secs(hl.clock().now() - t0),
                hl.tio().replicas().borrow().replicated_segments()
            ),
        });
    }
    print_table(
        "Ablation: segment replicas (§5.4) — replica bookkeeping and read-closest",
        ("config", "paper", "measured"),
        &rows,
    );
}

fn main() {
    let only: Option<String> = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    let want = |name: &str| only.as_deref().map(|o| o.contains(name)).unwrap_or(true);
    if want("cache") {
        ablation_cache();
    }
    if want("copyout") {
        ablation_copyout();
    }
    if want("policy") {
        ablation_policy();
    }
    if want("segsize") {
        ablation_segsize();
    }
    if want("metadata") {
        ablation_metadata();
    }
    if want("prefetch") {
        ablation_prefetch();
    }
    if want("cleaner") {
        ablation_cleaner();
    }
    if want("replicas") {
        ablation_replicas();
    }
}
