//! Ablation studies for the design choices DESIGN.md §5 calls out.
//!
//! Each study states what the paper section it cites predicts and runs
//! its arms. A study whose prediction held at its first run asserts it
//! through [`Checks`], so the bench exits non-zero when it stops
//! holding; a prediction that failed is printed as a recorded miss, and
//! the cleaner study (not yet a fair test of cost-benefit, ROADMAP item
//! 13) is pinned only. Every study's figures go to
//! `BENCH_ablations.json` at the repository root: simulated time, so it
//! regenerates byte-identically and `ci.sh` diffs it.
//!
//! Each study's header lists the arm swap that was seen to turn its
//! check red (the arms' settings exchanged, the check left as it is).
//!
//! Run all with `cargo bench -p hl-bench --bench ablations`, or one
//! study with e.g. `-- cache` (a single study writes no JSON).

use std::rc::Rc;

use highlight::fs::CopyOutMode;
use highlight::migrator::{BlockRangePolicy, MigrationPolicy, NamespacePolicy, StpPolicy};
use highlight::rig::{hp6300, HlRig};
use highlight::{EjectPolicy, HighLight, HlConfig, PrefetchPolicy};
use hl_bench::report::{write_bench_json, Checks, Json};
use hl_bench::table::{print_table, Row};
use hl_footprint::JukeboxConfig;
use hl_sim::time::{as_secs, SimTime};
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

fn row(label: &str, measured: String) -> Row {
    Row {
        label: label.into(),
        paper: "-".into(),
        measured,
    }
}

/// A prediction that failed at its study's first run: printed with its
/// outcome, not asserted.
fn recorded(label: String, held: bool) {
    println!("  recorded, not asserted: {label}: {held}");
}

/// Cache ejection (§10). Prediction: least-worthy needs fewer demand
/// fetches than LRU, because a line fetched once is ejected first, so a
/// one-time scan recycles one line instead of flushing the working set.
/// Seen red with the LRU and least-worthy arms swapped.
fn ablation_cache(checks: &mut Checks) -> Json {
    let [lru, random, worthy] = [
        EjectPolicy::Lru,
        EjectPolicy::Random(42),
        EjectPolicy::LeastWorthy,
    ]
    .map(|policy| {
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
        hl.tio().stats().demand_fetches
    });
    print_table(
        "Ablation: cache ejection policy (one-time scans vs working set; lower is better)",
        ("policy", "paper", "measured"),
        &[
            row("LRU", format!("{lru} demand fetches")),
            row("random", format!("{random} demand fetches")),
            row("least-worthy (§10)", format!("{worthy} demand fetches")),
        ],
    );
    checks.row(
        format!("cache (§10): least-worthy {worthy} fetches < LRU {lru}"),
        worthy < lru,
    );
    Json::obj([
        ("lru_fetches", lru.into()),
        ("random_fetches", random.into()),
        ("least_worthy_fetches", worthy.into()),
    ])
}

/// Copy-out scheduling (§5.4). Prediction: delayed copy-out holds the
/// system for a shorter burst than immediate copy-out, and leaves work
/// for the idle-period drain. `migrate_file` syncs first and a sync
/// drains the delayed queue, so here the queue holds at most the last
/// segment of each call and the drain copies out one segment.
/// Seen red with the immediate and delayed arms swapped: both checks.
fn ablation_copyout(checks: &mut Checks) -> Json {
    let [(imm_burst, imm_drain), (del_burst, del_drain)] =
        [CopyOutMode::Immediate, CopyOutMode::Delayed].map(|mode| {
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
            (burst, hl.clock().now() - t1)
        });
    let shown = |burst, drain| {
        format!(
            "burst {:.1}s + idle drain {:.1}s",
            as_secs(burst),
            as_secs(drain)
        )
    };
    print_table(
        "Ablation: copy-out scheduling (burst = time the migrator holds the system)",
        ("mode", "paper", "measured"),
        &[
            row("immediate (§5.4)", shown(imm_burst, imm_drain)),
            row("delayed", shown(del_burst, del_drain)),
        ],
    );
    checks.row(
        format!(
            "copy-out (§5.4): delayed burst {:.1}s < immediate {:.1}s",
            as_secs(del_burst),
            as_secs(imm_burst)
        ),
        del_burst < imm_burst,
    );
    checks.row(
        format!(
            "copy-out (§5.4): delayed drain {:.1}s > 0",
            as_secs(del_drain)
        ),
        del_drain > 0,
    );
    Json::obj([
        ("immediate_burst_us", imm_burst.into()),
        ("immediate_drain_us", imm_drain.into()),
        ("delayed_burst_us", del_burst.into()),
        ("delayed_drain_us", del_drain.into()),
    ])
}

/// Migration policy (§5.1–§5.3): who avoids fetching back the hot data?
/// Predictions, recorded and not asserted because the first failed at
/// the study's first run: block ranges (§5.2, sub-file precision) fetch
/// fewer than STP's whole files, and namespace units (§5.3's warning
/// about units with a few active files) fetch more than STP.
fn ablation_policy() -> Json {
    type PolicyCtor = fn() -> Box<dyn MigrationPolicy>;
    let stp: PolicyCtor = || Box::new(StpPolicy::paper());
    let ns: PolicyCtor = || Box::new(NamespacePolicy::new("/"));
    let br: PolicyCtor = || {
        Box::new(BlockRangePolicy {
            idle_threshold: hl_sim::time::secs(100.0),
            root: "/".into(),
        })
    };
    let [stp, ns, br] = [stp, ns, br].map(|ctor| {
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
        hl.tio().stats().demand_fetches - f0
    });
    let shown = |n| format!("{n} fetches re-reading hot set");
    print_table(
        "Ablation: migration policy (hot-set re-read cost; lower is better)",
        ("policy", "paper", "measured"),
        &[
            row("STP size*age (paper)", shown(stp)),
            row("namespace units (§5.3)", shown(ns)),
            row("block ranges (§5.2)", shown(br)),
        ],
    );
    recorded(
        format!("policy (§5.2): block ranges {br} fetches < STP {stp}"),
        br < stp,
    );
    recorded(
        format!("policy (§5.3): namespace units {ns} fetches > STP {stp}"),
        ns > stp,
    );
    Json::obj([
        ("stp_fetches", stp.into()),
        ("namespace_fetches", ns.into()),
        ("block_range_fetches", br.into()),
    ])
}

/// Segment size (§3, §6.3): fetch granularity. Prediction: a 512 KB
/// line's cold first byte comes before a 1 MB line's, since the fetch
/// moves half the bytes.
/// Seen red with the two segment sizes swapped.
fn ablation_segsize(checks: &mut Checks) -> Json {
    let [(half_first, half_total), (mb_first, mb_total)] =
        [512 * 1024u32, 1 << 20].map(|seg_bytes| {
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
            (first, rig.clock.now() - t1 + first)
        });
    let shown = |first, total| {
        format!(
            "first byte {:.2}s, 3MB total {:.2}s",
            as_secs(first),
            as_secs(total)
        )
    };
    print_table(
        "Ablation: segment (cache line) size — fetch granularity tradeoff",
        ("config", "paper", "measured"),
        &[
            row("512 KB segments", shown(half_first, half_total)),
            row("1 MB segments", shown(mb_first, mb_total)),
        ],
    );
    checks.row(
        format!(
            "segment size: 512 KB first byte {:.2}s < 1 MB {:.2}s",
            as_secs(half_first),
            as_secs(mb_first)
        ),
        half_first < mb_first,
    );
    Json::obj([
        ("seg_512k_first_byte_us", half_first.into()),
        ("seg_512k_total_us", half_total.into()),
        ("seg_1m_first_byte_us", mb_first.into()),
        ("seg_1m_total_us", mb_total.into()),
    ])
}

/// Metadata placement (§8.2): inode on disk vs migrated with the data.
/// Prediction: each arm's first byte costs exactly one fetch, because a
/// migrated inode travels with its data. Each arm's count is checked on
/// its own, so an arm swap leaves the check green; seen red with the
/// file grown to 1.5 MB, where the migrated inode, listed after the
/// data, lands in the second segment (2 fetches).
fn ablation_metadata(checks: &mut Checks) -> Json {
    let [(disk_first, disk_fetches), (mig_first, mig_fetches)] =
        [false, true].map(|migrate_inode| {
            let mut hl = mini(|_| {});
            let ino = hl.create("/f").expect("create");
            hl.write(ino, 0, &filled(900_000, 1)).expect("write");
            hl.sync().expect("sync");
            hl.migrate_file("/f", migrate_inode, None).expect("migrate");
            let mut t = Default::default();
            hl.seal_staging(&mut t).expect("seal");
            hl.eject_all();
            hl.drop_caches();
            let f0 = hl.tio().stats().demand_fetches;
            let t0 = hl.clock().now();
            let resolved = hl.lookup("/f").expect("lookup");
            let mut buf = [0u8; 4096];
            hl.read(resolved, 0, &mut buf).expect("read");
            (hl.clock().now() - t0, hl.tio().stats().demand_fetches - f0)
        });
    let shown = |first, fetches| format!("first byte {:.2}s, {fetches} fetch", as_secs(first));
    print_table(
        "Ablation: metadata placement (a one-segment file's inode rides with its data)",
        ("config", "paper", "measured"),
        &[
            row(
                "metadata stays on disk (§8.2)",
                shown(disk_first, disk_fetches),
            ),
            row("metadata migrates", shown(mig_first, mig_fetches)),
        ],
    );
    checks.row(
        format!("metadata (§8.2): on disk {disk_fetches} fetch, migrated {mig_fetches}: each 1"),
        disk_fetches == 1 && mig_fetches == 1,
    );
    Json::obj([
        ("on_disk_first_byte_us", disk_first.into()),
        ("on_disk_fetches", disk_fetches.into()),
        ("migrated_first_byte_us", mig_first.into()),
        ("migrated_fetches", mig_fetches.into()),
    ])
}

/// Prefetch (§5.3–§5.4) on a cold sequential multi-segment read.
/// Prediction: unit hints are no slower than next-segment prefetch,
/// which is no slower than none: tertiary reads overlap the disk's
/// consumption of the segment before.
/// Seen red with the none and unit-hint arms swapped.
fn ablation_prefetch(checks: &mut Checks) -> Json {
    let [none, next, unit] = [
        PrefetchPolicy::None,
        PrefetchPolicy::NextSegments(2),
        PrefetchPolicy::UnitHints,
    ]
    .map(|policy| {
        let mut hl = mini(|c| c.prefetch = policy);
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
        hl.clock().now() - t0
    });
    let shown = |t: SimTime| format!("4MB cold read {:.2}s", as_secs(t));
    print_table(
        "Ablation: prefetch policy on a cold sequential multi-segment read",
        ("policy", "paper", "measured"),
        &[
            row("none", shown(none)),
            row("next-segment(2)", shown(next)),
            row("unit hints (§5.3)", shown(unit)),
        ],
    );
    checks.row(
        format!(
            "prefetch (§5.3): unit hints {:.2}s <= next-segment {:.2}s <= none {:.2}s",
            as_secs(unit),
            as_secs(next),
            as_secs(none)
        ),
        unit <= next && next <= none,
    );
    Json::obj([
        ("none_us", none.into()),
        ("next_segment_us", next.into()),
        ("unit_hints_us", unit.into()),
    ])
}

/// Cleaner policy (§3) under skewed overwrites: write cost of cleaning.
/// Pinned, not asserted: Sprite LFS predicts cost-benefit copies fewer
/// live blocks than greedy under skew, but this cleaner ages a segment
/// by its last write, which cleaning resets, so the study is not yet a
/// fair test (ROADMAP item 13).
fn ablation_cleaner() -> Json {
    use hl_lfs::{CleanerPolicy, Ufs};
    let [greedy, cb] = [CleanerPolicy::Greedy, CleanerPolicy::CostBenefit].map(|policy| {
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
        (st.blocks_cleaned, st.segs_reclaimed)
    });
    let shown =
        |(copied, reclaims)| format!("{copied} live blocks copied over {reclaims} reclaims");
    print_table(
        "Ablation: cleaner victim policy under skewed churn (fewer copies is cheaper)",
        ("policy", "paper", "measured"),
        &[
            row("greedy", shown(greedy)),
            row("cost-benefit (Sprite)", shown(cb)),
        ],
    );
    recorded(
        format!(
            "cleaner (Sprite): cost-benefit {} blocks copied < greedy {}",
            cb.0, greedy.0
        ),
        cb.0 < greedy.0,
    );
    Json::obj([
        ("greedy_blocks_copied", greedy.0.into()),
        ("greedy_reclaims", greedy.1.into()),
        ("cost_benefit_blocks_copied", cb.0.into()),
        ("cost_benefit_reclaims", cb.1.into()),
    ])
}

/// Segment replicas (§5.4): "read the 'closest' copy, where close means
/// quickest access — ... seeking on a volume already in a drive".
/// Prediction: with one replica, read-closest reads four cold files
/// faster than a single copy does, once the drives hold the replicas'
/// volume and not the primaries'.
/// Seen red with the single-copy and one-replica arms swapped.
fn ablation_replicas(checks: &mut Checks) -> Json {
    let [single, replica] = [0u32, 1].map(|copies| {
        let mut hl = mini(|_| {});
        hl.tio().set_replication(copies);
        migrate_files(&mut hl, 4);
        hl.eject_all();
        hl.drop_caches();
        // With ten segments a volume all four primaries land on volume
        // 0 and their replicas on volume 1. Every drive first swaps in a
        // volume nothing lives on (2, 3, ...), then drive 0 swaps in
        // volume 1, so volume 0 sits in no drive: a primary read needs
        // a swap, a replica read does not.
        let jb = hl.tio().jukebox();
        let mut t = hl.clock().now();
        for (drive, vol) in (0..jb.drives()).map(|d| (d, 2 + d as u32)).chain([(0, 1)]) {
            t = jb.read_segment_on(t, drive, vol, 0).expect("load").0.end;
        }
        hl.clock().advance_to(t);
        let t0 = hl.clock().now();
        let mut buf = vec![0u8; 64 * 1024];
        for i in 0..4 {
            let ino = hl.lookup(&format!("/m{i}")).expect("lookup");
            hl.read(ino, 0, &mut buf).expect("read");
        }
        let replicated = hl.tio().replicas().borrow().replicated_segments();
        (hl.clock().now() - t0, replicated)
    });
    let shown = |(t, segs): (SimTime, usize)| {
        format!("4 cold files in {:.1}s, {segs} replicated segs", as_secs(t))
    };
    print_table(
        "Ablation: segment replicas (§5.4) — replica bookkeeping and read-closest",
        ("config", "paper", "measured"),
        &[
            row("single copy", shown(single)),
            row("1 replica, read-closest", shown(replica)),
        ],
    );
    checks.row(
        format!(
            "replicas (§5.4): read-closest {:.1}s < single copy {:.1}s",
            as_secs(replica.0),
            as_secs(single.0)
        ),
        replica.0 < single.0,
    );
    Json::obj([
        ("single_copy_us", single.0.into()),
        ("single_copy_replicated_segs", single.1.into()),
        ("read_closest_us", replica.0.into()),
        ("read_closest_replicated_segs", replica.1.into()),
    ])
}

fn main() {
    let only: Option<String> = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    let want = |name: &str| only.as_deref().map(|o| o.contains(name)).unwrap_or(true);
    let mut checks = Checks::new("Ablation checks");
    let mut studies = Vec::new();
    if want("cache") {
        studies.push(("cache", ablation_cache(&mut checks)));
    }
    if want("copyout") {
        studies.push(("copyout", ablation_copyout(&mut checks)));
    }
    if want("policy") {
        studies.push(("policy", ablation_policy()));
    }
    if want("segsize") {
        studies.push(("segsize", ablation_segsize(&mut checks)));
    }
    if want("metadata") {
        studies.push(("metadata", ablation_metadata(&mut checks)));
    }
    if want("prefetch") {
        studies.push(("prefetch", ablation_prefetch(&mut checks)));
    }
    if want("cleaner") {
        studies.push(("cleaner", ablation_cleaner()));
    }
    if want("replicas") {
        studies.push(("replicas", ablation_replicas(&mut checks)));
    }
    if only.is_none() {
        write_bench_json("ablations", &Json::obj(studies));
    }
    checks.finish();
}
