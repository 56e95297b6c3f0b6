//! Cross-crate integration: the full storage hierarchy under combined
//! load — applications, cleaner, migrator, demand fetches, tertiary
//! cleaner, crashes — on one filesystem instance.

use highlight::rig::{hp6300, HlRig};
use highlight::Migrator;
use hl_vdev::ScsiBus;
use std::collections::HashMap;

/// `disk_segs` 1 MB disk segments + a small MO jukebox on one SCSI bus.
fn rig(disk_segs: u64, volumes: u32, slots: u32, cache_segs: u32) -> HlRig {
    let bus = Some(ScsiBus::new("scsi0"));
    HlRig::new(
        2 + disk_segs * 256 + 5,
        hp6300(volumes, slots),
        cache_segs,
        bus,
    )
}

fn content(id: u32, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u32).wrapping_mul(2654435761).wrapping_add(id) >> 3) as u8)
        .collect()
}

/// A long mixed life: files created, aged, migrated by the watermark
/// daemon, rewritten, deleted, and verified across a remount — with the
/// disk small enough that the cleaner and migrator both have to work.
#[test]
fn long_mixed_life_survives_everything() {
    let rig = rig(48, 6, 16, 8);
    rig.mkfs();
    let mut oracle: HashMap<String, Vec<u8>> = HashMap::new();
    {
        let mut hl = rig.mount();
        let mut migrator = Migrator::stp();
        migrator.low_water_segs = 16;
        migrator.high_water_segs = 28;

        hl.mkdir("/proj").expect("mkdir");
        for wave in 0..6u32 {
            // Create a few files per wave.
            for f in 0..3u32 {
                let id = wave * 10 + f;
                let path = format!("/proj/w{wave}_f{f}");
                let data = content(id, 600_000 + (id as usize * 37) % 800_000);
                let ino = hl.create(&path).expect("create");
                hl.write(ino, 0, &data).expect("write");
                oracle.insert(path, data);
            }
            // Rewrite one older file (its tertiary copy must die).
            if wave >= 2 {
                let path = format!("/proj/w{}_f0", wave - 2);
                let data = content(1000 + wave, 300_000);
                let ino = hl.lookup(&path).expect("lookup old");
                hl.truncate(ino, 0).expect("truncate");
                hl.write(ino, 0, &data).expect("rewrite");
                oracle.insert(path, data);
            }
            // Delete one.
            if wave >= 3 {
                let path = format!("/proj/w{}_f1", wave - 3);
                hl.unlink(&path).expect("unlink");
                oracle.remove(&path);
            }
            hl.sync().expect("sync");
            rig.clock.advance_by(hl_sim::time::secs(7200.0));
            migrator.run_once(&mut hl).expect("migrator");
        }
        hl.checkpoint().expect("checkpoint");

        // Everything verifies in this incarnation.
        for (path, data) in &oracle {
            let ino = hl.lookup(path).expect("lookup");
            let mut back = vec![0u8; data.len()];
            let n = hl.read(ino, 0, &mut back).expect("read");
            assert_eq!(n, data.len(), "{path} short read");
            assert_eq!(&back, data, "{path} corrupted");
        }
        // Accounting is consistent: audited live bytes match the table.
        let audited = hl.lfs().audit_live_bytes().expect("audit");
        for seg in 0..hl.lfs().nsegs() {
            let u = hl.lfs().seg_usage(seg);
            if u.flags & hl_lfs::ondisk::seg_flags::CACHE != 0 {
                continue; // cache lines are accounted in the tsegfile
            }
            assert_eq!(
                u.live_bytes, audited[seg as usize],
                "segment {seg} live-byte drift"
            );
        }
    }

    // Remount: everything still verifies (ifile, imap, tsegfile, cache
    // directory all recovered from media).
    let mut hl = rig.mount();
    for (path, data) in &oracle {
        let ino = hl.lookup(path).expect("lookup after remount");
        let mut back = vec![0u8; data.len()];
        hl.read(ino, 0, &mut back).expect("read after remount");
        assert_eq!(&back, data, "{path} corrupted across remount");
    }
}

/// Crash (no checkpoint) after migration: roll-forward plus the
/// tsegfile's last-checkpoint state must still yield a mountable,
/// consistent filesystem whose checkpointed files are intact.
#[test]
fn crash_after_migration_recovers_checkpointed_state() {
    let rig = rig(32, 4, 10, 6);
    rig.mkfs();
    let stable = content(1, 900_000);
    {
        let mut hl = rig.mount();
        let ino = hl.create("/stable").expect("create");
        hl.write(ino, 0, &stable).expect("write");
        hl.sync().expect("sync");
        hl.migrate_file("/stable", false, None).expect("migrate");
        let mut tail = Default::default();
        hl.seal_staging(&mut tail).expect("seal");
        hl.checkpoint().expect("checkpoint");
        // Post-checkpoint activity that will be partially lost.
        let ino2 = hl.create("/ephemeral").expect("create2");
        hl.write(ino2, 0, &content(2, 100_000)).expect("write2");
        hl.sync().expect("sync2");
        // Crash: drop without checkpoint.
    }
    let mut hl = rig.mount();
    let ino = hl.lookup("/stable").expect("stable survived");
    let mut back = vec![0u8; stable.len()];
    hl.read(ino, 0, &mut back).expect("read");
    assert_eq!(back, stable);
    // The synced post-checkpoint file rolls forward.
    let ino2 = hl.lookup("/ephemeral").expect("roll-forward");
    let mut small = vec![0u8; 100_000];
    hl.read(ino2, 0, &mut small).expect("read2");
    assert_eq!(small, content(2, 100_000));
}

/// The §10 cycle at system level: fill tertiary volumes, delete most
/// data, clean a volume, and refill it.
#[test]
fn tertiary_space_is_reused_after_cleaning() {
    let rig = rig(48, 3, 6, 8);
    rig.mkfs();
    let mut hl = rig.mount();
    for i in 0..6u32 {
        let path = format!("/gen1_{i}");
        let ino = hl.create(&path).expect("create");
        hl.write(ino, 0, &content(i, 900_000)).expect("write");
        hl.sync().expect("sync");
        hl.migrate_file(&path, false, None).expect("migrate");
        let mut t = Default::default();
        hl.seal_staging(&mut t).expect("seal");
    }
    // Volume 0 is now full. Kill most of its contents.
    for i in 0..5u32 {
        hl.unlink(&format!("/gen1_{i}")).expect("unlink");
    }
    hl.sync().expect("sync");
    let vol = highlight::tcleaner::select_victim_volume(&mut hl).expect("victim");
    highlight::tcleaner::clean_volume(&mut hl, vol).expect("clean");

    // Refill the reclaimed volume with a new generation.
    for i in 0..4u32 {
        let path = format!("/gen2_{i}");
        let ino = hl.create(&path).expect("create");
        hl.write(ino, 0, &content(100 + i, 900_000)).expect("write");
        hl.sync().expect("sync");
        hl.migrate_file(&path, false, None).expect("migrate gen2");
        let mut t = Default::default();
        hl.seal_staging(&mut t).expect("seal");
    }
    // Everything readable: the survivor and the new generation.
    hl.eject_all();
    hl.drop_caches();
    for (path, id) in [("/gen1_5".to_string(), 5u32)]
        .into_iter()
        .chain((0..4).map(|i| (format!("/gen2_{i}"), 100 + i)))
    {
        let ino = hl.lookup(&path).expect("lookup");
        let mut back = vec![0u8; 900_000];
        hl.read(ino, 0, &mut back).expect("read");
        assert_eq!(back, content(id, 900_000), "{path}");
    }
}

/// Namespace units migrate together and prefetch as units (§5.3).
#[test]
fn namespace_units_round_trip() {
    use highlight::migrator::{MigrationPolicy, NamespacePolicy};
    let rig = rig(48, 4, 16, 8);
    rig.mkfs();
    let mut hl = rig.mount();
    let files = hl_workload::trees::software_tree(5, "/work", 3, 12);
    for d in hl_workload::trees::directories(&files) {
        hl.mkdir(&d).expect("mkdir");
    }
    let mut oracle = HashMap::new();
    for (i, f) in files.iter().enumerate() {
        let ino = hl.create(&f.path).expect("create");
        let data = content(i as u32, f.size as usize);
        hl.write(ino, 0, &data).expect("write");
        oracle.insert(f.path.clone(), data);
    }
    hl.sync().expect("sync");
    rig.clock.advance_by(hl_sim::time::secs(90_000.0));

    let mut policy = NamespacePolicy::new("/work");
    let tracker = hl.tracker.clone();
    let now = rig.clock.now();
    let batches = policy
        .select(hl.lfs(), &tracker, now, 64 << 20)
        .expect("select");
    assert_eq!(batches.len(), 3, "three project units");
    for (items, unit) in batches {
        assert!(unit.is_some(), "units must be labelled for prefetch");
        hl.migrate_items(&items, unit).expect("migrate unit");
    }
    let mut t = Default::default();
    hl.seal_staging(&mut t).expect("seal");

    hl.eject_all();
    hl.drop_caches();
    for (path, data) in &oracle {
        let ino = hl.lookup(path).expect("lookup");
        let mut back = vec![0u8; data.len()];
        hl.read(ino, 0, &mut back).expect("read");
        assert_eq!(&back, data, "{path}");
    }
}
