//! The tertiary volume cleaner (§10 future work, implemented here).
//!
//! "To avoid eventual exhaustion of tertiary storage, HighLight will need
//! a tertiary cleaning mechanism that examines tertiary volumes, a task
//! that would best be done with at least two reader/writer devices to
//! avoid having to swap between the being-cleaned volume and the
//! destination volume." And from §6.5: "HighLight will eventually have a
//! cleaner for tertiary storage that will clean whole media at a time to
//! minimize the media swap and seek latencies."
//!
//! The cleaner picks the volume with the lowest live-byte density, walks
//! its written segments, re-migrates the live blocks into fresh staging
//! segments (which land on the *current* writing volume — a different
//! one, so the two-drive jukebox serves reads and writes concurrently),
//! then erases the victim volume for reuse.

use hl_lfs::cleaner::{CleanReport, CleanerPolicy};
use hl_lfs::error::{LfsError, Result};
use hl_lfs::migrate::MigrateItem;
use hl_vdev::BLOCK_SIZE;

use crate::fs::HighLight;

/// What one tertiary cleaning pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TCleanReport {
    /// The volume reclaimed.
    pub volume: u32,
    /// Segments scanned on the victim volume.
    pub segments_scanned: u32,
    /// Live blocks re-migrated.
    pub blocks_moved: u64,
    /// Live inodes re-migrated.
    pub inodes_moved: u64,
}

/// Runs one *disk* cleaner pass with the victim selected by `policy`
/// (instead of the one baked into `LfsConfig`) — here beside the volume
/// cleaner because the two reclaimers score candidates with the same
/// [`CleanerPolicy`] in the same `(live, capacity, age)` vocabulary and
/// both record the pick as a
/// [`policy_decision`](hl_trace::Tracer::policy_decision) mark. Returns
/// `None` when nothing is cleanable.
pub fn disk_clean_once(hl: &mut HighLight, policy: CleanerPolicy) -> Result<Option<CleanReport>> {
    let Some(victim) = hl.lfs().select_victim(policy) else {
        return Ok(None);
    };
    hl.tio().tracer().policy_decision(
        hl.clock().now(),
        policy.name(),
        &format!("disk clean seg {victim}"),
    );
    hl.lfs().clean_segment(victim).map(Some)
}

/// Picks a victim under [`CleanerPolicy::Greedy`] — the paper-era
/// behavior (least live data wins, earliest volume on ties).
pub fn select_victim_volume(hl: &mut HighLight) -> Option<u32> {
    select_victim_volume_with(hl, CleanerPolicy::Greedy)
}

/// Picks the best victim among the *full* (or exhausted-cursor) volumes
/// as scored by `policy`; cleaning a volume still being filled would
/// fight the migrator. The winning pick is recorded as a
/// [`policy_decision`](hl_trace::Tracer::policy_decision) mark. Returns
/// `None` if no volume qualifies.
pub fn select_victim_volume_with(hl: &mut HighLight, policy: CleanerPolicy) -> Option<u32> {
    let map = hl.map();
    let seg_payload = (map.blocks_per_seg as u64).saturating_sub(1) * BLOCK_SIZE as u64;
    let best = {
        let tseg = hl.tseg();
        let tseg = tseg.borrow();
        // Volume age = how far behind the newest write this volume's own
        // last write sits; a volume untouched for many migration serials
        // is cold, and its reclaimed space will stay free.
        let newest = (0..map.volumes)
            .map(|v| tseg.volume(v).last_serial)
            .max()
            .unwrap_or(0);
        let mut best: Option<(f64, u32)> = None;
        for vol in 0..map.volumes {
            let v = tseg.volume(vol);
            let exhausted = v.full || v.next_slot >= map.segs_per_volume;
            if !exhausted {
                continue;
            }
            let s = policy.score(
                tseg.volume_live(&map, vol),
                seg_payload * map.segs_per_volume as u64,
                newest.saturating_sub(v.last_serial),
            );
            if best.map(|(b, _)| s > b).unwrap_or(true) {
                best = Some((s, vol));
            }
        }
        best
    };
    let vol = best.map(|(_, vol)| vol)?;
    hl.tio().tracer().policy_decision(
        hl.clock().now(),
        policy.name(),
        &format!("tclean victim v{vol}"),
    );
    Some(vol)
}

/// Cleans one tertiary volume end to end.
///
/// # Errors
///
/// [`LfsError::NoSpace`] if no staging room exists for the survivors.
pub fn clean_volume(hl: &mut HighLight, vol: u32) -> Result<TCleanReport> {
    let map = hl.map();
    let mut report = TCleanReport {
        volume: vol,
        ..Default::default()
    };
    hl.tio()
        .tracer()
        .mark(hl.clock().now(), format!("tclean v{vol} begin"));
    // Close the volume so re-migrated survivors cannot land back on it.
    hl.tseg().borrow_mut().volume_mut(vol).full = true;

    // Walk the volume's written segments, collecting live items.
    let mut survivors: Vec<MigrateItem> = Vec::new();
    for slot in 0..map.segs_per_volume {
        let seg = map.tert_seg(vol, slot);
        let u = hl.tseg().borrow().seg(seg);
        if u.write_serial == 0 && u.live_bytes == 0 {
            continue; // never written
        }
        report.segments_scanned += 1;
        if u.live_bytes == 0 {
            continue; // fully dead
        }
        // Fetch the segment (through the cache: "any cleaning of
        // tertiary-resident segments would be done directly with the
        // tertiary-resident copy", §6.2 — the cache line *is* that copy
        // brought within reach) and identify live blocks.
        let now = hl.clock().now();
        let (_disk_seg, end) = hl
            .tio()
            .demand_fetch(now, seg)
            .map_err(|e| LfsError::Dev(e.into_dev()))?;
        hl.clock().advance_to(end);
        survivors.extend(hl.lfs().live_items(seg)?);
    }

    // Re-migrate survivors to fresh staging segments (on the writing
    // volume, served by the other drive).
    if !survivors.is_empty() {
        let stats = hl.migrate_items_opts(&survivors, None, true)?;
        let mut tail = Default::default();
        hl.seal_staging(&mut tail)?;
        report.blocks_moved = stats.blocks;
        report.inodes_moved = stats.inodes;
    }

    // Eject any cache lines over the victim volume, then erase it.
    for slot in 0..map.segs_per_volume {
        let seg = map.tert_seg(vol, slot);
        hl.eject(seg);
        let tseg = hl.tseg();
        let mut tseg = tseg.borrow_mut();
        let u = tseg.seg_mut(seg);
        debug_assert_eq!(u.live_bytes, 0, "tertiary segment {seg} still live");
        *u = hl_lfs::ondisk::SegUse::clean(0);
    }
    {
        let tseg = hl.tseg();
        let mut tseg = tseg.borrow_mut();
        let v = tseg.volume_mut(vol);
        v.full = false;
        v.next_slot = 0;
    }
    // Replica records on the erased volume (and of its segments) die.
    hl.tio().replicas().borrow_mut().forget_volume(vol);
    for slot in 0..map.segs_per_volume {
        hl.tio()
            .replicas()
            .borrow_mut()
            .forget(map.tert_seg(vol, slot));
    }
    hl.tio()
        .jukebox()
        .erase_volume(vol)
        .map_err(LfsError::Dev)?;
    hl.tio().tracer().mark(
        hl.clock().now(),
        format!(
            "tclean v{vol} done scanned {} moved {}",
            report.segments_scanned, report.blocks_moved
        ),
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::{hp6300, HlRig};

    fn mounted(volumes: u32, slots: u32) -> HighLight {
        let rig = HlRig::new(2 + 48 * 256 + 5, hp6300(volumes, slots), 8, None);
        rig.mkfs();
        rig.mount()
    }

    fn fill(id: u32, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| ((i as u32).wrapping_mul(31).wrapping_add(id)) as u8)
            .collect()
    }

    fn migrate_one(hl: &mut HighLight, path: &str, id: u32) {
        let ino = hl.create(path).expect("create");
        hl.write(ino, 0, &fill(id, 900_000)).expect("write");
        hl.sync().expect("sync");
        hl.migrate_file(path, false, None).expect("migrate");
        let mut t = Default::default();
        hl.seal_staging(&mut t).expect("seal");
    }

    #[test]
    fn no_victim_while_every_volume_is_still_filling() {
        let mut hl = mounted(2, 3);
        assert_eq!(select_victim_volume(&mut hl), None, "fresh fs");
        migrate_one(&mut hl, "/one", 1);
        assert_eq!(
            select_victim_volume(&mut hl),
            None,
            "volume 0 has free slots and must not be cleaned under the migrator"
        );
    }

    #[test]
    fn default_policy_reproduces_the_legacy_lowest_density_victim() {
        let mut hl = mounted(3, 2);
        for i in 0..6u32 {
            migrate_one(&mut hl, &format!("/f{i}"), i);
        }
        // vol0: /f0 /f1, vol1: /f2 /f3, vol2: /f4 /f5. Make vol1 the
        // emptiest, vol0 half-dead.
        hl.unlink("/f2").expect("unlink");
        hl.unlink("/f3").expect("unlink");
        hl.unlink("/f0").expect("unlink");
        hl.sync().expect("sync");

        // The historical hardcoded scan, verbatim: least live data among
        // exhausted volumes, strict `<` so the earliest volume wins ties.
        let map = hl.map();
        let legacy = {
            let tseg = hl.tseg();
            let tseg = tseg.borrow();
            let mut best: Option<(u64, u32)> = None;
            for vol in 0..map.volumes {
                let v = tseg.volume(vol);
                if !(v.full || v.next_slot >= map.segs_per_volume) {
                    continue;
                }
                let live = tseg.volume_live(&map, vol);
                if best.map(|(l, _)| live < l).unwrap_or(true) {
                    best = Some((live, vol));
                }
            }
            best.map(|(_, vol)| vol)
        };
        assert_eq!(legacy, Some(1), "test setup: vol1 must be emptiest");
        assert_eq!(
            select_victim_volume(&mut hl),
            legacy,
            "Greedy must reproduce the pre-policy victim choice"
        );
        assert!(
            hl.tio().tracer().policy_decisions() >= 1,
            "the pick must be traced as a policy decision"
        );
    }

    #[test]
    fn cost_benefit_prefers_cold_half_full_over_hot_empty() {
        let mut hl = mounted(3, 2);
        for i in 0..6u32 {
            migrate_one(&mut hl, &format!("/f{i}"), i);
        }
        // vol0 (oldest writes): one of two files dies → half live, cold.
        // vol2 (newest writes): both die → empty, but hot (age 0).
        hl.unlink("/f0").expect("unlink");
        hl.unlink("/f4").expect("unlink");
        hl.unlink("/f5").expect("unlink");
        hl.sync().expect("sync");

        assert_eq!(
            select_victim_volume(&mut hl),
            Some(2),
            "greedy chases the just-emptied hot volume"
        );
        assert_eq!(
            select_victim_volume_with(&mut hl, CleanerPolicy::CostBenefit),
            Some(0),
            "cost-benefit waits for the cold volume whose space endures"
        );
    }

    #[test]
    fn a_segment_shared_with_a_freed_inode_still_cleans() {
        let mut hl = mounted(2, 1);
        // Two files share one staging segment; one of them dies.
        for (path, id) in [("/dead", 1), ("/live", 2)] {
            let ino = hl.create(path).expect("create");
            hl.write(ino, 0, &fill(id, 100_000)).expect("write");
        }
        hl.sync().expect("sync");
        for path in ["/dead", "/live"] {
            let ino = hl.lookup(path).expect("lookup");
            let items = hl.lfs().whole_file_items(ino, true).expect("items");
            hl.migrate_items(&items, None).expect("migrate");
        }
        hl.sync().expect("sync");
        hl.unlink("/dead").expect("unlink");
        hl.sync().expect("sync");

        // The dead file's FINFO still matches its (freed, not yet
        // reallocated) inode-map version: liveness must not `bmap` it.
        let report = clean_volume(&mut hl, 0).expect("clean");
        assert_eq!(report.inodes_moved, 1, "only /live's inode survives");
        hl.eject_all();
        hl.drop_caches();
        let ino = hl.lookup("/live").expect("survivor");
        let mut back = vec![0u8; 100_000];
        hl.read(ino, 0, &mut back).expect("read");
        assert_eq!(back, fill(2, 100_000), "survivor bytes diverged");
    }

    #[test]
    fn clean_volume_reclaims_and_traces_its_pass() {
        let mut hl = mounted(2, 3);
        for i in 0..3u32 {
            migrate_one(&mut hl, &format!("/f{i}"), i);
        }
        // Volume 0 is exhausted; kill two of its three tenants.
        hl.unlink("/f0").expect("unlink");
        hl.unlink("/f1").expect("unlink");
        hl.sync().expect("sync");

        let vol = select_victim_volume(&mut hl).expect("an exhausted volume");
        assert_eq!(vol, 0);
        let report = clean_volume(&mut hl, vol).expect("clean");
        assert_eq!(report.volume, 0);
        assert!(
            report.segments_scanned >= 3,
            "scanned {} of the written slots",
            report.segments_scanned
        );
        assert!(report.blocks_moved > 0, "the survivor must be re-migrated");

        // The pass is visible in the event trace, bracketed begin/done,
        // and the whole fetch/copy-out traffic it generated satisfies
        // the trace invariants.
        let marks: Vec<String> = hl
            .tio()
            .tracer()
            .events()
            .iter()
            .filter_map(|ev| match &ev.kind {
                hl_trace::EventKind::Mark { label } => Some(label.clone()),
                _ => None,
            })
            .collect();
        assert!(
            marks.iter().any(|m| m == "tclean v0 begin"),
            "missing begin mark in {marks:?}"
        );
        assert!(
            marks
                .iter()
                .any(|m| m.starts_with("tclean v0 done scanned")),
            "missing done mark in {marks:?}"
        );
        let findings = hl.tio().trace_findings();
        assert!(findings.is_empty(), "tracecheck: {findings:?}");

        // The victim is erased and writable again.
        let tseg = hl.tseg();
        let v = tseg.borrow().volume(0);
        assert!(!v.full);
        assert_eq!(v.next_slot, 0);

        // The survivor still reads back byte-exact after a cache flush.
        hl.eject_all();
        hl.drop_caches();
        let ino = hl.lookup("/f2").expect("survivor");
        let mut back = vec![0u8; 900_000];
        hl.read(ino, 0, &mut back).expect("read");
        assert_eq!(back, fill(2, 900_000), "survivor bytes diverged");
    }
}
