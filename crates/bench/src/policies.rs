//! The policy ablation harness (DESIGN.md §6i).
//!
//! Replays byte-identical [`OpStream`] workloads through a full
//! HighLight filesystem once per *policy arm* — a (migration policy ×
//! cleaning policy × cache-ejection policy) triple — and reports the
//! metrics the paper's §5/§10 discussion argues about: cache hit rate,
//! demand-fetch p95 queue residency, write amplification, and media
//! swaps. Every replay records the input-trace digest of its stream
//! *before* any policy runs; the bench gates on those digests being
//! identical across arms (the replay-identity invariant), so a metric
//! difference can only come from the policy under test.
//!
//! The rig is deliberately small and hostile: a cache-starved disk
//! (migration pressure from the first few megabytes) over a 4-volume
//! jukebox, so policies that cluster cold data and pick cheap victims
//! win visibly.

use std::collections::BTreeMap;

use highlight::migrator::{AdaptiveThrottle, GenerationalPolicy, Migrator, StpPolicy};
use highlight::rig::{hp6300, HlRig};
use highlight::segcache::EjectPolicy;
use highlight::{tcleaner, HighLight};
use hl_footprint::Footprint;
use hl_lfs::cleaner::CleanerPolicy;
use hl_sim::stats::percentile;
use hl_sim::SimTime;
use hl_workload::ops::{Op, OpStream};

use crate::report::Json;

/// Log-area disk segments (beyond the cache allowance) — small enough
/// that every workload forces migration.
const DISK_SEGS: u32 = 8;
/// Segment-cache lines.
const CACHE_SEGS: u32 = 4;
/// Jukebox volumes.
const VOLUMES: u32 = 3;
/// Segment slots per volume.
const SLOTS_PER_VOLUME: u32 = 5;

/// Maintenance cadence: the migrator/cleaner daemons get a step every
/// this many replayed ops (the paper's migrator "runs continuously";
/// a fixed cadence keeps the replay deterministic).
const MAINT_EVERY: usize = 8;

/// Which migration policy an arm runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigKind {
    /// The paper's space-time product (§5.2).
    Stp,
    /// Hot/cold generational separation fed by the access tracker.
    Generational,
    /// STP wrapped in the adaptive write-cost throttle.
    AdaptiveStp,
}

/// One policy arm: a named (migration × cleaning × ejection) triple.
#[derive(Clone, Copy, Debug)]
pub struct ArmSpec {
    /// Report key.
    pub name: &'static str,
    /// Migration policy.
    pub migration: MigKind,
    /// Cleaning policy: the disk cleaner (also the LFS-internal
    /// `clean_until` inside the migrator) and the tertiary cleaner.
    pub cleaning: CleanerPolicy,
    /// Segment-cache ejection policy.
    pub eject: EjectPolicy,
}

/// The standard ablation: the paper baseline plus one arm per new
/// policy, each changing as little else as possible.
pub fn standard_arms() -> Vec<ArmSpec> {
    vec![
        ArmSpec {
            name: "paper_baseline",
            migration: MigKind::Stp,
            cleaning: CleanerPolicy::Greedy,
            eject: EjectPolicy::Lru,
        },
        ArmSpec {
            name: "cost_benefit",
            migration: MigKind::Stp,
            cleaning: CleanerPolicy::CostBenefit,
            eject: EjectPolicy::Lru,
        },
        ArmSpec {
            name: "generational",
            migration: MigKind::Generational,
            cleaning: CleanerPolicy::CostBenefit,
            eject: EjectPolicy::LeastWorthy,
        },
        ArmSpec {
            name: "adaptive",
            migration: MigKind::AdaptiveStp,
            cleaning: CleanerPolicy::CostBenefit,
            eject: EjectPolicy::Lru,
        },
    ]
}

/// The standard workload set. Regenerated fresh per arm — the digests
/// in each [`ArmReport`] prove the regenerations are byte-identical.
pub fn standard_workloads() -> Vec<OpStream> {
    vec![
        OpStream::zipf_churn(0xC0FFEE, 48, 160, 131_072),
        OpStream::tenant_thrash(0xA4, 3, 1, 6, VOLUMES, SLOTS_PER_VOLUME, 40, 131_072),
    ]
}

/// Everything one (arm × workload) replay produced.
#[derive(Clone, Debug)]
pub struct ArmReport {
    /// Arm name.
    pub arm: &'static str,
    /// Workload name.
    pub workload: &'static str,
    /// Input-trace digest of the stream, taken before replay.
    pub input_digest: u64,
    /// Engine trace digest after replay.
    pub trace_digest: u64,
    /// Tracecheck findings (must be zero).
    pub findings: usize,
    /// Segment-cache hits / misses / allocation stalls.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Cache allocation stalls (every line pinned).
    pub stalls: u64,
    /// Demand fetches performed.
    pub demand_fetches: u64,
    /// Demand-fetch queue-residency p50, µs.
    pub demand_p50: SimTime,
    /// Demand-fetch queue-residency p95, µs.
    pub demand_p95: SimTime,
    /// Bytes the workload itself wrote (write-amp denominator).
    pub user_bytes: u64,
    /// Bytes the devices wrote (disk + jukebox; write-amp numerator).
    pub device_bytes: u64,
    /// Write amplification.
    pub write_amp: f64,
    /// Jukebox media swaps.
    pub media_swaps: u64,
    /// Jukebox whole-segment reads.
    pub media_reads: u64,
    /// Migration passes that moved data.
    pub migrations: u64,
    /// Disk-cleaner passes under the arm's `CleanerPolicy`.
    pub disk_cleans: u64,
    /// Tertiary-volume cleaning passes.
    pub tclean_passes: u64,
    /// `policy_decision` marks recorded.
    pub policy_decisions: u64,
    /// Byte-oracle mismatches (must be zero).
    pub oracle_failures: u64,
    /// Reads verified against the oracle.
    pub oracle_verified: u64,
    /// Virtual end time, µs.
    pub end_time: SimTime,
}

impl ArmReport {
    /// Cache hit rate in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// One JSON object (the bench assembles the arrays).
    pub fn to_json(&self) -> Json {
        let hex = |d: u64| Json::Str(format!("{d:#018x}"));
        Json::obj([
            ("arm", self.arm.into()),
            ("workload", self.workload.into()),
            ("input_digest", hex(self.input_digest)),
            ("trace_digest", hex(self.trace_digest)),
            ("findings", self.findings.into()),
            ("hits", self.hits.into()),
            ("misses", self.misses.into()),
            ("hit_rate", Json::Fixed(self.hit_rate(), 4)),
            ("stalls", self.stalls.into()),
            ("demand_fetches", self.demand_fetches.into()),
            ("demand_p50_us", self.demand_p50.into()),
            ("demand_p95_us", self.demand_p95.into()),
            ("user_bytes", self.user_bytes.into()),
            ("device_bytes", self.device_bytes.into()),
            ("write_amp", Json::Fixed(self.write_amp, 3)),
            ("media_swaps", self.media_swaps.into()),
            ("media_reads", self.media_reads.into()),
            ("migrations", self.migrations.into()),
            ("disk_cleans", self.disk_cleans.into()),
            ("tclean_passes", self.tclean_passes.into()),
            ("policy_decisions", self.policy_decisions.into()),
            ("oracle_verified", self.oracle_verified.into()),
            ("oracle_failures", self.oracle_failures.into()),
            ("end_time_us", self.end_time.into()),
        ])
    }
}

/// Deterministic file bytes for `(file, version)` — the byte oracle.
/// Any policy that loses, reorders, or staleness-serves a block fails
/// the replay immediately.
fn oracle_bytes(file: u32, version: u32, len: u32) -> Vec<u8> {
    let k = (file as u64)
        .wrapping_mul(131)
        .wrapping_add((version as u64).wrapping_mul(1009));
    (0..len as usize)
        .map(|i| ((i as u64).wrapping_mul(31) ^ k) as u8)
        .collect()
}

/// Free tertiary slots remaining across volumes still being filled.
fn free_tertiary_slots(hl: &mut HighLight) -> u32 {
    let map = hl.map();
    let tseg = hl.tseg();
    let tseg = tseg.borrow();
    (0..map.volumes)
        .map(|vol| {
            let v = tseg.volume(vol);
            if v.full {
                0
            } else {
                map.segs_per_volume.saturating_sub(v.next_slot)
            }
        })
        .sum()
}

/// Replays `stream` under `arm` on a fresh small rig and collects the
/// report. Panics on filesystem errors — a policy must never turn a
/// valid replay into an error.
pub fn run_policy_arm(stream: &OpStream, arm: &ArmSpec) -> ArmReport {
    let input_digest = stream.input_trace_digest();

    let mut rig = HlRig::new(
        u64::from(2 + (CACHE_SEGS + DISK_SEGS) * 256 + 5),
        hp6300(VOLUMES, SLOTS_PER_VOLUME),
        CACHE_SEGS,
        None,
    );
    rig.cfg.eject = arm.eject;
    rig.cfg.lfs.cleaner_policy = arm.cleaning;
    rig.mkfs();
    let mut hl = rig.mount();
    let clock = &rig.clock;

    let mut load_signal = None;
    let mut migrator = match arm.migration {
        MigKind::Stp => Migrator::with_policy(Box::new(StpPolicy::paper())),
        MigKind::Generational => Migrator::with_policy(Box::new(GenerationalPolicy::new("/"))),
        MigKind::AdaptiveStp => {
            let throttle = AdaptiveThrottle::new(Box::new(StpPolicy::paper()));
            load_signal = Some(throttle.load_signal());
            Migrator::with_policy(Box::new(throttle))
        }
    };
    // Small rig, tight watermarks: the log is only DISK_SEGS segments,
    // so migration pressure arrives within the first few megabytes and
    // every arm's policy actually runs.
    migrator.low_water_segs = 6;
    migrator.high_water_segs = 7;

    let mut model: BTreeMap<u32, (u32, u32)> = BTreeMap::new();
    let mut inos: BTreeMap<u32, hl_lfs::types::Ino> = BTreeMap::new();
    let mut user_bytes = 0u64;
    let mut oracle_failures = 0u64;
    let mut oracle_verified = 0u64;
    let mut migrations = 0u64;
    let mut disk_cleans = 0u64;
    let mut tclean_passes = 0u64;
    let mut last_fetches = 0u64;

    let verify_read = |hl: &mut HighLight,
                       ino: hl_lfs::types::Ino,
                       file: u32,
                       version: u32,
                       len: u32,
                       failures: &mut u64,
                       verified: &mut u64| {
        let mut buf = vec![0u8; len as usize];
        let n = hl.read(ino, 0, &mut buf).expect("read replay file");
        *verified += 1;
        if n != len as usize || buf[..n] != oracle_bytes(file, version, len)[..n] {
            *failures += 1;
        }
    };

    for (i, op) in stream.ops.iter().enumerate() {
        match *op {
            Op::Write { file, version, len } => {
                let ino = match inos.get(&file) {
                    Some(&ino) => ino,
                    None => {
                        let ino = hl.create(&format!("/f{file}")).expect("create replay file");
                        inos.insert(file, ino);
                        ino
                    }
                };
                // Backpressure: a full log blocks the writer until the
                // migration daemon frees space — the replay models that
                // as a forced maintenance pass and one retry.
                let data = oracle_bytes(file, version, len);
                match hl.write(ino, 0, &data) {
                    Ok(()) => {}
                    Err(hl_lfs::error::LfsError::NoSpace) => {
                        hl.sync().expect("backpressure sync");
                        migrator
                            .migrate_bytes(&mut hl, 4 << 20)
                            .expect("backpressure migration");
                        migrations += 1;
                        hl.write(ino, 0, &data)
                            .expect("write replay file after backpressure");
                    }
                    Err(e) => panic!("write replay file: {e:?}"),
                }
                user_bytes += len as u64;
                model.insert(file, (version, len));
            }
            Op::Read { file } => {
                if let (Some(&ino), Some(&(version, len))) = (inos.get(&file), model.get(&file)) {
                    verify_read(
                        &mut hl,
                        ino,
                        file,
                        version,
                        len,
                        &mut oracle_failures,
                        &mut oracle_verified,
                    );
                }
            }
            Op::Advance { micros } => {
                clock.advance_by(micros);
            }
        }

        if (i + 1) % MAINT_EVERY == 0 {
            hl.sync().expect("sync replay");
            // Feed the adaptive throttle its fleet-load signal: demand
            // fetches per replayed op over the last window, clamped.
            let fetches = hl.tio().stats().demand_fetches;
            if let Some(load) = &load_signal {
                let delta = fetches.saturating_sub(last_fetches);
                load.set((delta as f64 / MAINT_EVERY as f64).min(1.0));
            }
            last_fetches = fetches;

            let moved = migrator.run_once(&mut hl).expect("migration pass");
            if moved.blocks > 0 {
                migrations += 1;
            }
            if hl.lfs().clean_segs() < migrator.low_water_segs {
                if let Some(report) =
                    tcleaner::disk_clean_once(&mut hl, arm.cleaning).expect("disk clean")
                {
                    if report.segs_cleaned > 0 {
                        disk_cleans += 1;
                    }
                }
            }
            if free_tertiary_slots(&mut hl) <= SLOTS_PER_VOLUME {
                if let Some(vol) = tcleaner::select_victim_volume_with(&mut hl, arm.cleaning) {
                    // NoSpace is a deferral, not a failure: survivors
                    // need staging room, and the daemon simply retries
                    // after the migrator frees some.
                    match tcleaner::clean_volume(&mut hl, vol) {
                        Ok(_) => tclean_passes += 1,
                        Err(hl_lfs::error::LfsError::NoSpace) => {}
                        Err(e) => panic!("tertiary clean: {e:?}"),
                    }
                }
            }
        }
    }
    hl.sync().expect("final sync");

    // Final oracle sweep: every live file must read back its last
    // written version, wherever the policies put it.
    let files: Vec<(u32, u32, u32)> = model.iter().map(|(&f, &(v, l))| (f, v, l)).collect();
    for (file, version, len) in files {
        let ino = inos[&file];
        verify_read(
            &mut hl,
            ino,
            file,
            version,
            len,
            &mut oracle_failures,
            &mut oracle_verified,
        );
    }

    let tio = hl.tio();
    let demand_residency = tio.tracer().residencies(hl_trace::Class::Demand);

    let svc = tio.stats();
    let cache = tio.cache().borrow().stats();
    let fp = rig.jukebox.stats();
    let dstats = rig.disk.stats();
    let device_bytes = dstats.bytes_written + fp.bytes_written;
    ArmReport {
        arm: arm.name,
        workload: stream.name,
        input_digest,
        trace_digest: tio.trace_digest(),
        findings: tio.trace_findings().len(),
        hits: cache.hits,
        misses: cache.misses,
        stalls: cache.stalls,
        demand_fetches: svc.demand_fetches,
        demand_p50: percentile(&demand_residency, 50),
        demand_p95: percentile(&demand_residency, 95),
        user_bytes,
        device_bytes,
        write_amp: if user_bytes == 0 {
            0.0
        } else {
            device_bytes as f64 / user_bytes as f64
        },
        media_swaps: fp.swaps,
        media_reads: fp.reads,
        migrations,
        disk_cleans,
        tclean_passes,
        policy_decisions: tio.tracer().policy_decisions(),
        oracle_failures,
        oracle_verified,
        end_time: clock.now(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_arm_replays_clean_with_identical_digests() {
        let stream = OpStream::zipf_churn(7, 10, 24, 65_536);
        let arm = standard_arms()[0];
        let a = run_policy_arm(&stream, &arm);
        let b = run_policy_arm(&stream, &arm);
        assert_eq!(a.findings, 0, "tracecheck findings");
        assert_eq!(a.oracle_failures, 0, "byte oracle");
        assert!(a.oracle_verified > 0);
        assert_eq!(a.input_digest, b.input_digest, "replay-identity input");
        assert_eq!(a.trace_digest, b.trace_digest, "deterministic replay");
    }

    #[test]
    fn every_arm_survives_the_thrash_adversary() {
        let stream = OpStream::tenant_thrash(3, 2, 1, 4, VOLUMES, SLOTS_PER_VOLUME, 12, 131_072);
        for arm in standard_arms() {
            let r = run_policy_arm(&stream, &arm);
            assert_eq!(r.findings, 0, "{}: tracecheck findings", arm.name);
            assert_eq!(r.oracle_failures, 0, "{}: byte oracle", arm.name);
            assert!(r.policy_decisions > 0, "{}: policy marks", arm.name);
        }
    }
}
