//! Fault-under-load suite: the §7.3 migration pipeline with a
//! foreground demand stream, run under injected drive and robot faults
//! (DESIGN.md §6f).
//!
//! Four runs share the drive-pool ablation's workload shape:
//!
//! - **healthy-4drive** — the fault-free baseline the degraded runs are
//!   gated against;
//! - **drive-death** — a drive dies mid-run; the orphaned ops re-dispatch
//!   to the surviving lanes and the migration completes degraded;
//! - **robot-jam** — the autochanger arm jams during the demand storm;
//!   swaps stall until it clears, residency climbs, nothing is lost;
//! - **blackout** — every drive hangs at once; watchdogs fire, all lanes
//!   quarantine, the redispatched ops wait in the device queue until the
//!   probe ladder brings the drives back, and the run drains to
//!   completion.
//!
//! Every run must finish with zero tracecheck findings and zero lost
//! tickets (a lost ticket panics the result collection). The suite
//! emits `BENCH_faults.json` at the repository root — same per-entry
//! schema as `BENCH_pipeline.json` — and exits non-zero if any
//! degraded-mode check is false.

use hl_bench::pipeline::{run, DemandLoad, PipelineConfig, PipelineResult};
use hl_bench::report::{write_bench_json, Checks, Json};
use hl_bench::table::{print_table, Row};
use hl_footprint::{Jukebox, JukeboxConfig};
use hl_vdev::{Disk, DiskProfile, FaultConfig, FaultPlan, ScsiBus};

/// Deterministic fault-plan seed recorded in EXPERIMENTS.md.
const SEED: u64 = 42;

fn secs(s: f64) -> hl_sim::time::SimTime {
    hl_sim::time::secs(s)
}

/// Builds the shared workload on `drives` lanes with `plan` scripted
/// into the jukebox: a 16-segment migration plus 6 paced demand reads.
fn run_with_plan(drives: usize, plan: Option<&FaultPlan>) -> PipelineResult {
    let bus = ScsiBus::new("scsi0");
    let src = Disk::new(DiskProfile::RZ57, 300_000, Some(bus.clone()));
    let staging = Disk::new(DiskProfile::RZ58, 300_000, Some(bus.clone()));
    let jukebox = Jukebox::new(
        JukeboxConfig {
            drives,
            ..JukeboxConfig::hp6300_paper()
        },
        Some(bus),
    );
    if let Some(plan) = plan {
        jukebox.set_fault_plan(plan.clone());
    }
    run(PipelineConfig {
        segments: 16,
        src_disk: src,
        staging_disk: Some(staging),
        jukebox,
        demand: Some(DemandLoad {
            reads: 6,
            hot_volumes: 1,
        }),
    })
}

fn main() {
    let mut checks = Checks::new("Degraded-mode checks");
    let mut check =
        |name: &str, r: &PipelineResult| checks.tracecheck_list(name, &r.trace_findings);
    // Fault-free baseline at 4 drives.
    let healthy = run_with_plan(4, None);
    check("healthy-4drive", &healthy);
    assert_eq!(healthy.completions.len(), 16);
    assert_eq!(healthy.stats.drive_down, 0);

    // Drive 1 dies 10 s in — mid demand storm, mid migration. The lane
    // quarantines, probes fail forever, it retires; the other three
    // lanes absorb its work.
    let plan = FaultPlan::new(FaultConfig::none(SEED));
    plan.fail_drive_at(1, secs(10.0));
    let death = run_with_plan(4, Some(&plan));
    check("drive-death", &death);
    assert_eq!(
        death.completions.len() + death.failed_copyouts,
        16,
        "drive-death: lost copy-out tickets"
    );
    assert_eq!(death.failed_copyouts, 0, "survivors must absorb the work");
    assert_eq!(death.failed_fetches, 0);
    assert!(
        death.stats.drive_down >= 1,
        "the dead drive was never observed"
    );
    assert!(
        death.availability[1].iter().any(|&(s, _)| s >= secs(10.0)),
        "no down interval recorded for drive 1"
    );

    // The robot arm jams for 60 s starting just before the demand
    // storm: swaps queue behind the jam, residency climbs, every op
    // still completes and no drive goes down.
    let plan = FaultPlan::new(FaultConfig::none(SEED));
    plan.jam_robot_during(secs(4.0), secs(60.0));
    let jam = run_with_plan(2, Some(&plan));
    check("robot-jam", &jam);
    assert_eq!(jam.completions.len(), 16);
    assert_eq!(jam.failed_fetches, 0);
    assert_eq!(jam.stats.drive_down, 0, "a jam stalls, it does not kill");

    // Blackout: both drives hang for 100 s. Watchdogs fire, both lanes
    // quarantine, redispatched ops wait in the device queue, the probe
    // ladder brings the drives back after the hang clears, and the run
    // drains to completion on the recovered pool.
    let plan = FaultPlan::new(FaultConfig::none(SEED));
    plan.hang_drive_at(0, secs(20.0), secs(100.0));
    plan.hang_drive_at(1, secs(20.0), secs(100.0));
    let blackout = run_with_plan(2, Some(&plan));
    check("blackout", &blackout);
    assert_eq!(blackout.completions.len(), 16);
    assert_eq!(blackout.failed_fetches, 0);
    assert!(
        blackout.stats.watchdog_fired >= 1,
        "hangs must trip the watchdog"
    );
    assert!(blackout.stats.drive_down >= 1);
    let recovered = blackout
        .availability
        .iter()
        .flatten()
        .filter(|&&(_, e)| e < blackout.total_end)
        .count();
    assert!(recovered >= 1, "no lane recovered from the blackout");

    let rows: Vec<Row> = [
        ("healthy-4drive", &healthy),
        ("drive-death", &death),
        ("robot-jam", &jam),
        ("blackout", &blackout),
    ]
    .iter()
    .flat_map(|(name, r)| {
        vec![
            Row {
                label: format!("{name} / wall clock, swaps"),
                paper: "-".into(),
                measured: format!(
                    "{:.0}s, {} swaps",
                    hl_sim::time::as_secs(r.total_end),
                    r.media_swaps
                ),
            },
            Row {
                label: format!("{name} / demand residency p50/p95"),
                paper: "-".into(),
                measured: format!(
                    "{:.1}s/{:.1}s",
                    hl_sim::time::as_secs(r.demand_residency_pct(50)),
                    hl_sim::time::as_secs(r.demand_residency_pct(95))
                ),
            },
            Row {
                label: format!("{name} / downs, wdog, redispatch"),
                paper: "-".into(),
                measured: format!(
                    "{} / {} / {}",
                    r.stats.drive_down, r.stats.watchdog_fired, r.stats.redispatched
                ),
            },
        ]
    })
    .collect();
    print_table(
        "Fault-under-load: migration + demand reads, injected faults",
        ("scenario", "paper", "measured"),
        &rows,
    );

    // Machine-readable payload, same per-entry schema as
    // BENCH_pipeline.json (availability timeline + fault counters).
    write_bench_json(
        "faults",
        &Json::obj([(
            "fault_load",
            Json::obj([
                ("seed", SEED.into()),
                ("healthy_4drive", healthy.to_json()),
                ("drive_death", death.to_json()),
                ("robot_jam", jam.to_json()),
                ("blackout", blackout.to_json()),
            ]),
        )]),
    );

    checks.expect_clean_traces(4);
    checks.row(
        "drive-death completed all 16 copy-outs on survivors",
        death.completions.len() == 16,
    );
    checks.row(
        format!(
            "degraded wall clock <= 2x healthy ({:.0}s vs {:.0}s)",
            hl_sim::time::as_secs(death.total_end),
            hl_sim::time::as_secs(healthy.total_end)
        ),
        death.total_end <= 2 * healthy.total_end,
    );
    // A re-dispatched fetch records queue residency once per attempt,
    // so faulted runs may log more entries than fetches.
    checks.row(
        "degraded demand p95 residency recorded",
        death.demand_residency.len() >= 6,
    );
    checks.row(
        "blackout recovered and drained",
        blackout.completions.len() == 16 && recovered >= 1,
    );
    checks.finish();
}
