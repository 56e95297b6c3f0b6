//! Adversarial scenario suite (DESIGN.md §6g).
//!
//! Runs every standard scenario — Zipfian steady state, flash crowd,
//! hierarchy scan, tenant thrash, and the two fault-composed variants —
//! against the real event-driven engine, **twice each**, proving the
//! trace digests are byte-identical across runs. Every run must finish
//! with zero tracecheck findings, zero lost tickets (an unresolved
//! ticket panics result collection), and a clean byte oracle. Emits
//! `BENCH_scenarios.json` at the repository root and exits non-zero if
//! any scenario check is false.

use hl_bench::report::{write_bench_json, Checks, Json};
use hl_bench::scenarios::{run_scenario, standard_scenarios, ScenarioResult};
use hl_bench::table::{print_table, Row};
use hl_sim::time::as_secs;

fn check(checks: &mut Checks, r: &ScenarioResult) {
    checks.tracecheck_list(r.name, &r.trace_findings);
    assert_eq!(r.failed_fetches, 0, "{}: failed demand/prefetch", r.name);
    assert_eq!(r.failed_copyouts, 0, "{}: failed copy-outs", r.name);
    assert_eq!(r.oracle_mismatches, 0, "{}: byte oracle diverged", r.name);
}

fn main() {
    let mut checks = Checks::new("Scenario checks");
    let suite = standard_scenarios();
    let mut results: Vec<ScenarioResult> = Vec::new();
    let mut digests_stable = true;
    for cfg in &suite {
        let r = run_scenario(cfg);
        // Determinism gate: an identical second run must replay the
        // exact event sequence — same seed, byte-identical digest.
        let replay = run_scenario(cfg);
        if replay.trace_digest != r.trace_digest {
            digests_stable = false;
            eprintln!(
                "{}: digest drifted across runs ({:016x} vs {:016x})",
                cfg.name, r.trace_digest, replay.trace_digest
            );
        }
        check(&mut checks, &r);
        results.push(r);
    }

    let by_name = |n: &str| {
        results
            .iter()
            .find(|r| r.name == n)
            .expect("standard scenario present")
    };
    let crowd = by_name("flash_crowd");
    let scan = by_name("hierarchy_scan");
    let thrash = by_name("tenant_thrash");
    let death = by_name("flash_crowd_drive_death");
    let jam = by_name("scan_robot_jam");

    let rows: Vec<Row> = results
        .iter()
        .flat_map(|r| {
            vec![
                Row {
                    label: format!("{} / wall clock, swaps, hit rate", r.name),
                    paper: "-".into(),
                    measured: format!(
                        "{:.0}s, {} swaps, {:.0}%",
                        as_secs(r.wall_clock),
                        r.media_swaps,
                        r.hit_rate_pct()
                    ),
                },
                Row {
                    label: format!("{} / demand residency p50/p95", r.name),
                    paper: "-".into(),
                    measured: format!(
                        "{:.1}s/{:.1}s (n={})",
                        as_secs(r.demand_residency_pct(50)),
                        as_secs(r.demand_residency_pct(95)),
                        r.demand_residency.len()
                    ),
                },
                Row {
                    label: format!("{} / coalesced, downs, digest", r.name),
                    paper: "-".into(),
                    measured: format!(
                        "{} / {} / {:016x}",
                        r.coalesced, r.drive_down, r.trace_digest
                    ),
                },
            ]
        })
        .collect();
    print_table(
        "Adversarial scenarios: flash crowds, scans, tenant thrash",
        ("scenario", "paper", "measured"),
        &rows,
    );

    let rows = results.iter().map(|r| (r.name, r.to_json()));
    write_bench_json("scenarios", &Json::obj([("scenarios", Json::obj(rows))]));

    checks.expect_clean_traces(6);
    checks.row("digests byte-stable across replays", digests_stable);
    checks.row(
        format!(
            "flash crowd coalesced the storm ({} coalesced)",
            crowd.coalesced
        ),
        crowd.coalesced >= 23,
    );
    checks.row(
        format!(
            "scan covered the hierarchy once ({} demands, {} swaps)",
            scan.demand_issued, scan.media_swaps
        ),
        scan.demand_issued == 40 && scan.media_swaps >= 4,
    );
    checks.row(
        format!(
            "tenant mix thrashed the cache ({} ejections, {} copy-outs, hit rate {:.0}%)",
            thrash.cache.ejections,
            thrash.copyouts_issued,
            thrash.hit_rate_pct()
        ),
        thrash.cache.ejections > 0 && thrash.copyouts_issued >= 6,
    );
    checks.row(
        format!(
            "drive death absorbed mid-crowd ({} downs, {} redispatched, 0 failed)",
            death.drive_down, death.redispatched
        ),
        death.drive_down >= 1 && death.failed_fetches == 0,
    );
    checks.row(
        format!(
            "robot jam stalled but lost nothing ({:.0}s vs {:.0}s healthy)",
            as_secs(jam.wall_clock),
            as_secs(scan.wall_clock)
        ),
        jam.drive_down == 0 && jam.wall_clock > scan.wall_clock,
    );
    checks.row(
        format!(
            "byte oracle clean everywhere ({} segments verified)",
            results.iter().map(|r| r.oracle_verified).sum::<usize>()
        ),
        results.iter().all(|r| r.oracle_mismatches == 0),
    );
    checks.finish();
}
