//! Policy ablation bench (DESIGN.md §6i, ROADMAP item 3).
//!
//! Replays the two standard [`OpStream`] workloads under every standard
//! policy arm, regenerating each stream fresh per arm and gating on the
//! replay-identity invariant: the input-trace digests must be identical
//! across arms per workload, so metric differences can only come from
//! the policy under test. Every replay must finish with zero tracecheck
//! findings and a clean byte oracle; the thrash workload must show at
//! least one new policy beating the paper baseline on write
//! amplification or demand p95 residency. A fleet arm replays the
//! tenant-thrash adversary through `run_fleet`, judging cache-ejection
//! policies by client-observed per-tenant p95. Emits
//! `BENCH_policies.json` at the repository root.

use std::collections::BTreeMap;

use hl_bench::policies::{run_policy_arm, standard_arms, standard_workloads, ArmReport};
use hl_bench::report::{write_bench_json, Checks, Json};
use hl_bench::table::{print_table, Row};
use hl_server::{run_fleet, FleetConfig, PoolKind};
use highlight::segcache::EjectPolicy;

fn check(checks: &mut Checks, r: &ArmReport) {
    checks.tracecheck(&format!("{}/{}", r.arm, r.workload), r.findings);
    assert!(
        r.oracle_verified > 0,
        "{}/{}: oracle never exercised",
        r.arm, r.workload
    );
}

/// One fleet arm: the tenant-thrash adversary through the concurrent
/// server, judged by client-observed per-tenant latency.
struct FleetArm {
    name: &'static str,
    eject: EjectPolicy,
    p95: u64,
    worst_tenant_p95: u64,
    findings: usize,
    lost_tickets: u64,
    digest: u64,
    demand_fetches: u64,
}

fn thrash_fleet_config(eject: EjectPolicy) -> FleetConfig {
    let mut cfg = FleetConfig::small(0xA4, PoolKind::WorkStealing);
    // Cache-starve the shards so ejection policy decides who waits on
    // the robot — but keep lines ≥ peak concurrent fetches per shard,
    // since an all-lines-pinned cache refuses fetches by design.
    cfg.spec.cache_lines = 16;
    cfg.clients = 24;
    cfg.requests_per_client = 4;
    cfg.tenants = 6;
    cfg.eject = eject;
    cfg
}

fn run_fleet_arm(checks: &mut Checks, name: &'static str, eject: EjectPolicy) -> FleetArm {
    let r = run_fleet(&thrash_fleet_config(eject));
    assert_eq!(r.lost_tickets, 0, "{name}: lost tickets");
    assert_eq!(r.errors, 0, "{name}: client-visible errors");
    checks.tracecheck(&format!("fleet/{name}"), r.findings);
    let worst = r.per_tenant.values().map(|t| t.p95).max().unwrap_or(0);
    FleetArm {
        name,
        eject,
        p95: r.p95,
        worst_tenant_p95: worst,
        findings: r.findings,
        lost_tickets: r.lost_tickets,
        digest: r.digest,
        demand_fetches: r.demand_fetches,
    }
}

fn main() {
    // ------------------------------------------------------------------
    // The ablation proper: every arm × every workload, streams
    // regenerated fresh per arm.
    // ------------------------------------------------------------------
    let mut checks = Checks::new("Policy checks");
    let arms = standard_arms();
    let mut reports: Vec<ArmReport> = Vec::new();
    for arm in &arms {
        for stream in standard_workloads() {
            let r = run_policy_arm(&stream, arm);
            check(&mut checks, &r);
            reports.push(r);
        }
    }

    // Replay-identity gate: per workload, every arm saw the byte-exact
    // same input stream.
    let mut digests: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for r in &reports {
        digests.entry(r.workload).or_default().push(r.input_digest);
    }
    let mut replay_identical = true;
    for (wl, ds) in &digests {
        assert_eq!(ds.len(), arms.len(), "{wl}: one replay per arm");
        if ds.iter().any(|d| d != &ds[0]) {
            replay_identical = false;
            eprintln!("{wl}: input digests diverged across arms: {ds:x?}");
        }
    }

    // Beats-baseline gate (ISSUE acceptance): in the thrash adversary,
    // at least one new policy must beat the paper baseline on write
    // amplification or demand p95 residency.
    let thrash = |arm: &str| {
        reports
            .iter()
            .find(|r| r.arm == arm && r.workload == "policy_thrash")
            .expect("thrash replay present")
    };
    let base = thrash("paper_baseline");
    let challengers = ["cost_benefit", "generational", "adaptive"];
    let mut winners: Vec<String> = Vec::new();
    for name in challengers {
        let c = thrash(name);
        if c.write_amp < base.write_amp {
            winners.push(format!(
                "{name} write_amp {:.3} < baseline {:.3}",
                c.write_amp, base.write_amp
            ));
        }
        if c.demand_p95 < base.demand_p95 {
            winners.push(format!(
                "{name} demand_p95 {}us < baseline {}us",
                c.demand_p95, base.demand_p95
            ));
        }
    }

    // ------------------------------------------------------------------
    // Fleet arm: the same adversary through the concurrent server,
    // judged by client-observed per-tenant p95.
    // ------------------------------------------------------------------
    let fleet = [
        run_fleet_arm(&mut checks, "lru_baseline", EjectPolicy::Lru),
        run_fleet_arm(&mut checks, "least_worthy", EjectPolicy::LeastWorthy),
    ];

    // ------------------------------------------------------------------
    // Report.
    // ------------------------------------------------------------------
    let rows: Vec<Row> = reports
        .iter()
        .map(|r| Row {
            label: format!("{} / {}", r.workload, r.arm),
            paper: "-".into(),
            measured: format!(
                "hit {:.0}% wamp {:.2} p95 {:.1}s swaps {} cleans {}/{}",
                r.hit_rate() * 100.0,
                r.write_amp,
                r.demand_p95 as f64 / 1e6,
                r.media_swaps,
                r.disk_cleans,
                r.tclean_passes
            ),
        })
        .chain(fleet.iter().map(|f| Row {
            label: format!("fleet / {}", f.name),
            paper: "-".into(),
            measured: format!(
                "p95 {}us worst-tenant p95 {}us fetches {}",
                f.p95, f.worst_tenant_p95, f.demand_fetches
            ),
        }))
        .collect();
    print_table(
        "Policy ablation: migration x cleaning x ejection",
        ("arm", "paper", "measured"),
        &rows,
    );

    let fleet_json = fleet.iter().map(|f| {
        Json::obj([
            ("name", f.name.into()),
            ("eject", Json::Str(format!("{:?}", f.eject))),
            ("p95_us", f.p95.into()),
            ("worst_tenant_p95_us", f.worst_tenant_p95.into()),
            ("findings", f.findings.into()),
            ("lost_tickets", f.lost_tickets.into()),
            ("digest", Json::Str(format!("{:#018x}", f.digest))),
            ("demand_fetches", f.demand_fetches.into()),
        ])
    });
    write_bench_json(
        "policies",
        &Json::obj([
            ("arms", Json::arr(reports.iter().map(|r| r.to_json()))),
            ("fleet", Json::arr(fleet_json)),
        ]),
    );

    checks.expect_clean_traces(10);
    checks.row(
        format!(
            "replay identity held ({} workloads x {} arms)",
            digests.len(),
            arms.len()
        ),
        replay_identical,
    );
    checks.row(
        format!(
            "byte oracle clean everywhere ({} reads verified)",
            reports.iter().map(|r| r.oracle_verified).sum::<u64>()
        ),
        reports.iter().all(|r| r.oracle_failures == 0),
    );
    checks.row(
        format!(
            "every arm consulted its policies ({} decisions total)",
            reports.iter().map(|r| r.policy_decisions).sum::<u64>()
        ),
        reports.iter().all(|r| r.policy_decisions > 0),
    );
    // At least one new policy must beat the paper baseline on write
    // amplification or demand p95 residency under the thrash adversary.
    checks.row(
        format!(
            "a challenger beats the baseline (write_amp {:.3}, demand p95 {}us) under thrash: {}",
            base.write_amp,
            base.demand_p95,
            winners.join("; ")
        ),
        !winners.is_empty(),
    );
    println!(
        "fleet judged by per-tenant p95: lru {}us vs least_worthy {}us",
        fleet[0].worst_tenant_p95, fleet[1].worst_tenant_p95
    );
    checks.finish();
}
