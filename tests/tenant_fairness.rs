//! Per-tenant fairness at the service layer (DESIGN.md §6h).
//!
//! Two arms:
//!
//! * A deterministic two-tenant starvation test: one tenant issues a
//!   prefetch storm through the server's `Scan` opcode while a victim
//!   tenant issues demand `Get`s. The victim's p95 demand residency
//!   must stay within a fixed bound (2x) of what it sees running solo
//!   — the tenant streams are seeded per-tenant, so the victim issues
//!   the *identical* request sequence in both runs.
//! * A proptest arm: any small random tenant mix (client count, tenant
//!   count, storm shape, pool width, weights) must complete every
//!   request, resolve every prefetch ticket (zero lost tickets), and
//!   replay with zero tracecheck findings.

use highlight::segcache::EjectPolicy;
use hl_server::fleet::{run_fleet, FleetConfig, StormConfig};
use hl_server::pool::PoolKind;
use hl_server::shard::ShardSpec;
use proptest::prelude::*;

const MS: u64 = 1_000;

fn fairness_config(tenants: u32, clients: u32) -> FleetConfig {
    FleetConfig {
        seed: 41,
        clients,
        requests_per_client: 3,
        tenants,
        pool: PoolKind::SharedQueue,
        workers: 3,
        shards: 1,
        spec: ShardSpec {
            volumes: 4,
            segments_per_volume: 12,
            cache_lines: 16,
            drives: 2,
        },
        zipf_exponent: 0.9,
        think: 100 * MS,
        open_loop: None,
        storm: None,
        weights: Vec::new(),
        eject: EjectPolicy::Lru,
    }
}

#[test]
fn prefetch_storm_cannot_double_the_victims_p95_residency() {
    // Solo: tenant 0 alone, 4 clients.
    let solo = run_fleet(&fairness_config(1, 4));
    assert_eq!(solo.findings, 0, "solo run must replay clean");
    assert_eq!(solo.errors, 0);
    let solo_p95 = solo.per_tenant[&0].p95;
    assert!(solo_p95 > 0, "solo victim saw real residency");

    // Storm: the same 4 victim clients (same tenant stream) plus 4
    // clients of tenant 1 spraying 8-object scans.
    let mut cfg = fairness_config(2, 8);
    cfg.storm = Some(StormConfig {
        tenant: 1,
        width: 8,
    });
    let storm = run_fleet(&cfg);
    assert_eq!(storm.findings, 0, "storm run must replay clean");
    assert_eq!(storm.lost_tickets, 0, "every storm prefetch resolved");
    let victim = storm.per_tenant[&0];
    assert_eq!(
        victim.count, solo.per_tenant[&0].count,
        "victim issued the same demand sequence in both runs"
    );
    let storm_p95 = victim.p95;
    assert!(
        storm_p95 <= 2 * solo_p95,
        "victim demand p95 degraded more than 2x under the storm: \
         solo {solo_p95} us, storm {storm_p95} us"
    );
    // The fair queue actually engaged: the storm was throttled at
    // least once, and its work was still admitted (not starved).
    assert!(storm.tenant_throttles > 0, "storm was never throttled");
    assert!(storm.tenant_admits > 0, "storm was never admitted");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn random_tenant_mixes_lose_no_tickets_and_replay_clean(
        seed in 0u64..1_000_000,
        clients in 2u32..14,
        tenants in 1u32..5,
        rpc in 1u32..4,
        workers in 1usize..5,
        storm_pick in 0u8..3,
        width in 1u32..8,
        weight in 1u32..6,
        shards in 1usize..3,
    ) {
        let tenants = tenants.min(clients);
        let storm = (storm_pick == 0).then_some(StormConfig {
            tenant: tenants - 1,
            width,
        });
        let cfg = FleetConfig {
            seed,
            clients,
            requests_per_client: rpc,
            tenants,
            pool: PoolKind::SharedQueue,
            workers,
            shards,
            spec: ShardSpec {
                volumes: 4,
                segments_per_volume: 8,
                cache_lines: 12,
                drives: 2,
            },
            zipf_exponent: 0.9,
            think: 50 * MS,
            open_loop: (storm_pick == 1).then_some(400 * MS),
            storm,
            weights: vec![(0, weight)],
            eject: EjectPolicy::Lru,
        };
        let r = run_fleet(&cfg);
        prop_assert_eq!(r.completed, (clients * rpc) as u64, "every request answered");
        prop_assert_eq!(r.errors, 0, "no protocol errors");
        prop_assert_eq!(r.lost_tickets, 0, "no prefetch ticket lost");
        prop_assert_eq!(r.findings, 0, "tracecheck clean");
    }
}
