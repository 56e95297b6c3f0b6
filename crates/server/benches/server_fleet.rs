//! Client-fleet server benchmark (DESIGN.md §6h).
//!
//! Runs closed-loop protocol client fleets of increasing size against
//! the sharded engine through two worker-pool disciplines (plus the
//! naive one-worker-per-connection baseline at the smallest size),
//! reporting client-observed p50/p95/p99 latency per client count.
//! Gates (any false check exits non-zero):
//!
//! * every run replays with zero tracecheck findings and zero lost
//!   tickets, and every request is answered;
//! * the 1000-client run is byte-stable — an identical rerun produces
//!   the same combined trace digest;
//! * coalescing holds at the server layer — N concurrent gets of one
//!   cold object cost exactly one media read;
//! * fairness — with a prefetch-storm tenant sharing the server, the
//!   victim tenant's demand p95 degrades at most 2x over running solo;
//! * nothing polls — the 1000-client shared-queue run takes at most
//!   [`STEPS_PER_REQUEST_CEILING`] scheduler steps per request.
//!
//! Emits `BENCH_server.json` at the repository root.

use highlight::segcache::EjectPolicy;
use hl_bench::report::{write_bench_json, Checks, Json};
use hl_server::fleet::{run_fleet, FleetConfig, FleetReport, StormConfig};
use hl_server::pool::PoolKind;
use hl_server::shard::ShardSpec;

const MS: u64 = 1_000;

/// Scheduler steps per request allowed at 1000 clients (shared queue).
/// Workers that park on their tickets take 12.35; with the 20 ms ticket
/// poll they took 154.93.
const STEPS_PER_REQUEST_CEILING: f64 = 15.0;

/// The scale-sweep geometry: 4 shards of 8 volumes x 32 slots, 1024
/// objects total, 4 drives and 64 cache lines per shard.
fn sweep_config(pool: PoolKind, clients: u32) -> FleetConfig {
    FleetConfig {
        seed: 1993,
        clients,
        requests_per_client: 2,
        tenants: 8,
        pool,
        workers: 8,
        shards: 4,
        spec: ShardSpec {
            volumes: 8,
            segments_per_volume: 32,
            cache_lines: 64,
            drives: 4,
        },
        zipf_exponent: 0.9,
        think: 200 * MS,
        open_loop: None,
        storm: None,
        weights: Vec::new(),
        eject: EjectPolicy::Lru,
    }
}

/// The fairness rig: one shard, scarce drives, so the storm and the
/// victim genuinely contend for media.
fn fairness_config(tenants: u32, clients: u32) -> FleetConfig {
    FleetConfig {
        seed: 77,
        clients,
        requests_per_client: 4,
        tenants,
        pool: PoolKind::SharedQueue,
        workers: 4,
        shards: 1,
        spec: ShardSpec {
            volumes: 6,
            segments_per_volume: 16,
            cache_lines: 24,
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

fn gate(checks: &mut Checks, name: &str, r: &FleetReport) {
    checks.tracecheck(name, r.findings);
    assert_eq!(r.lost_tickets, 0, "{name}: lost tickets");
    assert_eq!(r.errors, 0, "{name}: protocol errors");
}

fn row_json(r: &FleetReport) -> Json {
    Json::obj([
        ("p50_us", r.p50.into()),
        ("p95_us", r.p95.into()),
        ("p99_us", r.p99.into()),
        ("completed", r.completed.into()),
        ("errors", r.errors.into()),
        ("lost_tickets", r.lost_tickets.into()),
        ("tracecheck_findings", r.findings.into()),
        ("tenant_admits", r.tenant_admits.into()),
        ("tenant_throttles", r.tenant_throttles.into()),
        ("steals", r.steals.into()),
        ("demand_fetches", r.demand_fetches.into()),
        ("coalesced_fetches", r.coalesced_fetches.into()),
        ("end_time_us", r.end_time.into()),
        ("trace_digest", Json::hex(r.digest)),
        ("steps_per_request", Json::Fixed(steps_per_request(r), 2)),
    ])
}

/// Scheduler steps per answered request: what one request costs the
/// simulator, whatever the host.
fn steps_per_request(r: &FleetReport) -> f64 {
    r.steps as f64 / r.completed.max(1) as f64
}

fn main() {
    let mut checks = Checks::new("Fleet checks");
    // ---- Scale sweep: latency percentiles vs client count. ---------
    let counts = [100u32, 400, 1000];
    let pools = [PoolKind::SharedQueue, PoolKind::WorkStealing];
    let mut sweep: Vec<(PoolKind, u32, FleetReport)> = Vec::new();
    let mut answered = true;
    println!("pool           clients  completed   p50(ms)   p95(ms)   p99(ms)  steals  steps/req");
    for &pool in &pools {
        for &clients in &counts {
            let cfg = sweep_config(pool, clients);
            let r = run_fleet(&cfg);
            gate(
                &mut checks,
                &format!("fleet {}/{}", pool.label(), clients),
                &r,
            );
            answered &= r.completed == (cfg.clients * cfg.requests_per_client) as u64;
            println!(
                "{:<14} {:>7} {:>10} {:>9.1} {:>9.1} {:>9.1} {:>7} {:>10.2}",
                pool.label(),
                clients,
                r.completed,
                r.p50 as f64 / 1e3,
                r.p95 as f64 / 1e3,
                r.p99 as f64 / 1e3,
                r.steals,
                steps_per_request(&r)
            );
            sweep.push((pool, clients, r));
        }
    }
    // Naive baseline: one worker per connection, smallest fleet only.
    let naive_cfg = sweep_config(PoolKind::Naive, 100);
    let naive = run_fleet(&naive_cfg);
    gate(&mut checks, "fleet naive/100", &naive);
    answered &= naive.completed == (naive_cfg.clients * naive_cfg.requests_per_client) as u64;
    println!(
        "{:<14} {:>7} {:>10} {:>9.1} {:>9.1} {:>9.1} {:>7} {:>10.2}",
        "naive",
        100,
        naive.completed,
        naive.p50 as f64 / 1e3,
        naive.p95 as f64 / 1e3,
        naive.p99 as f64 / 1e3,
        naive.steals,
        steps_per_request(&naive)
    );

    // ---- Determinism: the 1000-client run is byte-stable. ----------
    let big = sweep
        .iter()
        .find(|(p, c, _)| *p == PoolKind::SharedQueue && *c == 1000)
        .map(|(_, _, r)| r.clone())
        .expect("1000-client run present");
    let replay = run_fleet(&sweep_config(PoolKind::SharedQueue, 1000));
    let deterministic = replay.digest == big.digest && replay.end_time == big.end_time;
    println!(
        "Determinism check (1000 clients, two runs): digest {:016x} == {:016x} -> {}",
        big.digest, replay.digest, deterministic
    );

    // ---- Server-layer coalescing: one cold object, many clients. ---
    let mut co_cfg = FleetConfig::small(3, PoolKind::SharedQueue);
    co_cfg.clients = 64;
    co_cfg.requests_per_client = 1;
    co_cfg.tenants = 1;
    co_cfg.think = 0;
    co_cfg.zipf_exponent = 50.0; // degenerate: everyone draws one object
    let co = run_fleet(&co_cfg);
    gate(&mut checks, "fleet coalesce/64", &co);
    let coalesced_ok = co.demand_fetches == 1 && co.completed == 64;
    println!(
        "Coalescing check (64 concurrent gets of one cold object): {} media read(s), {} coalesced -> {}",
        co.demand_fetches, co.coalesced_fetches, coalesced_ok
    );

    // ---- Fairness: prefetch-storm tenant vs demand tenant. ---------
    // Solo: the victim tenant alone (its clients and draw sequence are
    // identical in both runs — streams are per-tenant).
    let solo = run_fleet(&fairness_config(1, 8));
    gate(&mut checks, "fleet fairness-solo", &solo);
    let mut storm_cfg = fairness_config(2, 16);
    storm_cfg.storm = Some(StormConfig {
        tenant: 1,
        width: 8,
    });
    let storm = run_fleet(&storm_cfg);
    gate(&mut checks, "fleet fairness-storm", &storm);
    let solo_p95 = solo.per_tenant[&0].p95;
    let storm_p95 = storm.per_tenant[&0].p95;
    let ratio = storm_p95 as f64 / solo_p95.max(1) as f64;
    let fairness_ok = ratio <= 2.0;
    println!(
        "Fairness check (victim demand p95 under storm): solo {:.1} ms, storm {:.1} ms, ratio {:.2} <= 2.0 -> {} ({} throttles, {} admits)",
        solo_p95 as f64 / 1e3,
        storm_p95 as f64 / 1e3,
        ratio,
        fairness_ok,
        storm.tenant_throttles,
        storm.tenant_admits
    );

    // ---- BENCH_server.json ----------------------------------------
    let mut fleet_json: Vec<(&str, Json)> = pools
        .iter()
        .map(|&pool| {
            let rows = sweep
                .iter()
                .filter(|(p, _, _)| *p == pool)
                .map(|(_, c, r)| (c.to_string(), row_json(r)));
            (pool.label(), Json::obj(rows))
        })
        .collect();
    fleet_json.push(("naive", Json::obj([("100", row_json(&naive))])));
    write_bench_json(
        "server",
        &Json::obj([
            ("server_fleet", Json::obj(fleet_json)),
            (
                "coalescing",
                Json::obj([
                    ("clients", 64u32.into()),
                    ("media_reads", co.demand_fetches.into()),
                    ("coalesced", co.coalesced_fetches.into()),
                ]),
            ),
            (
                "fairness",
                Json::obj([
                    ("solo_p95_us", solo_p95.into()),
                    ("storm_p95_us", storm_p95.into()),
                    ("ratio", Json::Fixed(ratio, 4)),
                    ("bound", Json::Fixed(2.0, 1)),
                    ("storm_throttles", storm.tenant_throttles.into()),
                    ("storm_admits", storm.tenant_admits.into()),
                ]),
            ),
        ]),
    );

    checks.expect_clean_traces(10);
    checks.row("every_request_answered", answered);
    checks.row("deterministic_at_1000_clients", deterministic);
    checks.row(
        format!(
            "steps_per_request_at_1000_clients ({:.2}) <= {STEPS_PER_REQUEST_CEILING}",
            steps_per_request(&big)
        ),
        steps_per_request(&big) <= STEPS_PER_REQUEST_CEILING,
    );
    checks.row("coalescing_holds_at_server", coalesced_ok);
    checks.row("fairness_p95_within_2x", fairness_ok);
    checks.row(
        "fair_queue_engaged_without_starving_the_storm",
        storm.tenant_throttles > 0 && storm.tenant_admits > 0,
    );
    checks.finish();
}
