//! The two client-fleet workloads: `hl_server::run_fleet` end to end.
//!
//! `run_fleet` is one opaque call — it builds its own sharded engine,
//! spawns clients, workers and engine actors on a private scheduler and
//! returns a report — so the harness times the call as a whole, builds a
//! stand-alone engine of the same geometry beside it for `setup_s`, and
//! gets per-layer host costs by replaying the rep's own request sequence
//! through each layer's public functions in isolation ([`crate::layers`]).

use highlight::segcache::EjectPolicy;
use hl_server::{run_fleet, FleetConfig, PoolKind, ShardSpec, ShardedEngine, StormConfig};
use hl_sim::time::MS;
use hl_sim::{Clock, Scheduler};

use crate::clock::HostClock;
use crate::layers;
use crate::report::Metric;
use crate::span::Recorder;
use crate::workload::{span_metrics, Counter, Per, Rep, SimOutcome, Workload};

/// Bytes a `Get` answers for: one tertiary segment.
const OBJECT_BYTES: u64 = 1 << 20;

pub struct Fleet {
    name: &'static str,
    cfg: FleetConfig,
    /// Tracecheck findings a rep may report and still pass. The last
    /// shard attached to a fleet's scheduler also receives every actor's
    /// park and wake events, so on a fleet of more than ~10 k requests
    /// its 65 536-event ring overflows and tracecheck answers with the
    /// single finding "trace truncated" for that shard, whatever else
    /// happened there. The digest still covers every event emitted.
    tolerated_findings: u64,
}

impl Fleet {
    /// Jukebox-bound: 1000 clients, 256 one-MB objects behind 16 cache
    /// lines and 2 drives per shard, tenant 7 a prefetch storm.
    pub fn cold(seed: u64) -> Fleet {
        Fleet {
            name: "fleet_cold",
            cfg: FleetConfig {
                seed,
                clients: 1000,
                requests_per_client: 16,
                tenants: 8,
                pool: PoolKind::SharedQueue,
                workers: 8,
                shards: 4,
                spec: ShardSpec {
                    volumes: 4,
                    segments_per_volume: 16,
                    cache_lines: 16,
                    drives: 2,
                },
                zipf_exponent: 0.9,
                think: 200 * MS,
                open_loop: None,
                storm: Some(StormConfig {
                    tenant: 7,
                    width: 8,
                }),
                weights: Vec::new(),
                eject: EjectPolicy::Lru,
            },
            tolerated_findings: 0,
        }
    }

    /// Server-bound: 100 clients, 128 objects that all fit the cache, so
    /// after 128 cold fetches every get is a hit and the jukebox idles.
    pub fn resident(seed: u64) -> Fleet {
        Fleet {
            name: "fleet_resident",
            cfg: FleetConfig {
                seed,
                clients: 100,
                requests_per_client: 2400,
                tenants: 8,
                pool: PoolKind::SharedQueue,
                workers: 8,
                shards: 4,
                spec: ShardSpec {
                    volumes: 2,
                    segments_per_volume: 16,
                    cache_lines: 64,
                    drives: 2,
                },
                zipf_exponent: 0.9,
                think: 20 * MS,
                open_loop: None,
                storm: None,
                weights: Vec::new(),
                eject: EjectPolicy::Lru,
            },
            tolerated_findings: 1,
        }
    }

    fn requests(&self) -> u64 {
        self.cfg.clients as u64 * self.cfg.requests_per_client as u64
    }
}

impl Workload for Fleet {
    fn name(&self) -> &'static str {
        self.name
    }

    fn rep(&self, host: &HostClock, rec: &mut Recorder) -> Rep {
        let cfg = &self.cfg;
        // No simulated clock is visible from outside `run_fleet`; spans
        // carry its simulated makespan through this stand-in.
        let sim = Clock::new();

        let s0 = host.stamp();
        let root = rec.enter("phase.setup", 0, 0);
        let engine = rec.call("server.shard.build", 0, &sim, || {
            let mut sched: Scheduler<()> = Scheduler::new();
            ShardedEngine::build(cfg.seed, cfg.shards, cfg.spec, &mut sched)
        });
        rec.exit(root, 0);
        let setup = host.since(s0);
        drop(engine);

        let s1 = host.stamp();
        let root = rec.enter("phase.measured", 0, 0);
        let r = rec.call("server.fleet.run", 0, &sim, || {
            let r = run_fleet(cfg);
            sim.advance_to(r.end_time);
            r
        });
        rec.exit(root, sim.now());
        let run = host.since(s1);

        let gets: u64 = r.per_tenant.values().map(|t| t.count).sum();
        let expected = self.requests();
        let failed = r.errors
            + r.lost_tickets
            + (r.findings as u64).saturating_sub(self.tolerated_findings)
            + expected.saturating_sub(r.completed);
        let p99s = || r.per_tenant.values().filter(|t| t.count > 0).map(|t| t.p99);
        let fetches = r.demand_fetches + r.coalesced_fetches;
        Rep {
            ops: expected,
            failed,
            setup,
            run,
            sim: SimOutcome {
                lat_p50_us: r.p50,
                lat_p99_us: r.p99,
                lat_samples: r.completed,
                user_bytes: gets * OBJECT_BYTES,
                makespan_us: r.end_time,
                amp_moved: r.demand_fetches,
                amp_per: gets,
                digest: r.digest,
                counters: vec![
                    Counter::count("core.fetch.count", r.demand_fetches),
                    Counter::count("core.fetch.coalesced", r.coalesced_fetches),
                    Counter::count("core.requests.tenant_throttles", r.tenant_throttles),
                    Counter::count("server.pool.steals", r.steals),
                    Counter::ratio(
                        "server.fleet.coalesced_pct",
                        r.coalesced_fetches * 100,
                        fetches,
                        "%",
                    ),
                    Counter::ratio(
                        "server.fleet.tenant_p99_spread",
                        p99s().max().unwrap_or(0),
                        p99s().min().unwrap_or(0),
                        "x",
                    ),
                    Counter::count("server.fleet.lost_tickets", r.lost_tickets),
                ],
            },
            spans: rec.take(),
        }
    }

    fn layer_metrics(&self, traced: &[&Rep], common: &[Metric]) -> Vec<Metric> {
        let spans = span_metrics(
            traced,
            &[
                ("server.shard.build_ms", "server.shard.build", Per::Ms),
                ("server.fleet.run_ms", "server.fleet.run", Per::Ms),
            ],
        );
        let (build_ms, run_ms) = (spans[0].value, spans[1].value);
        // `run_fleet` builds its own engine first; what is left is the
        // cost of serving the requests.
        let ns_per_req = (run_ms - build_ms).max(0.0) * 1e6 / self.requests() as f64;

        let mut out = layers::server(&self.cfg);
        let attributed = layers::attributed_ns_per_request(&out, common, self.cfg.workers);
        out.push(Metric::new("server.shard.build_ms", build_ms, "ms"));
        out.push(Metric::new(
            "server.fleet.host_us_per_req",
            ns_per_req / 1e3,
            "us",
        ));
        out.push(Metric::new(
            "server.fleet.attributed_ns_per_req",
            attributed,
            "ns",
        ));
        out.push(Metric::new(
            "server.fleet.unattributed_pct",
            100.0 * (1.0 - attributed / ns_per_req).max(0.0),
            "%",
        ));
        out
    }

    fn ledger_violations(&self, traced: &[&Rep]) -> Vec<String> {
        // Where a shard's cache holds all its objects nothing is ever
        // ejected, so each object is fetched at most once.
        let spec = &self.cfg.spec;
        if (spec.cache_lines as u64) < spec.objects() {
            return Vec::new();
        }
        let objects = spec.objects() * self.cfg.shards as u64;
        let fetched = traced[0].sim.amp_moved;
        if fetched > objects {
            return vec![format!(
                "{fetched} demand fetches for {objects} objects that all fit the cache"
            )];
        }
        Vec::new()
    }
}
