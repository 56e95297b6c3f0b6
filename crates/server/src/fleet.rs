//! Simulated client fleets multiplexed onto the sharded engine.
//!
//! Thousands of protocol-speaking clients, a worker pool, and the
//! engine shards all run as actors on one deterministic virtual-time
//! scheduler. A client encodes a request frame onto its connection,
//! marks the connection ready in the pool, and parks; a worker decodes
//! the frame, drives the engine (tagging every fetch with the client's
//! tenant so the fair queue sees it), parks on the engine's tickets, and
//! wakes the client when the response frame is on the wire. Nothing
//! polls: the engine wakes a worker at the instant it resolves a ticket
//! the worker waits on. Latency is measured where the paper's users would
//! feel it: from frame sent to the media work done, in virtual time.
//!
//! Closed-loop clients keep one request outstanding (think time
//! between); open-loop clients fire on a fixed schedule regardless of
//! completions, which is what actually exposes queue buildup. A
//! "storm" tenant can be configured to issue `Scan` (prefetch) bursts
//! instead of `Get`s — the vehicle for the fairness experiments.

use std::collections::BTreeMap;

use highlight::requests::Ticket;
use highlight::rig::seg_image;
use highlight::segcache::{EjectPolicy, LineState};
use highlight::TenantId;
use hl_lfs::config::AddressMap;
use hl_sim::stats::percentile;
use hl_sim::time::MS;
use hl_sim::{Actor, ActorId, Scheduler, SimTime, Step, Waker};
use hl_workload::{TenantMix, ZipfStore};

use crate::connection::Connection;
use crate::pool::{PoolKind, PoolState, WakeHint};
use crate::proto::{Req, RequestFrame, ResponseFrame};
use crate::shard::{ShardSpec, ShardedEngine};

/// How often a worker retries a put that waits for space — a cache line
/// to stage into, or a slot in the request queue. No ticket marks that
/// moment: a line frees through ejection as well as copy-out.
const RETRY: SimTime = 20 * MS;

/// Protocol error codes the server returns.
const ERR_FETCH: u32 = 1;
const ERR_BAD_OBJ: u32 = 2;
const ERR_COPYOUT: u32 = 3;

/// A scripted prefetch storm: every client of `tenant` issues
/// `Scan { width }` requests instead of `Get`s.
#[derive(Clone, Copy, Debug)]
pub struct StormConfig {
    /// The storming tenant.
    pub tenant: TenantId,
    /// Objects per scan request.
    pub width: u32,
}

/// One fleet experiment.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Seed for the engine oracle, the Zipfian stream, and the mix.
    pub seed: u64,
    /// Simulated clients (one connection each).
    pub clients: u32,
    /// Requests each client issues.
    pub requests_per_client: u32,
    /// Distinct tenants; client `c` belongs to tenant `c % tenants`.
    pub tenants: u32,
    /// Worker-pool dispatch discipline.
    pub pool: PoolKind,
    /// Pool width (ignored by [`PoolKind::Naive`], which spawns one
    /// worker per client).
    pub workers: usize,
    /// Engine shards.
    pub shards: usize,
    /// Per-shard geometry.
    pub spec: ShardSpec,
    /// Zipfian exponent of the object popularity distribution.
    pub zipf_exponent: f64,
    /// Think time between a response and the next request (closed loop).
    pub think: SimTime,
    /// `Some(interval)` switches clients to open loop: one request per
    /// interval, regardless of completions.
    pub open_loop: Option<SimTime>,
    /// Optional prefetch-storm tenant.
    pub storm: Option<StormConfig>,
    /// Fair-queue weight overrides, applied to every shard.
    pub weights: Vec<(TenantId, u32)>,
    /// Segment-cache ejection policy on every shard (the policy
    /// ablation varies it; [`EjectPolicy::Lru`] is the paper baseline).
    pub eject: EjectPolicy,
}

impl FleetConfig {
    /// A debug-build-sized fleet: small geometry, enough clients to
    /// exercise every pool path.
    pub fn small(seed: u64, pool: PoolKind) -> FleetConfig {
        FleetConfig {
            seed,
            clients: 24,
            requests_per_client: 3,
            tenants: 4,
            pool,
            workers: 4,
            shards: 2,
            spec: ShardSpec {
                volumes: 4,
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
}

/// Per-tenant `Get` latency summary, µs.
#[derive(Clone, Copy, Debug, Default)]
pub struct TenantLat {
    /// Completed gets.
    pub count: u64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// What a fleet run produced.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Pool label.
    pub pool: &'static str,
    /// Clients simulated.
    pub clients: u32,
    /// Responses delivered.
    pub completed: u64,
    /// Responses carrying an error status.
    pub errors: u64,
    /// Engine tickets never resolved (must be zero).
    pub lost_tickets: u64,
    /// Work-stealing pool: connections stolen.
    pub steals: u64,
    /// Combined per-shard trace digest (byte-stable across reruns).
    pub digest: u64,
    /// Tracecheck findings across all shards (must be zero).
    pub findings: usize,
    /// All-request latency percentiles, µs.
    pub p50: u64,
    /// 95th percentile, µs.
    pub p95: u64,
    /// 99th percentile, µs.
    pub p99: u64,
    /// Per-tenant `Get` latency summaries.
    pub per_tenant: BTreeMap<TenantId, TenantLat>,
    /// Fair-queue admissions of tagged requests, summed over shards.
    pub tenant_admits: u64,
    /// Fair-queue throttle deferrals, summed over shards.
    pub tenant_throttles: u64,
    /// Media reads actually performed for demand fetches.
    pub demand_fetches: u64,
    /// Fetches absorbed by duplicate coalescing.
    pub coalesced_fetches: u64,
    /// Virtual completion time of the whole fleet, µs.
    pub end_time: SimTime,
    /// Scheduler steps the run took: clients, workers and engine actors.
    pub steps: u64,
}

/// The shared world every fleet actor steps against.
struct FleetWorld {
    /// The sharded engine under test.
    engine: ShardedEngine,
    conns: Vec<Connection>,
    pool: PoolState,
    waker: Waker,
    worker_ids: Vec<ActorId>,
    client_ids: Vec<ActorId>,
    seed: u64,
    /// `(tenant, opcode, latency µs)` per completed request.
    lat: Vec<(TenantId, u8, u64)>,
    completed: u64,
    errors: u64,
    /// Prefetch tickets issued on behalf of `Scan`s: all must resolve
    /// by quiescence (the zero-lost-tickets gate).
    prefetch_tickets: Vec<Ticket>,
}

impl FleetWorld {
    /// Marks `conn` ready and wakes the pool per its dispatch rule.
    fn submit(&mut self, conn: u32, now: SimTime) {
        match self.pool.submit(conn) {
            WakeHint::One(w) => self.waker.wake(self.worker_ids[w], now),
            WakeHint::All => self.waker.wake_many(&self.worker_ids, now),
        }
    }

    fn respond(&mut self, now: SimTime, conn: u32, frame: ResponseFrame) {
        self.conns[conn as usize].send_response(&frame);
        self.waker.wake(self.client_ids[conn as usize], now);
    }
}

/// One protocol client on its own connection.
struct ClientActor {
    conn: Connection,
    tenant: TenantId,
    objs: Vec<u64>,
    idx: usize,
    /// `Some(width)`: this client scans (prefetch storm) instead of
    /// getting.
    scan_width: Option<u32>,
    think: SimTime,
    open_interval: Option<SimTime>,
    /// `req_id → (sent at, opcode)`.
    inflight: BTreeMap<u64, (SimTime, u8)>,
    next_send: SimTime,
}

impl ClientActor {
    fn send(&mut self, w: &mut FleetWorld, now: SimTime) {
        let obj = self.objs[self.idx];
        self.idx += 1;
        let req_id = ((self.conn.id as u64) << 32) | self.idx as u64;
        let req = match self.scan_width {
            Some(width) => Req::Scan {
                start: obj,
                count: width,
            },
            None => Req::Get { obj },
        };
        self.conn.send_request(&RequestFrame {
            tenant: self.tenant,
            req_id,
            req,
        });
        self.inflight.insert(req_id, (now, req.opcode()));
        w.submit(self.conn.id, now);
    }
}

impl Actor<FleetWorld> for ClientActor {
    fn step(&mut self, w: &mut FleetWorld, now: SimTime) -> Step {
        while let Some(r) = self
            .conn
            .recv_response()
            .expect("well-formed response stream")
        {
            let (sent, op) = self
                .inflight
                .remove(&r.req_id)
                .expect("response matches an outstanding request");
            // Get/Put answers carry the virtual completion time of the
            // media work (the engine future-dates tickets), so latency
            // is measured to that instant — the user-felt residency —
            // not to when the engine resolved the ticket and woke the
            // worker.
            let done = match r.result {
                Ok(v) if op == 1 || op == 2 => v.max(now),
                _ => now,
            };
            w.lat.push((self.tenant, op, done - sent));
            w.completed += 1;
            if r.result.is_err() {
                w.errors += 1;
            }
            if self.open_interval.is_none() {
                self.next_send = now + self.think;
            }
        }
        if let Some(iv) = self.open_interval {
            // Open loop: the send schedule ignores completions.
            if self.idx < self.objs.len() {
                if now >= self.next_send {
                    self.send(w, now);
                    self.next_send = now + iv;
                }
                return Step::Yield(self.next_send);
            }
            return if self.inflight.is_empty() {
                Step::Done
            } else {
                Step::Park
            };
        }
        // Closed loop: one outstanding request, think time between.
        if !self.inflight.is_empty() {
            return Step::Park;
        }
        if self.idx >= self.objs.len() {
            return Step::Done;
        }
        if now < self.next_send {
            return Step::Yield(self.next_send);
        }
        self.send(w, now);
        Step::Park
    }

    fn name(&self) -> &str {
        "fleet-client"
    }
}

struct InFlightGet {
    conn: u32,
    req_id: u64,
    ticket: Ticket,
}

enum PutStage {
    /// Waiting for a free cache line to stage into.
    NeedLine,
    /// Staged and sealed at `at`; waiting for request-queue space.
    Sealed {
        seg: hl_lfs::types::SegNo,
        shard: usize,
        at: SimTime,
    },
    /// Copy-out queued; waiting for the drive.
    CopyOut { ticket: Ticket },
}

struct InFlightPut {
    conn: u32,
    req_id: u64,
    tenant: TenantId,
    obj: u64,
    stage: PutStage,
}

/// One pool worker: decodes frames off ready connections, drives the
/// engine, and parks on its tickets until they resolve.
struct WorkerActor {
    idx: usize,
    gets: Vec<InFlightGet>,
    puts: Vec<InFlightPut>,
}

impl WorkerActor {
    fn handle(&mut self, w: &mut FleetWorld, now: SimTime, conn: u32, f: RequestFrame) {
        match f.req {
            Req::Get { obj } => {
                if obj >= w.engine.objects() {
                    w.respond(
                        now,
                        conn,
                        ResponseFrame {
                            req_id: f.req_id,
                            result: Err(ERR_BAD_OBJ),
                        },
                    );
                    return;
                }
                let (si, seg) = w.engine.locate(obj);
                let ticket = w.engine.shards[si]
                    .tio
                    .session(f.tenant)
                    .enqueue_demand(now, seg);
                self.gets.push(InFlightGet {
                    conn,
                    req_id: f.req_id,
                    ticket,
                });
            }
            Req::Scan { start, count } => {
                let mut queued = 0u64;
                for obj in start..start.saturating_add(count as u64) {
                    if obj >= w.engine.objects() {
                        break;
                    }
                    let (si, seg) = w.engine.locate(obj);
                    let t = w.engine.shards[si]
                        .tio
                        .session(f.tenant)
                        .enqueue_prefetch(now, seg);
                    w.prefetch_tickets.push(t);
                    queued += 1;
                }
                // Prefetch is fire-and-forget: acknowledge the enqueue,
                // not the media work.
                w.respond(
                    now,
                    conn,
                    ResponseFrame {
                        req_id: f.req_id,
                        result: Ok(queued),
                    },
                );
            }
            Req::Stat => {
                let served: u64 = w.engine.shards.iter().map(|s| s.tio.demand_fetches()).sum();
                w.respond(
                    now,
                    conn,
                    ResponseFrame {
                        req_id: f.req_id,
                        result: Ok(served),
                    },
                );
            }
            Req::Put { obj } => {
                if obj >= w.engine.objects() {
                    w.respond(
                        now,
                        conn,
                        ResponseFrame {
                            req_id: f.req_id,
                            result: Err(ERR_BAD_OBJ),
                        },
                    );
                    return;
                }
                self.puts.push(InFlightPut {
                    conn,
                    req_id: f.req_id,
                    tenant: f.tenant,
                    obj,
                    stage: PutStage::NeedLine,
                });
            }
        }
    }

    /// Answers every get whose ticket resolved; the rest stay in flight,
    /// in order, with worker `me` registered on each ticket.
    fn answer_gets(&mut self, w: &mut FleetWorld, now: SimTime, me: ActorId) {
        self.gets.retain(|g| {
            if g.ticket.wait(me) {
                return true;
            }
            let result = match g.ticket.fetch_result() {
                Ok((_, ready)) => Ok(ready),
                Err(_) => Err(ERR_FETCH),
            };
            w.respond(
                now,
                g.conn,
                ResponseFrame {
                    req_id: g.req_id,
                    result,
                },
            );
            false
        });
    }

    /// Advances every in-flight put as far as it can go; answered puts
    /// leave the list, the rest stay in order. A put in copy-out has
    /// worker `me` registered on its ticket. `true` if a put waits for
    /// space and the worker must retry.
    fn advance_puts(&mut self, w: &mut FleetWorld, now: SimTime, me: ActorId) -> bool {
        let mut retry = false;
        self.puts.retain_mut(|p| {
            if let PutStage::NeedLine = p.stage {
                let (si, seg) = w.engine.locate(p.obj);
                let shard = &w.engine.shards[si];
                let allocated =
                    shard
                        .tio
                        .cache()
                        .borrow_mut()
                        .allocate(seg, LineState::Staging, now);
                if let Some((disk_seg, _)) = allocated {
                    let image = seg_image(w.seed ^ 0x9157_0000 ^ si as u64, seg);
                    let wslot = shard
                        .tio
                        .disks_handle()
                        .write(now, shard.map.seg_base(disk_seg) as u64, &image)
                        .expect("staging write");
                    shard
                        .tio
                        .cache()
                        .borrow_mut()
                        .set_state(seg, LineState::DirtyWait);
                    p.stage = PutStage::Sealed {
                        seg,
                        shard: si,
                        at: wslot.end,
                    };
                }
            }
            if let PutStage::Sealed { seg, shard, at } = p.stage {
                if now >= at {
                    if let Some(ticket) = w.engine.shards[shard]
                        .tio
                        .session(p.tenant)
                        .try_enqueue_copy_out(now.max(at), seg)
                    {
                        p.stage = PutStage::CopyOut { ticket };
                    }
                }
            }
            let PutStage::CopyOut { ticket } = &p.stage else {
                retry = true;
                return true;
            };
            if ticket.wait(me) {
                return true;
            }
            let result = match ticket.copyout_result() {
                Ok(done_at) => Ok(done_at),
                Err(_) => Err(ERR_COPYOUT),
            };
            w.respond(
                now,
                p.conn,
                ResponseFrame {
                    req_id: p.req_id,
                    result,
                },
            );
            false
        });
        retry
    }
}

impl Actor<FleetWorld> for WorkerActor {
    fn step(&mut self, w: &mut FleetWorld, now: SimTime) -> Step {
        while let Some(cid) = w.pool.next_for(self.idx) {
            let conn = w.conns[cid as usize].clone();
            while let Some(f) = conn.recv_request().expect("well-formed request stream") {
                self.handle(w, now, cid, f);
            }
        }
        let me = w.worker_ids[self.idx];
        self.answer_gets(w, now, me);
        if self.advance_puts(w, now, me) {
            Step::Yield(now + RETRY)
        } else {
            Step::Park
        }
    }

    fn name(&self) -> &str {
        "fleet-worker"
    }
}

fn summarize(mut lats: Vec<u64>) -> TenantLat {
    lats.sort_unstable();
    TenantLat {
        count: lats.len() as u64,
        p50: percentile(&lats, 50),
        p95: percentile(&lats, 95),
        p99: percentile(&lats, 99),
    }
}

/// Builds the fleet `cfg` describes and runs it to quiescence: the world
/// it leaves behind, the simulated time it ended and the scheduler steps
/// it took.
fn simulate(cfg: &FleetConfig) -> (FleetWorld, SimTime, u64) {
    let mut sched: Scheduler<FleetWorld> = Scheduler::new();
    let engine =
        ShardedEngine::build_with_eject(cfg.seed, cfg.shards, cfg.spec, &mut sched, cfg.eject);
    let objects = engine.objects();
    for &(tenant, weight) in &cfg.weights {
        for s in &engine.shards {
            s.tio.set_tenant_weight(tenant, weight);
        }
    }

    // Stable tenant ids and arrival schedule from the workload
    // generator — the same mix that drives the thrash scenario.
    let mix = TenantMix::new(
        cfg.seed,
        cfg.tenants,
        0,
        1,
        cfg.spec.volumes,
        cfg.spec.segments_per_volume,
        cfg.think,
    );
    // One Zipfian stream per tenant (not per client): tenant `t`'s
    // clients share a draw sequence, so the same tenant issues the
    // same requests whether or not other tenants are configured — the
    // property the solo-vs-storm fairness comparison rests on.
    let mut stores: Vec<ZipfStore> = (0..cfg.tenants)
        .map(|t| {
            ZipfStore::new(
                cfg.seed ^ (t as u64).wrapping_mul(0xa076_1d64_78bd_642f),
                objects as u32,
                cfg.zipf_exponent,
            )
        })
        .collect();

    let mut conns = Vec::new();
    let mut client_ids = Vec::new();
    let workers = match cfg.pool {
        PoolKind::Naive => cfg.clients as usize,
        _ => cfg.workers,
    };
    let worker_ids: Vec<ActorId> = (0..workers)
        .map(|idx| {
            sched.spawn_parked(WorkerActor {
                idx,
                gets: Vec::new(),
                puts: Vec::new(),
            })
        })
        .collect();
    for c in 0..cfg.clients {
        let tenant = &mix.tenants[c as usize % mix.tenants.len()];
        let store = &mut stores[c as usize % mix.tenants.len()];
        let objs: Vec<u64> = (0..cfg.requests_per_client)
            .map(|_| store.next_object() as u64)
            .collect();
        let conn = Connection::new(c);
        conns.push(conn.clone());
        let scan_width = cfg.storm.filter(|s| s.tenant == tenant.id).map(|s| s.width);
        client_ids.push(sched.spawn_at(
            tenant.arrival as SimTime,
            ClientActor {
                conn,
                tenant: tenant.id,
                objs,
                idx: 0,
                scan_width,
                think: cfg.think,
                open_interval: cfg.open_loop,
                inflight: BTreeMap::new(),
                next_send: 0,
            },
        ));
    }

    let waker = sched.waker();
    let mut world = FleetWorld {
        engine,
        conns,
        pool: PoolState::new(cfg.pool, workers),
        waker,
        worker_ids,
        client_ids,
        seed: cfg.seed,
        lat: Vec::new(),
        completed: 0,
        errors: 0,
        prefetch_tickets: Vec::new(),
    };
    let end_time = sched.run(&mut world);
    (world, end_time, sched.steps())
}

/// Runs one fleet experiment to quiescence and reports what happened.
pub fn run_fleet(cfg: &FleetConfig) -> FleetReport {
    let (world, end_time, steps) = simulate(cfg);
    let lost_tickets = world
        .prefetch_tickets
        .iter()
        .filter(|t| !t.is_done())
        .count() as u64;
    let mut all: Vec<u64> = world.lat.iter().map(|&(_, _, l)| l).collect();
    all.sort_unstable();
    let mut per_tenant: BTreeMap<TenantId, TenantLat> = BTreeMap::new();
    for t in 0..cfg.tenants {
        let gets: Vec<u64> = world
            .lat
            .iter()
            .filter(|&&(tid, op, _)| tid == t && op == 1)
            .map(|&(_, _, l)| l)
            .collect();
        per_tenant.insert(t, summarize(gets));
    }
    let (mut admits, mut throttles, mut demand, mut coalesced) = (0u64, 0u64, 0u64, 0u64);
    for s in &world.engine.shards {
        let st = s.tio.stats();
        admits += st.tenant_admits;
        throttles += st.tenant_throttles;
        demand += st.demand_fetches;
        coalesced += st.coalesced_fetches;
    }
    FleetReport {
        pool: cfg.pool.label(),
        clients: cfg.clients,
        completed: world.completed,
        errors: world.errors,
        lost_tickets,
        steals: world.pool.steals,
        digest: world.engine.combined_digest(),
        findings: world.engine.total_findings(),
        p50: percentile(&all, 50),
        p95: percentile(&all, 95),
        p99: percentile(&all, 99),
        per_tenant,
        tenant_admits: admits,
        tenant_throttles: throttles,
        demand_fetches: demand,
        coalesced_fetches: coalesced,
        end_time,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_fleet_completes_every_request() {
        for pool in [
            PoolKind::Naive,
            PoolKind::SharedQueue,
            PoolKind::WorkStealing,
        ] {
            let cfg = FleetConfig::small(11, pool);
            let r = run_fleet(&cfg);
            assert_eq!(
                r.completed,
                (cfg.clients * cfg.requests_per_client) as u64,
                "{}",
                pool.label()
            );
            assert_eq!(r.errors, 0, "{}", pool.label());
            assert_eq!(r.lost_tickets, 0, "{}", pool.label());
            assert_eq!(r.findings, 0, "{}", pool.label());
            assert!(r.p50 <= r.p95 && r.p95 <= r.p99, "{}", pool.label());
        }
    }

    #[test]
    fn fleet_runs_are_byte_stable() {
        for pool in [PoolKind::SharedQueue, PoolKind::WorkStealing] {
            let a = run_fleet(&FleetConfig::small(7, pool));
            let b = run_fleet(&FleetConfig::small(7, pool));
            assert_eq!(a.digest, b.digest, "{}", pool.label());
            assert_eq!(a.end_time, b.end_time, "{}", pool.label());
            assert_eq!(a.p99, b.p99, "{}", pool.label());
        }
    }

    #[test]
    fn concurrent_gets_of_one_cold_object_coalesce_to_one_media_read() {
        // Every client asks for the same object at the same instant.
        let mut cfg = FleetConfig::small(3, PoolKind::SharedQueue);
        cfg.clients = 8;
        cfg.requests_per_client = 1;
        cfg.tenants = 1; // one tenant ⇒ every client arrives at t = 0
        cfg.think = 0;
        let r = run_fleet(&FleetConfig {
            zipf_exponent: 50.0, // degenerate: everyone draws the hottest object
            ..cfg
        });
        assert_eq!(r.completed, 8);
        assert_eq!(r.errors, 0);
        assert_eq!(
            r.demand_fetches, 1,
            "one media read, {} coalesced",
            r.coalesced_fetches
        );
        // Later arrivals either join the in-flight fetch (coalesced) or
        // hit the just-filled line (resident); none reaches the media.
        assert!(r.coalesced_fetches >= 1);
    }

    #[test]
    fn put_round_trips_through_stage_seal_and_copy_out() {
        use std::cell::RefCell;
        use std::rc::Rc;

        let mut sched: Scheduler<FleetWorld> = Scheduler::new();
        let spec = ShardSpec {
            volumes: 4,
            segments_per_volume: 8,
            cache_lines: 8,
            drives: 2,
        };
        let engine = ShardedEngine::build(6, 1, spec, &mut sched);
        let conn = Connection::new(0);
        let wid = sched.spawn_parked(WorkerActor {
            idx: 0,
            gets: Vec::new(),
            puts: Vec::new(),
        });
        // A hand-rolled client that speaks Put (ClientActor only
        // issues Get/Scan) and publishes the response out of the sim.
        struct PutDriver {
            conn: Connection,
            sent: bool,
            got: Rc<RefCell<Option<Result<u64, u32>>>>,
        }
        impl Actor<FleetWorld> for PutDriver {
            fn step(&mut self, w: &mut FleetWorld, now: SimTime) -> Step {
                if !self.sent {
                    self.conn.send_request(&RequestFrame {
                        tenant: 4,
                        req_id: 77,
                        req: Req::Put { obj: 2 },
                    });
                    w.submit(0, now);
                    self.sent = true;
                    return Step::Park;
                }
                match self.conn.recv_response().unwrap() {
                    Some(r) => {
                        assert_eq!(r.req_id, 77);
                        *self.got.borrow_mut() = Some(r.result);
                        Step::Done
                    }
                    None => Step::Park,
                }
            }
        }
        let got = Rc::new(RefCell::new(None));
        let did = sched.spawn_at(
            0,
            PutDriver {
                conn: conn.clone(),
                sent: false,
                got: got.clone(),
            },
        );
        let waker = sched.waker();
        let mut world = FleetWorld {
            engine,
            conns: vec![conn],
            pool: PoolState::new(PoolKind::Naive, 1),
            waker,
            worker_ids: vec![wid],
            client_ids: vec![did],
            seed: 6,
            lat: Vec::new(),
            completed: 0,
            errors: 0,
            prefetch_tickets: Vec::new(),
        };
        sched.run(&mut world);
        let done_at = got.borrow().expect("put answered").expect("put succeeded");
        assert!(done_at > 0, "copy-out finished at a positive time");
        assert_eq!(world.engine.total_findings(), 0);
    }

    /// The `fleet_resident` benchmark geometry at 12 000 requests, past
    /// the ~10 000 at which one shard's 65 536-event ring overflowed
    /// while the fleet's scheduler also traced every actor's parks and
    /// wakes into it. Every shard's trace is whole and clean.
    #[test]
    fn a_fleet_past_the_old_ring_bound_keeps_a_whole_clean_trace() {
        let cfg = FleetConfig {
            clients: 100,
            requests_per_client: 120,
            tenants: 8,
            workers: 8,
            shards: 4,
            spec: ShardSpec {
                volumes: 2,
                segments_per_volume: 16,
                cache_lines: 64,
                drives: 2,
            },
            think: 20 * MS,
            ..FleetConfig::small(1, PoolKind::SharedQueue)
        };
        let (world, _, _) = simulate(&cfg);
        assert_eq!(world.completed, 12_000);
        for (i, s) in world.engine.shards.iter().enumerate() {
            assert_eq!(s.tio.tracer().dropped(), 0, "shard {i}");
            assert_eq!(s.tio.trace_findings(), Vec::new(), "shard {i}");
        }
    }

    #[test]
    fn scan_storms_are_throttled_but_never_starved() {
        let mut cfg = FleetConfig::small(13, PoolKind::SharedQueue);
        cfg.storm = Some(StormConfig {
            tenant: 0,
            width: 6,
        });
        cfg.requests_per_client = 2;
        let r = run_fleet(&cfg);
        assert_eq!(r.lost_tickets, 0, "every prefetch ticket resolved");
        assert_eq!(r.findings, 0);
        assert!(r.tenant_admits > 0, "tagged work was admitted");
        assert_eq!(r.completed, (cfg.clients * cfg.requests_per_client) as u64);
    }
}
