//! Simulated client fleets multiplexed onto the sharded engine.
//!
//! Thousands of protocol-speaking clients, a worker pool, and the
//! engine shards all run as actors on one deterministic virtual-time
//! scheduler. A client encodes a request frame onto its connection,
//! marks the connection ready in the pool, which wakes one idle worker,
//! and parks; the worker decodes the frame, drives the engine (tagging
//! every fetch with the client's tenant so the fair queue sees it),
//! parks on the engine's tickets, and wakes the client when the response
//! frame is on the wire. Nothing polls and nothing rescans: a worker
//! registers each open request on its ticket under a token, and the
//! engine posts that token to the worker's inbox and wakes it at the
//! instant it resolves the ticket, so the woken worker answers exactly
//! the requests that resolved. A put stages through the engine's one
//! staging call; one that finds no line or request-queue slot waits in
//! arrival order while the worker parks on its shard's space signal,
//! which the engine posts wherever space may have freed. Latency is
//! measured where the paper's users would feel it: from frame sent to
//! the media work done, in virtual time.
//!
//! Closed-loop clients keep one request outstanding (think time
//! between); open-loop clients fire on a fixed schedule regardless of
//! completions, which is what actually exposes queue buildup. A
//! "storm" tenant can be configured to issue `Scan` (prefetch) bursts
//! instead of `Get`s — the vehicle for the fairness experiments.

use std::collections::BTreeMap;

use highlight::requests::{Inbox, Ticket};
use highlight::rig::seg_image;
use highlight::segcache::EjectPolicy;
use highlight::TenantId;
use hl_sim::stats::percentiles;
use hl_sim::time::MS;
use hl_sim::{Actor, ActorId, Scheduler, SimTime, Step, Waker};
use hl_workload::{TenantMix, ZipfStore};

use crate::connection::Connection;
use crate::pool::{PoolKind, PoolState};
use crate::proto::{Req, RequestFrame, ResponseFrame, OP_GET, OP_PUT};
use crate::shard::{ShardSpec, ShardedEngine};

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
    /// Worker-pool dispatch discipline (it has one value; `benchmark/src`
    /// sets the field).
    pub pool: PoolKind,
    /// Pool width.
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
    /// A debug-build-sized fleet: small geometry, more clients than
    /// workers.
    pub fn small(seed: u64) -> FleetConfig {
        FleetConfig {
            seed,
            clients: 24,
            requests_per_client: 3,
            tenants: 4,
            pool: PoolKind::SharedQueue,
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
    /// Clients simulated.
    pub clients: u32,
    /// Responses delivered.
    pub completed: u64,
    /// Responses carrying an error status.
    pub errors: u64,
    /// Engine tickets never resolved (must be zero).
    pub lost_tickets: u64,
    /// Connections stolen between workers: always 0, since the one pool
    /// shares its queue. `benchmark/src` reads it.
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
    /// Marks `conn` ready and wakes one idle worker, the idle list's
    /// head. With no worker idle it wakes no one: each worker has then
    /// been handed out and woken but has not stepped yet, and drains the
    /// queue before it next parks.
    fn submit(&mut self, conn: u32, now: SimTime) {
        self.pool.submit(conn);
        if let Some(idle) = self.pool.idle_worker() {
            self.waker.wake(self.worker_ids[idle], now);
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
    /// The objects to request, in order, as the generator draws them
    /// (the frame widens each to its `u64` field).
    objs: Vec<u32>,
    idx: usize,
    /// `Some(width)`: this client scans (prefetch storm) instead of
    /// getting.
    scan_width: Option<u32>,
    think: SimTime,
    open_interval: Option<SimTime>,
    /// `(req_id, sent at, opcode)` of each outstanding request: at most
    /// one for a closed-loop client.
    inflight: Vec<(u64, SimTime, u8)>,
    next_send: SimTime,
}

impl ClientActor {
    fn send(&mut self, w: &mut FleetWorld, now: SimTime) {
        let obj = u64::from(self.objs[self.idx]);
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
        self.inflight.push((req_id, now, req.opcode()));
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
            let at = self
                .inflight
                .iter()
                .position(|&(id, ..)| id == r.req_id)
                .expect("response matches an outstanding request");
            let (_, sent, op) = self.inflight.swap_remove(at);
            // Get/Put answers carry the virtual completion time of the
            // media work (the engine future-dates tickets), so latency
            // is measured to that instant — the user-felt residency —
            // not to when the engine resolved the ticket and woke the
            // worker.
            let done = match r.result {
                Ok(v) if op == OP_GET || op == OP_PUT => v.max(now),
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

/// A request whose answer waits on one engine ticket: a get's fetch, or
/// a put's copy-out.
struct Open {
    conn: u32,
    req_id: u64,
    ticket: Ticket,
    put: bool,
}

impl Open {
    /// Answers the request from its resolved ticket.
    fn answer(self, w: &mut FleetWorld, now: SimTime) {
        let result = if self.put {
            self.ticket.copyout_result().map_err(|_| ERR_COPYOUT)
        } else {
            match self.ticket.fetch_result() {
                Ok((_, ready)) => Ok(ready),
                Err(_) => Err(ERR_FETCH),
            }
        };
        w.respond(
            now,
            self.conn,
            ResponseFrame {
                req_id: self.req_id,
                result,
            },
        );
    }
}

/// A put that has not yet found space on its shard: a request-queue
/// slot and a line to stage `image` into.
struct WaitingPut {
    conn: u32,
    req_id: u64,
    tenant: TenantId,
    shard: usize,
    seg: hl_lfs::types::SegNo,
    image: Vec<u8>,
}

/// One pool worker: decodes frames off ready connections, drives the
/// engine, and parks on its tickets until they resolve. Each open request
/// sits in a slab slot whose index is the token its ticket posts to the
/// worker's inbox on resolving, so a woken worker answers exactly what
/// resolved and never looks at the rest. A put that finds no space waits
/// in arrival order, and the worker parks on its shard's space signal.
struct WorkerActor {
    idx: usize,
    /// Open requests, indexed by token; `None` is a free slot.
    open: Vec<Option<Open>>,
    /// Free slots of `open`.
    free: Vec<usize>,
    inbox: Inbox,
    /// Puts still waiting for space, in arrival order.
    puts: Vec<WaitingPut>,
}

impl WorkerActor {
    fn new(idx: usize) -> WorkerActor {
        WorkerActor {
            idx,
            open: Vec::new(),
            free: Vec::new(),
            inbox: Inbox::new(),
            puts: Vec::new(),
        }
    }

    /// Registers `op` on its ticket under a free slot's token, or answers
    /// it at once if the ticket has already resolved.
    fn await_ticket(&mut self, w: &mut FleetWorld, now: SimTime, op: Open) {
        let slot = self.free.last().copied().unwrap_or(self.open.len());
        let me = w.worker_ids[self.idx];
        if !op.ticket.wait(me, &self.inbox, slot as u64) {
            op.answer(w, now);
        } else if self.free.pop().is_some() {
            self.open[slot] = Some(op);
        } else {
            self.open.push(Some(op));
        }
    }

    /// Answers every request whose token the engine has posted.
    fn answer_resolved(&mut self, w: &mut FleetWorld, now: SimTime) {
        while let Some(token) = self.inbox.pop() {
            let slot = token as usize;
            let op = self.open[slot]
                .take()
                .expect("a posted token names an open request");
            self.free.push(slot);
            op.answer(w, now);
        }
    }

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
                self.await_ticket(
                    w,
                    now,
                    Open {
                        conn,
                        req_id: f.req_id,
                        ticket,
                        put: false,
                    },
                );
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
                let (shard, seg) = w.engine.locate(obj);
                self.puts.push(WaitingPut {
                    conn,
                    req_id: f.req_id,
                    tenant: f.tenant,
                    shard,
                    seg,
                    image: seg_image(w.seed ^ 0x9157_0000 ^ shard as u64, seg),
                });
            }
        }
    }

    /// Stages every waiting put that now finds space on its shard, in
    /// arrival order; each staged put waits on its copy-out ticket like a
    /// get. A put that finds none stays, and the worker subscribes to
    /// that shard's space signal.
    fn stage_puts(&mut self, w: &mut FleetWorld, now: SimTime) {
        let me = w.worker_ids[self.idx];
        let mut i = 0;
        while i < self.puts.len() {
            let p = &self.puts[i];
            let tio = &w.engine.shards[p.shard].tio;
            let Some(ticket) = tio.session(p.tenant).stage_copy_out(now, p.seg, &p.image) else {
                tio.subscribe_space(me);
                i += 1;
                continue;
            };
            let p = self.puts.remove(i);
            self.await_ticket(
                w,
                now,
                Open {
                    conn: p.conn,
                    req_id: p.req_id,
                    ticket,
                    put: true,
                },
            );
        }
    }
}

impl Actor<FleetWorld> for WorkerActor {
    fn step(&mut self, w: &mut FleetWorld, now: SimTime) -> Step {
        w.pool.stepping(self.idx);
        while let Some(cid) = w.pool.next_for(self.idx) {
            let conn = w.conns[cid as usize].clone();
            while let Some(f) = conn.recv_request().expect("well-formed request stream") {
                self.handle(w, now, cid, f);
            }
        }
        self.answer_resolved(w, now);
        self.stage_puts(w, now);
        w.pool.parked(self.idx);
        Step::Park
    }

    fn name(&self) -> &str {
        "fleet-worker"
    }
}

fn summarize(mut lats: Vec<u64>) -> TenantLat {
    let [p50, p95, p99] = percentiles(&mut lats, [50, 95, 99]);
    TenantLat {
        count: lats.len() as u64,
        p50,
        p95,
        p99,
    }
}

/// Builds the fleet `cfg` describes and runs it to quiescence: the world
/// it leaves behind, the simulated time it ended and the scheduler steps
/// it took.
fn simulate(cfg: &FleetConfig) -> (FleetWorld, SimTime, u64) {
    // Every request, closed-loop or open-loop, completes once. Reserving
    // the log first is a heap-placement workaround, not an invariant: it
    // saves no work and no test pins it. With glibc, the log (the run's
    // largest buffer) then reuses the region the previous run's log
    // freed, where client scripts made first would split that region and
    // grow the heap by the log's size (`fleet_resident` peak RSS 13.3 MB
    // against 11.5 MB with it).
    let lat = Vec::with_capacity(cfg.clients as usize * cfg.requests_per_client as usize);
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
    let worker_ids: Vec<ActorId> = (0..cfg.workers)
        .map(|idx| sched.spawn_parked(WorkerActor::new(idx)))
        .collect();
    for c in 0..cfg.clients {
        let tenant = &mix.tenants[c as usize % mix.tenants.len()];
        let store = &mut stores[c as usize % mix.tenants.len()];
        let objs: Vec<u32> = (0..cfg.requests_per_client)
            .map(|_| store.next_object())
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
                inflight: Vec::new(),
                next_send: 0,
            },
        ));
    }

    let waker = sched.waker();
    let mut world = FleetWorld {
        engine,
        conns,
        pool: PoolState::new(cfg.pool, cfg.workers),
        waker,
        worker_ids,
        client_ids,
        seed: cfg.seed,
        lat,
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
    let [p50, p95, p99] = percentiles(&mut all, [50, 95, 99]);
    let mut per_tenant: BTreeMap<TenantId, TenantLat> = BTreeMap::new();
    for t in 0..cfg.tenants {
        let gets: Vec<u64> = world
            .lat
            .iter()
            .filter(|&&(tid, op, _)| tid == t && op == OP_GET)
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
        clients: cfg.clients,
        completed: world.completed,
        errors: world.errors,
        lost_tickets,
        steals: 0,
        digest: world.engine.combined_digest(),
        findings: world.engine.total_findings(),
        p50,
        p95,
        p99,
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
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;

    #[test]
    fn closed_loop_fleet_completes_every_request() {
        let cfg = FleetConfig::small(11);
        let r = run_fleet(&cfg);
        assert_eq!(r.completed, (cfg.clients * cfg.requests_per_client) as u64);
        assert_eq!(r.errors, 0);
        assert_eq!(r.lost_tickets, 0);
        assert_eq!(r.findings, 0);
        assert!(r.p50 <= r.p95 && r.p95 <= r.p99);
    }

    #[test]
    fn fleet_runs_are_byte_stable() {
        let a = run_fleet(&FleetConfig::small(7));
        let b = run_fleet(&FleetConfig::small(7));
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.p99, b.p99);
    }

    /// Pins the small fleet, plain and under a prefetch storm: trace
    /// digest, end time, p99 and scheduler steps as literals. Seen red,
    /// each sabotage alone: a submission waking the whole pool instead
    /// of one idle worker (steps 439 → 655 plain, 545 → 761 storm); a
    /// coalescing join waking the service process when it re-keys
    /// nothing (439 → 447, 545 → 566); no wake for a join that re-keys a
    /// queued prefetch (the storm digest moves, 545 → 537 steps); storm
    /// prefetches tagged with the next tenant's session (storm digest
    /// and end time move). Not caught: `pop_back` in place of
    /// `pop_front`, because no worker of this fleet ever finds more than
    /// one ready connection queued; handing out the highest-index idle
    /// worker, or leaving a handed-out worker on the idle list, because
    /// every worker is parked whenever a client of this fleet submits and
    /// the woken one steps next.
    #[test]
    fn small_fleets_match_their_pinned_digests() {
        let plain = run_fleet(&FleetConfig::small(7));
        let mut cfg = FleetConfig::small(7);
        cfg.storm = Some(StormConfig {
            tenant: 0,
            width: 6,
        });
        let storm = run_fleet(&cfg);
        let pin = |r: &FleetReport| (r.digest, r.end_time, r.p99, r.steps);
        assert_eq!(
            pin(&plain),
            (0x313f_c22b_04a3_00df, 95_285_688, 61_171_534, 439)
        );
        assert_eq!(
            pin(&storm),
            (0x399d_7e88_921f_82b0, 158_264_472, 74_660_169, 545)
        );
    }

    /// The two fleet geometries of the end-to-end benchmark, scaled
    /// down: `fleet_cold`'s shard geometry and tenant-7 width-8 prefetch
    /// storm at 200 clients × 4 requests, and `fleet_resident`'s at
    /// 100 clients × 20 requests. Pins what a client or the jukebox can
    /// see — trace digest, end time, p50, p99, media reads and coalesced
    /// fetches — as literals. Scheduler steps are host work: the cold
    /// fleet's are pinned exactly, and the resident fleet gets a ceiling
    /// of 3.5 per request (3.32). Seen red, each sabotage alone: a worker answering
    /// only the first resolved get of each step, the rest waiting for its
    /// next wake (the cold fleet's digest, end time, p50, p99 and media
    /// reads move); a submission waking the whole pool (10.45 steps per
    /// resident request; cold steps 4 251 → 9 851); a coalescing join
    /// waking the service process when it re-keys nothing (cold steps
    /// 4 251 → 4 639).
    #[test]
    fn bench_geometries_keep_their_simulated_figures() {
        let cold = FleetConfig {
            clients: 200,
            requests_per_client: 4,
            tenants: 8,
            workers: 8,
            shards: 4,
            spec: ShardSpec {
                volumes: 4,
                segments_per_volume: 16,
                cache_lines: 16,
                drives: 2,
            },
            think: 200 * MS,
            storm: Some(StormConfig {
                tenant: 7,
                width: 8,
            }),
            ..FleetConfig::small(42)
        };
        let resident = FleetConfig {
            clients: 100,
            requests_per_client: 20,
            spec: ShardSpec {
                volumes: 2,
                segments_per_volume: 16,
                cache_lines: 64,
                drives: 2,
            },
            think: 20 * MS,
            storm: None,
            ..cold.clone()
        };
        let pin = |r: &FleetReport| {
            (
                r.digest,
                r.end_time,
                r.p50,
                r.p99,
                r.demand_fetches,
                r.coalesced_fetches,
            )
        };
        let (c, r) = (run_fleet(&cold), run_fleet(&resident));
        assert_eq!(
            pin(&c),
            (
                0x417d_473e_58a4_bd10,
                354_894_104,
                53_400_560,
                159_710_298,
                374,
                986
            )
        );
        assert_eq!(
            pin(&r),
            (0xd7db_cc45_edd9_556b, 64_839_799, 0, 41_725_185, 128, 272)
        );
        assert_eq!(c.steps, 4_251, "cold: scheduler steps");
        let steps_per_request = r.steps as f64 / r.completed as f64;
        assert!(
            steps_per_request <= 3.5,
            "resident: {steps_per_request:.2} steps per request"
        );
    }

    #[test]
    fn concurrent_gets_of_one_cold_object_coalesce_to_one_media_read() {
        // Every client asks for the same object at the same instant.
        let mut cfg = FleetConfig::small(3);
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

    /// A hand-rolled client that sends one request at the instant it is
    /// spawned for (`ClientActor` only issues Get/Scan) and publishes the
    /// answer out of the sim.
    struct OneShot {
        conn: Connection,
        req: Option<Req>,
        got: Rc<RefCell<Option<Result<u64, u32>>>>,
    }
    impl Actor<FleetWorld> for OneShot {
        fn step(&mut self, w: &mut FleetWorld, now: SimTime) -> Step {
            if let Some(req) = self.req.take() {
                self.conn.send_request(&RequestFrame {
                    tenant: 4,
                    req_id: 77,
                    req,
                });
                w.submit(self.conn.id, now);
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

    /// The one-worker rigs' shard geometry.
    const ONE_SHARD: ShardSpec = ShardSpec {
        volumes: 4,
        segments_per_volume: 8,
        cache_lines: 8,
        drives: 2,
    };

    /// Enqueues one untagged demand fetch per object, directly on shard
    /// 0 and at the instant it is spawned for, waiting on none of them:
    /// request-queue traffic that no worker holds a ticket for.
    struct Flood(Vec<u64>);
    impl Actor<FleetWorld> for Flood {
        fn step(&mut self, w: &mut FleetWorld, now: SimTime) -> Step {
            for &obj in &self.0 {
                let (_, seg) = w.engine.locate(obj);
                w.engine.shards[0].tio.enqueue_demand(now, seg);
            }
            Step::Done
        }
    }

    /// Runs one-shot clients, each `(send at, request)` on its own
    /// connection, against a one-shard engine of geometry `spec` served
    /// by a one-worker pool, after a [`Flood`] of `flood` at time 0.
    /// The clients are spawned before the worker, so clients submitting
    /// at one instant all step before it. Returns every answer and the
    /// quiesced world.
    fn one_worker_serves(
        spec: ShardSpec,
        flood: &[u64],
        requests: &[(SimTime, Req)],
    ) -> (Vec<Option<Result<u64, u32>>>, FleetWorld) {
        let mut sched: Scheduler<FleetWorld> = Scheduler::new();
        let engine = ShardedEngine::build(6, 1, spec, &mut sched);
        engine.shards[0].tio.tracer().retain_events();
        sched.spawn_at(0, Flood(flood.to_vec()));
        let (mut conns, mut client_ids, mut answers) = (Vec::new(), Vec::new(), Vec::new());
        for (c, &(at, req)) in requests.iter().enumerate() {
            let conn = Connection::new(c as u32);
            let got = Rc::new(RefCell::new(None));
            client_ids.push(sched.spawn_at(
                at,
                OneShot {
                    conn: conn.clone(),
                    req: Some(req),
                    got: got.clone(),
                },
            ));
            conns.push(conn);
            answers.push(got);
        }
        let wid = sched.spawn_parked(WorkerActor::new(0));
        let waker = sched.waker();
        let mut world = FleetWorld {
            engine,
            conns,
            pool: PoolState::new(PoolKind::SharedQueue, 1),
            waker,
            worker_ids: vec![wid],
            client_ids,
            seed: 6,
            lat: Vec::new(),
            completed: 0,
            errors: 0,
            prefetch_tickets: Vec::new(),
        };
        sched.run(&mut world);
        assert_eq!(world.engine.total_findings(), 0);
        let answers = answers.iter().map(|a| *a.borrow()).collect();
        (answers, world)
    }

    /// When shard 0's line for `obj` left `Empty` for `Staging`: the
    /// instant a put claimed it.
    fn staged_at(w: &FleetWorld, obj: u64) -> SimTime {
        let (_, seg) = w.engine.locate(obj);
        w.engine.shards[0]
            .tio
            .tracer()
            .events()
            .iter()
            .find_map(|e| match e.kind {
                hl_trace::EventKind::CacheState {
                    seg: s,
                    to: hl_trace::LineTag::Staging,
                    ..
                } if s == seg as u64 => Some(e.at),
                _ => None,
            })
            .expect("the put staged its line")
    }

    /// When shard 0's first media transfer ended.
    fn first_media_end(w: &FleetWorld) -> SimTime {
        w.engine.shards[0]
            .tio
            .tracer()
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                hl_trace::EventKind::DevIo {
                    lane: hl_trace::Lane::Drive(_),
                    end,
                    ..
                } => Some(end),
                _ => None,
            })
            .min()
            .expect("a media transfer")
    }

    #[test]
    fn put_round_trips_through_stage_seal_and_copy_out() {
        let (got, _) = one_worker_serves(ONE_SHARD, &[], &[(0, Req::Put { obj: 2 })]);
        let done_at = got[0].expect("put answered").expect("put succeeded");
        assert!(done_at > 0, "copy-out finished at a positive time");
    }

    /// Two clients submit at the same instant to a one-worker pool: the
    /// first hands the idle worker out and wakes it, and the second,
    /// stepping before the worker does, finds no idle worker and wakes
    /// no one. The woken worker drains the queue and answers both. Seen
    /// red: a submission that assumes some worker is idle
    /// (`idle_worker().expect(..)` panics here, and nowhere in the
    /// client fleets, whose workers are all parked whenever a client
    /// steps).
    #[test]
    fn a_submission_that_finds_no_idle_worker_is_still_served() {
        let (got, _) = one_worker_serves(
            ONE_SHARD,
            &[],
            &[(0, Req::Get { obj: 5 }), (0, Req::Get { obj: 6 })],
        );
        assert!(got[0].expect("first get answered").is_ok());
        assert!(got[1].expect("second get answered").is_ok());
    }

    /// A put that finds every line of its shard pinned by fills waits
    /// for one to end. A seven-wide scan at time 0 dispatches seven
    /// prefetches onto six lines, 2 ms apart: the first starts on a
    /// drive at once and turns its line `Clean`, and the seventh takes
    /// that line, so all six are `Filling` when the put arrives at
    /// 100 ms. The scan leaves nothing queued, and no one waits on a
    /// prefetch ticket, so only a lane completion can tell the worker
    /// that a line freed. Seen red: no space wake when a lane completes
    /// a fetch (the run quiesces with the put unanswered).
    #[test]
    fn a_put_behind_lines_pinned_by_fills_is_answered_once_a_fill_ends() {
        let spec = ShardSpec {
            cache_lines: 6,
            ..ONE_SHARD
        };
        let (got, w) = one_worker_serves(
            spec,
            &[],
            &[
                (0, Req::Scan { start: 0, count: 7 }),
                (100 * MS, Req::Put { obj: 20 }),
            ],
        );
        assert_eq!(got[0], Some(Ok(7)), "the scan queued seven prefetches");
        assert!(got[1].expect("put answered").is_ok());
        assert!(
            staged_at(&w, 20) >= first_media_end(&w),
            "the put found a free line before any fill ended"
        );
    }

    /// A put that finds the request queue full of 64 demands is staged
    /// once the service process takes one off, not when the first of
    /// them finishes on the media. The 65 demands come from outside the
    /// pool, so the worker holds no ticket that could wake it; the
    /// service process fields the first at time 0, before the put
    /// arrives, and the rest two milliseconds apart. Seen red: no space
    /// wake on the service-process pop (the put stages at the first
    /// media transfer's end).
    #[test]
    fn a_put_behind_a_full_request_queue_is_staged_once_the_service_process_pops() {
        let spec = ShardSpec {
            segments_per_volume: 32,
            cache_lines: 16,
            ..ONE_SHARD
        };
        let flood: Vec<u64> = (0..65).collect();
        let (got, w) = one_worker_serves(spec, &flood, &[(0, Req::Put { obj: 100 })]);
        assert!(got[0].expect("put answered").is_ok());
        assert!(
            staged_at(&w, 100) < first_media_end(&w),
            "the put waited for a fetch to finish"
        );
    }

    /// `fleet_cold`'s geometry (1000 clients, a prefetch storm, 4
    /// shards of 16 lines and 2 drives) at 100 000 requests: the busiest
    /// shard emits 82 964 events, more than the 65 536 a tracer once
    /// kept, past which tracecheck refused to judge a shard ("trace
    /// truncated"). The checker is fed as events arrive, so every
    /// shard's whole history checks clean.
    ///
    /// Seen red on this run, each planted alone in the engine: a
    /// fetch's `close_span` skipped before its `resolve` (spans left
    /// open); a `join` emitted after its parent's span closed (not a
    /// live parent op); a fill that never emits `filling>clean` (tracked
    /// state mismatches).
    #[test]
    fn a_fleet_past_the_old_ring_bound_checks_clean_as_it_streams() {
        let cfg = FleetConfig {
            clients: 1000,
            requests_per_client: 100,
            tenants: 8,
            workers: 8,
            shards: 4,
            spec: ShardSpec {
                volumes: 4,
                segments_per_volume: 16,
                cache_lines: 16,
                drives: 2,
            },
            think: 200 * MS,
            storm: Some(StormConfig {
                tenant: 7,
                width: 8,
            }),
            ..FleetConfig::small(1993)
        };
        let (world, _, _) = simulate(&cfg);
        assert_eq!(world.completed, 100_000);
        let busiest = world.engine.shards.iter().map(|s| s.tio.tracer().len());
        let busiest = busiest.max().unwrap();
        assert!(busiest > 65_536, "{busiest}");
        for (i, s) in world.engine.shards.iter().enumerate() {
            assert_eq!(s.tio.trace_findings(), Vec::new(), "shard {i}");
        }
    }

    #[test]
    fn scan_storms_are_throttled_but_never_starved() {
        let mut cfg = FleetConfig::small(13);
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
