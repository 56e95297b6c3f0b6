//! The adversarial scenario runner (DESIGN.md §6g).
//!
//! Each scenario replays a seeded `hl-workload` generator against the
//! *real* event-driven engine — `TertiaryIo`'s service-process and
//! I/O-server actors attached to the benchmark scheduler, exactly as the
//! §7.3 pipeline does — and comes back with the measurements the suite
//! gates on: demand queue residency, cache hit rate, coalesce/join
//! counts, media swaps, fault counters, an in-cache/on-media byte
//! oracle, the trace digest, and the `tracecheck` findings (which must
//! be empty).
//!
//! Three workload shapes, each an adversary for a different subsystem:
//!
//! - **Flash crowd** ([`ScenarioKind::FlashCrowd`]): a Zipfian object
//!   store whose scripted crowd lands a storm of simultaneous demand
//!   fetches on one *cold* object — the duplicate-fetch coalescing path
//!   must collapse the storm to a single media read;
//! - **Hierarchy scan** ([`ScenarioKind::HierarchyScan`]): a
//!   backup/restore stream through every tertiary segment with
//!   prefetch readahead — zero reuse, a swap per volume boundary, and a
//!   steady prefetch-then-demand coalesce pattern;
//! - **Tenant thrash** ([`ScenarioKind::TenantThrash`]): reader tenants
//!   whose combined working set outsizes the segment cache, against
//!   writer tenants staging copy-outs through the same line pool and
//!   drive pool.
//!
//! Any scenario composes with a [`FaultScript`] (the PR 1/6 fault
//! plans): a drive dying mid-flash-crowd, the robot jamming during the
//! scan. Every run is deterministic per seed — two runs produce
//! byte-identical trace digests — and `BENCH_scenarios.json` records a
//! machine-readable row per scenario.

use std::rc::Rc;

use highlight::requests::{Inbox, Ticket};
use highlight::rig::{seg_image, RigSpec, BLOCKS_PER_SEG};
use highlight::segcache::{CacheStats, LineState};
use highlight::{TertiaryIo, UniformMap};
use hl_footprint::Footprint;
use hl_lfs::config::AddressMap;
use hl_lfs::types::SegNo;
use hl_sim::stats::percentile;
use hl_sim::time::{secs, SimTime};
use hl_sim::{Actor, ActorId, Scheduler, Step};
use hl_vdev::{FaultConfig, FaultPlan, BLOCK_SIZE};
use hl_workload::{HierarchyScan, Tenant, TenantKind, TenantMix, ZipfStore};

use crate::report::Json;

/// A workload shape the runner can replay.
#[derive(Clone, Debug)]
pub enum ScenarioKind {
    /// Paced Zipfian object reads with an optional scripted crowd storm:
    /// at request index `crowd_at`, `crowd_clients` simultaneous demand
    /// fetches land on the store's coldest object.
    FlashCrowd {
        /// Objects in the store (≤ `volumes × segments_per_volume`).
        objects: u32,
        /// Zipf exponent.
        exponent: f64,
        /// Paced requests to issue.
        requests: u32,
        /// Gap between paced requests.
        gap: SimTime,
        /// Request index at which the crowd fires (`None` = no crowd).
        crowd_at: Option<u32>,
        /// Simultaneous demand fetches in the crowd storm.
        crowd_clients: u32,
    },
    /// A closed-loop streaming scan of the whole hierarchy with
    /// `readahead` prefetches riding ahead of the demand stream.
    HierarchyScan {
        /// Prefetch lookahead per step.
        readahead: u32,
    },
    /// Mixed reader/writer tenants with conflicting working sets.
    TenantThrash {
        /// Closed-loop reader tenants.
        readers: u32,
        /// Writer tenants (each owns one private top volume).
        writers: u32,
        /// Demand reads per reader.
        reads_per_tenant: u32,
        /// Copy-outs per writer.
        copyouts_per_writer: u32,
        /// Working-set size per reader (segments).
        working_set: u32,
        /// Reader think time between requests.
        think: SimTime,
    },
}

/// A drive/robot fault composed onto a scenario (PR 1/6 plans).
#[derive(Clone, Copy, Debug)]
pub enum FaultScript {
    /// Permanent drive death at `at`.
    DriveDeath {
        /// The victim drive.
        drive: u32,
        /// Death time.
        at: SimTime,
    },
    /// A drive hang window (watchdog + probe-ladder recovery).
    DriveHang {
        /// The victim drive.
        drive: u32,
        /// Hang start.
        at: SimTime,
        /// Hang duration.
        dur: SimTime,
    },
    /// A compounding drive slowdown from `at` on.
    DriveSlow {
        /// The victim drive.
        drive: u32,
        /// Transfer-time factor.
        factor: f64,
        /// Slowdown start.
        at: SimTime,
    },
    /// The robot arm jams for `dur` starting at `at`: swaps stall, no
    /// drive goes down.
    RobotJam {
        /// Jam start.
        at: SimTime,
        /// Jam duration.
        dur: SimTime,
    },
}

/// One scenario: geometry, seed, workload shape, optional fault.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Scenario name (the `BENCH_scenarios.json` key).
    pub name: &'static str,
    /// Deterministic seed (workload draws and fault plan).
    pub seed: u64,
    /// Tertiary volumes.
    pub volumes: u32,
    /// Segment slots per volume.
    pub segments_per_volume: u32,
    /// Jukebox drives (I/O-server lanes).
    pub drives: usize,
    /// Segment-cache lines.
    pub cache_lines: u32,
    /// The workload shape.
    pub kind: ScenarioKind,
    /// Optional composed fault.
    pub fault: Option<FaultScript>,
}

/// What one scenario run measured.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: &'static str,
    /// The seed the run used.
    pub seed: u64,
    /// Virtual time at engine quiescence.
    pub wall_clock: SimTime,
    /// Demand fetches issued (including crowd clients).
    pub demand_issued: u32,
    /// Prefetches issued (scan readahead).
    pub prefetch_issued: u32,
    /// Copy-outs issued (writer tenants).
    pub copyouts_issued: u32,
    /// Fetch tickets that resolved successfully.
    pub served_fetches: usize,
    /// Fetch tickets that resolved with an error (surfaced, not lost).
    pub failed_fetches: usize,
    /// Copy-out tickets that resolved with an error.
    pub failed_copyouts: usize,
    /// Segment-cache counters (hits include joins on filling lines).
    pub cache: CacheStats,
    /// Fetches coalesced onto an in-flight read
    /// (`SvcStats::coalesced_fetches`, itself the trace's join count).
    pub coalesced: u64,
    /// Demand queue residencies (enqueue → device start), ascending.
    pub demand_residency: Vec<SimTime>,
    /// Whole-segment media reads.
    pub media_reads: u64,
    /// Whole-segment media writes.
    pub media_writes: u64,
    /// Robot media swaps.
    pub media_swaps: u64,
    /// Drive-down events.
    pub drive_down: u64,
    /// Orphaned ops re-dispatched to surviving lanes.
    pub redispatched: u64,
    /// Watchdog deadline expiries.
    pub watchdog_fired: u64,
    /// Byte-oracle checks performed (resident clean lines + copied-out
    /// media segments).
    pub oracle_verified: usize,
    /// Oracle checks that found diverged bytes (must be zero).
    pub oracle_mismatches: usize,
    /// FNV digest of the run's event trace (same seed ⇒ same digest).
    pub trace_digest: u64,
    /// Tracecheck findings over the finished run (must be empty).
    pub trace_findings: Vec<hl_trace::Finding>,
}

impl ScenarioResult {
    /// Cache hit rate, percent (100 when the cache saw no lookups).
    pub fn hit_rate_pct(&self) -> f64 {
        let total = self.cache.hits + self.cache.misses;
        if total == 0 {
            return 100.0;
        }
        100.0 * self.cache.hits as f64 / total as f64
    }

    /// `p`-th percentile of the demand queue residencies, µs.
    pub fn demand_residency_pct(&self, p: usize) -> SimTime {
        percentile(&self.demand_residency, p)
    }

    /// The `BENCH_scenarios.json` row for this run.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seed", self.seed.into()),
            ("wall_clock_us", self.wall_clock.into()),
            (
                "requests",
                Json::obj([
                    ("demand", self.demand_issued.into()),
                    ("prefetch", self.prefetch_issued.into()),
                    ("copyout", self.copyouts_issued.into()),
                ]),
            ),
            ("served", self.served_fetches.into()),
            (
                "cache",
                Json::obj([
                    ("hits", self.cache.hits.into()),
                    ("misses", self.cache.misses.into()),
                    ("ejections", self.cache.ejections.into()),
                    ("hit_rate_pct", Json::Fixed(self.hit_rate_pct(), 2)),
                ]),
            ),
            ("coalesced", self.coalesced.into()),
            (
                "demand_residency_us",
                Json::obj([
                    ("p50", self.demand_residency_pct(50).into()),
                    ("p95", self.demand_residency_pct(95).into()),
                    ("n", self.demand_residency.len().into()),
                ]),
            ),
            (
                "media",
                Json::obj([
                    ("reads", self.media_reads.into()),
                    ("writes", self.media_writes.into()),
                    ("swaps", self.media_swaps.into()),
                ]),
            ),
            (
                "faults",
                Json::obj([
                    ("drive_down", self.drive_down.into()),
                    ("redispatched", self.redispatched.into()),
                    ("watchdog_fired", self.watchdog_fired.into()),
                    ("failed_fetches", self.failed_fetches.into()),
                    ("failed_copyouts", self.failed_copyouts.into()),
                ]),
            ),
            (
                "oracle",
                Json::obj([
                    ("verified", self.oracle_verified.into()),
                    ("mismatches", self.oracle_mismatches.into()),
                ]),
            ),
            ("tracecheck_findings", self.trace_findings.len().into()),
            ("trace_digest", Json::hex(self.trace_digest)),
        ])
    }
}

struct World {
    tio: Rc<TertiaryIo>,
    /// The ids of the actors that park on tickets, indexed by their `me`.
    waiters: Vec<ActorId>,
    map: UniformMap,
    spv: u32,
    seed: u64,
    fetch_tickets: Vec<(SegNo, Ticket)>,
    copyout_tickets: Vec<(SegNo, Ticket)>,
    demand_issued: u32,
    prefetch_issued: u32,
    copyouts_issued: u32,
}

impl World {
    fn seg_of_object(&self, obj: u32) -> SegNo {
        self.map.tert_seg(obj / self.spv, obj % self.spv)
    }

    fn demand(&mut self, now: SimTime, seg: SegNo) -> Ticket {
        let t = self.tio.enqueue_demand(now, seg);
        self.fetch_tickets.push((seg, t.clone()));
        self.demand_issued += 1;
        t
    }

    fn prefetch(&mut self, now: SimTime, seg: SegNo) {
        let t = self.tio.enqueue_prefetch(now, seg);
        self.fetch_tickets.push((seg, t));
        self.prefetch_issued += 1;
    }
}

/// Open-loop Zipfian reader with the scripted crowd storm.
struct FlashCrowdActor {
    store: ZipfStore,
    requests: u32,
    gap: SimTime,
    crowd_at: Option<u32>,
    crowd_clients: u32,
    issued: u32,
}

impl Actor<World> for FlashCrowdActor {
    fn step(&mut self, w: &mut World, now: SimTime) -> Step {
        if self.crowd_at == Some(self.issued) {
            // The storm: N clients demand the cold object in the same
            // instant. Coalescing must collapse them onto one media
            // read (N-1 joins).
            let seg = w.seg_of_object(self.store.crowd_object());
            for _ in 0..self.crowd_clients {
                w.demand(now, seg);
            }
        }
        if self.issued >= self.requests {
            return Step::Done;
        }
        let seg = w.seg_of_object(self.store.next_object());
        w.demand(now, seg);
        self.issued += 1;
        if self.issued >= self.requests && self.crowd_at != Some(self.issued) {
            return Step::Done;
        }
        Step::Yield(now + self.gap)
    }

    fn name(&self) -> &str {
        "flash-crowd"
    }
}

/// Closed-loop hierarchy scan: demand-read each segment in order,
/// prefetch the readahead window, eject behind the stream. Parks on each
/// demand ticket until the engine resolves it; with one ticket open at a
/// time, the token the engine posts to `inbox` is taken and dropped.
struct ScanActor {
    me: usize,
    steps: Vec<hl_workload::ScanStep>,
    idx: usize,
    waiting: Option<Ticket>,
    inbox: Inbox,
    behind: Option<SegNo>,
}

impl Actor<World> for ScanActor {
    fn step(&mut self, w: &mut World, now: SimTime) -> Step {
        loop {
            if let Some(t) = &self.waiting {
                if t.wait(w.waiters[self.me], &self.inbox, 0) {
                    return Step::Park;
                }
                self.inbox.pop();
                self.waiting = None;
                // The stream never re-reads: drop the line behind us so
                // the scan's footprint stays one window wide.
                if let Some(seg) = self.behind.take() {
                    w.tio.enqueue_eject(now, seg);
                }
            }
            let Some(st) = self.steps.get(self.idx) else {
                return Step::Done;
            };
            let st = st.clone();
            for &(v, s) in &st.readahead {
                let seg = w.map.tert_seg(v, s);
                w.prefetch(now, seg);
            }
            let seg = w.map.tert_seg(st.vol, st.slot);
            let t = w.demand(now, seg);
            self.waiting = Some(t);
            self.behind = Some(seg);
            self.idx += 1;
        }
    }

    fn name(&self) -> &str {
        "scan"
    }
}

/// Closed-loop reader tenant: one outstanding demand read at a time,
/// the next issued a think time after the last or when it is served,
/// whichever is later. Parks on a ticket still open after the think,
/// dropping the token it is woken with, as [`ScanActor`] does.
struct ReaderActor {
    me: usize,
    tenant: Tenant,
    reads: u32,
    issued: u32,
    waiting: Option<Ticket>,
    inbox: Inbox,
}

impl Actor<World> for ReaderActor {
    fn step(&mut self, w: &mut World, now: SimTime) -> Step {
        if let Some(t) = &self.waiting {
            if t.wait(w.waiters[self.me], &self.inbox, 0) {
                return Step::Park;
            }
            self.inbox.pop();
            self.waiting = None;
        }
        if self.issued >= self.reads {
            return Step::Done;
        }
        let (vol, slot) = self.tenant.next_target();
        let seg = w.map.tert_seg(vol, slot);
        let t = w.demand(now, seg);
        self.waiting = Some(t);
        self.issued += 1;
        Step::Yield(now + self.tenant.think)
    }

    fn name(&self) -> &str {
        "tenant-reader"
    }
}

/// Closed-loop writer tenant: one copy-out outstanding at a time. It
/// stages each target's oracle image through the engine's one staging
/// call and parks on the copy-out ticket, dropping the token it is woken
/// with, as [`ReaderActor`] does. A call that finds no line or no
/// request-queue slot parks the writer on the engine's space signal.
struct WriterActor {
    me: usize,
    targets: Vec<(u32, u32)>,
    idx: usize,
    waiting: Option<Ticket>,
    inbox: Inbox,
}

impl Actor<World> for WriterActor {
    fn step(&mut self, w: &mut World, now: SimTime) -> Step {
        let me = w.waiters[self.me];
        loop {
            if let Some(t) = &self.waiting {
                if t.wait(me, &self.inbox, 0) {
                    return Step::Park;
                }
                self.inbox.pop();
                self.waiting = None;
            }
            let Some(&(vol, slot)) = self.targets.get(self.idx) else {
                return Step::Done;
            };
            let seg = w.map.tert_seg(vol, slot);
            let Some(t) = w.tio.stage_copy_out(now, seg, &seg_image(w.seed, seg)) else {
                w.tio.subscribe_space(me);
                return Step::Park;
            };
            w.copyout_tickets.push((seg, t.clone()));
            w.copyouts_issued += 1;
            self.idx += 1;
            self.waiting = Some(t);
        }
    }

    fn name(&self) -> &str {
        "tenant-writer"
    }
}

/// Replays `cfg` against the event-driven engine and collects the
/// scenario measurements. Reading every ticket at the end proves none
/// was lost (an unresolved ticket panics); failures are counted, not
/// dropped.
pub fn run_scenario(cfg: &ScenarioConfig) -> ScenarioResult {
    let spv = cfg.segments_per_volume;
    // The whole hierarchy carries the deterministic oracle image.
    let (tio, jb, map) =
        RigSpec::cache_disk(cfg.cache_lines, cfg.volumes, spv, cfg.drives, cfg.seed).build();
    if let Some(fault) = cfg.fault {
        let plan = FaultPlan::new(FaultConfig::none(cfg.seed));
        match fault {
            FaultScript::DriveDeath { drive, at } => plan.fail_drive_at(drive, at),
            FaultScript::DriveHang { drive, at, dur } => plan.hang_drive_at(drive, at, dur),
            FaultScript::DriveSlow { drive, factor, at } => plan.slow_drive_from(drive, factor, at),
            FaultScript::RobotJam { at, dur } => plan.jam_robot_during(at, dur),
        }
        jb.set_fault_plan(plan);
    }
    let mut sched: Scheduler<World> = Scheduler::new();
    tio.attach_engine(&mut sched);
    let mut waiters = Vec::new();
    match &cfg.kind {
        ScenarioKind::FlashCrowd {
            objects,
            exponent,
            requests,
            gap,
            crowd_at,
            crowd_clients,
        } => {
            assert!(
                *objects <= cfg.volumes * spv,
                "more objects than tertiary segments"
            );
            let mut store = ZipfStore::new(cfg.seed, *objects, *exponent);
            if let Some(at) = crowd_at {
                // The paced stream keeps hitting the crowd object with
                // high bias after the storm instant — a flash crowd is
                // sustained interest, not one spike.
                store = store.with_flash_crowd(*at as u64, *requests as u64, 0.7);
            }
            sched.spawn_at(
                0,
                FlashCrowdActor {
                    store,
                    requests: *requests,
                    gap: *gap,
                    crowd_at: *crowd_at,
                    crowd_clients: *crowd_clients,
                    issued: 0,
                },
            );
        }
        ScenarioKind::HierarchyScan { readahead } => {
            let scan = HierarchyScan::backup(cfg.volumes, spv, *readahead);
            waiters.push(sched.spawn_at(
                0,
                ScanActor {
                    me: waiters.len(),
                    steps: scan.steps(),
                    idx: 0,
                    waiting: None,
                    inbox: Inbox::new(),
                    behind: None,
                },
            ));
        }
        ScenarioKind::TenantThrash {
            readers,
            writers,
            reads_per_tenant,
            copyouts_per_writer,
            working_set,
            think,
        } => {
            let mix = TenantMix::new(
                cfg.seed,
                *readers,
                *writers,
                *working_set,
                cfg.volumes,
                spv,
                *think,
            );
            for tenant in mix.tenants {
                // The mix's own schedule (default: ARRIVAL_STAGGER per
                // id — the same ramp the server fleet replays).
                let start = tenant.arrival as SimTime;
                match tenant.kind {
                    TenantKind::Reader => {
                        waiters.push(sched.spawn_at(
                            start,
                            ReaderActor {
                                me: waiters.len(),
                                tenant,
                                reads: *reads_per_tenant,
                                issued: 0,
                                waiting: None,
                                inbox: Inbox::new(),
                            },
                        ));
                    }
                    TenantKind::Writer => {
                        let mut targets = tenant.working_set;
                        targets.truncate(*copyouts_per_writer as usize);
                        waiters.push(sched.spawn_at(
                            start,
                            WriterActor {
                                me: waiters.len(),
                                targets,
                                idx: 0,
                                waiting: None,
                                inbox: Inbox::new(),
                            },
                        ));
                    }
                }
            }
        }
    }

    let mut world = World {
        tio: tio.clone(),
        waiters,
        map,
        spv,
        seed: cfg.seed,
        fetch_tickets: Vec::new(),
        copyout_tickets: Vec::new(),
        demand_issued: 0,
        prefetch_issued: 0,
        copyouts_issued: 0,
    };
    let wall_clock = sched.run(&mut world);

    // Every ticket must have resolved (reading an unresolved one
    // panics — that is the lost-ticket gate).
    let mut served_fetches = 0usize;
    let mut failed_fetches = 0usize;
    for (_, t) in &world.fetch_tickets {
        match t.fetch_result() {
            Ok(_) => served_fetches += 1,
            Err(_) => failed_fetches += 1,
        }
    }
    let failed_copyouts = world
        .copyout_tickets
        .iter()
        .filter(|(_, t)| t.copyout_result().is_err())
        .count();

    // Byte oracle, both directions: every Clean resident line must hold
    // its segment's image on the cache disk, and every successful
    // copy-out must have landed its image on the media.
    let seg_bytes = BLOCKS_PER_SEG as usize * BLOCK_SIZE;
    let mut oracle_verified = 0usize;
    let mut oracle_mismatches = 0usize;
    let resident: Vec<(SegNo, SegNo)> = tio
        .cache()
        .borrow()
        .lines()
        .filter(|l| l.state == LineState::Clean)
        .map(|l| (l.tert_seg, l.disk_seg))
        .collect();
    let mut back = vec![0u8; seg_bytes];
    for (tert_seg, disk_seg) in resident {
        tio.disks_handle()
            .peek(map.seg_base(disk_seg) as u64, &mut back)
            .expect("peek resident line");
        oracle_verified += 1;
        if back != seg_image(cfg.seed, tert_seg) {
            oracle_mismatches += 1;
        }
    }
    for (seg, t) in &world.copyout_tickets {
        if t.copyout_result().is_err() {
            continue;
        }
        let (vol, slot) = map.vol_slot(*seg).expect("copy-out seg maps");
        jb.peek_segment(vol, slot, &mut back).expect("peek media");
        oracle_verified += 1;
        if back != seg_image(cfg.seed, *seg) {
            oracle_mismatches += 1;
        }
    }

    let demand_residency = tio.tracer().residencies(hl_trace::Class::Demand);

    let st = tio.stats();
    let fp = jb.stats();
    ScenarioResult {
        name: cfg.name,
        seed: cfg.seed,
        wall_clock,
        demand_issued: world.demand_issued,
        prefetch_issued: world.prefetch_issued,
        copyouts_issued: world.copyouts_issued,
        served_fetches,
        failed_fetches,
        failed_copyouts,
        cache: tio.cache().borrow().stats(),
        coalesced: st.coalesced_fetches,
        demand_residency,
        media_reads: fp.reads,
        media_writes: fp.writes,
        media_swaps: fp.swaps,
        drive_down: st.drive_down,
        redispatched: st.redispatched,
        watchdog_fired: st.watchdog_fired,
        oracle_verified,
        oracle_mismatches,
        trace_digest: tio.trace_digest(),
        trace_findings: tio.trace_findings(),
    }
}

/// The standard suite: three healthy adversaries plus two
/// fault-composed runs. Fixed seeds — these are the rows EXPERIMENTS.md
/// and `BENCH_scenarios.json` pin.
pub fn standard_scenarios() -> Vec<ScenarioConfig> {
    vec![
        ScenarioConfig {
            name: "zipf_steady",
            seed: 0xA1,
            volumes: 4,
            segments_per_volume: 8,
            drives: 2,
            cache_lines: 16,
            kind: ScenarioKind::FlashCrowd {
                objects: 32,
                exponent: 1.1,
                requests: 60,
                gap: secs(3.0),
                crowd_at: None,
                crowd_clients: 0,
            },
            fault: None,
        },
        ScenarioConfig {
            name: "flash_crowd",
            seed: 0xA2,
            volumes: 4,
            segments_per_volume: 8,
            drives: 2,
            cache_lines: 16,
            kind: ScenarioKind::FlashCrowd {
                objects: 32,
                exponent: 1.1,
                requests: 60,
                gap: secs(3.0),
                crowd_at: Some(30),
                crowd_clients: 24,
            },
            fault: None,
        },
        ScenarioConfig {
            name: "hierarchy_scan",
            seed: 0xA3,
            volumes: 5,
            segments_per_volume: 8,
            drives: 2,
            cache_lines: 12,
            kind: ScenarioKind::HierarchyScan { readahead: 2 },
            fault: None,
        },
        ScenarioConfig {
            name: "tenant_thrash",
            seed: 0xA4,
            volumes: 6,
            segments_per_volume: 8,
            drives: 2,
            cache_lines: 10,
            kind: ScenarioKind::TenantThrash {
                readers: 3,
                writers: 1,
                reads_per_tenant: 24,
                copyouts_per_writer: 6,
                working_set: 12,
                think: secs(1.0),
            },
            fault: None,
        },
        ScenarioConfig {
            name: "flash_crowd_drive_death",
            seed: 0xA5,
            volumes: 4,
            segments_per_volume: 8,
            drives: 2,
            cache_lines: 16,
            kind: ScenarioKind::FlashCrowd {
                objects: 32,
                exponent: 1.1,
                requests: 60,
                gap: secs(3.0),
                crowd_at: Some(30),
                crowd_clients: 24,
            },
            // The reader drive dies just before the storm lands.
            fault: Some(FaultScript::DriveDeath {
                drive: 1,
                at: secs(85.0),
            }),
        },
        ScenarioConfig {
            name: "scan_robot_jam",
            seed: 0xA6,
            volumes: 5,
            segments_per_volume: 8,
            drives: 2,
            cache_lines: 12,
            kind: ScenarioKind::HierarchyScan { readahead: 2 },
            // The arm jams mid-stream; volume-boundary swaps stall.
            fault: Some(FaultScript::RobotJam {
                at: secs(40.0),
                dur: secs(60.0),
            }),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_suite_names_are_unique_and_seeded() {
        let suite = standard_scenarios();
        let mut names: Vec<&str> = suite.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), suite.len());
        let mut seeds: Vec<u64> = suite.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), suite.len(), "scenario seeds must differ");
    }

    #[test]
    fn smallest_scenario_runs_clean() {
        let r = run_scenario(&ScenarioConfig {
            name: "smoke",
            seed: 1,
            volumes: 2,
            segments_per_volume: 4,
            drives: 2,
            cache_lines: 8,
            kind: ScenarioKind::FlashCrowd {
                objects: 8,
                exponent: 1.0,
                requests: 6,
                gap: secs(2.0),
                crowd_at: None,
                crowd_clients: 0,
            },
            fault: None,
        });
        assert_eq!(r.demand_issued, 6);
        assert_eq!(r.failed_fetches, 0);
        assert_eq!(r.oracle_mismatches, 0);
        assert!(r.trace_findings.is_empty(), "{:?}", r.trace_findings);
    }

    /// Every lane retires while the writer waits for space. One drive,
    /// dead from time 0, and two lines: the readers arriving at 0 and
    /// 1 s pin both with fetches the dead drive never serves (the reader
    /// arriving at 0.5 s joins the first), so the writer, arriving at
    /// 1.5 s, finds no line. Each reader reads once, so no request
    /// reaches the service process after the drain. When the lane
    /// retires at the end of its probe ladder (~630 s), the engine
    /// drains its queues: the refused fetches free their lines, the
    /// writer is woken, stages its two copy-outs, and each is refused at
    /// dispatch. The run ends with every ticket resolved. Seen red: the
    /// drain waking no space waiter, by `refuse` posting no wake (the
    /// writer issues none of its copy-outs).
    #[test]
    fn a_writer_waiting_for_space_when_every_lane_retires_counts_its_refusals() {
        let r = run_scenario(&ScenarioConfig {
            name: "dead_pool",
            seed: 7,
            volumes: 4,
            segments_per_volume: 8,
            drives: 1,
            cache_lines: 2,
            kind: ScenarioKind::TenantThrash {
                readers: 3,
                writers: 1,
                reads_per_tenant: 1,
                copyouts_per_writer: 2,
                working_set: 4,
                think: secs(1.0),
            },
            fault: Some(FaultScript::DriveDeath { drive: 0, at: 0 }),
        });
        assert_eq!((r.copyouts_issued, r.failed_copyouts), (2, 2));
        assert_eq!(r.served_fetches, 0);
        assert!(r.trace_findings.is_empty(), "{:?}", r.trace_findings);
    }
}
