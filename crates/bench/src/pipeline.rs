//! The concurrent migrator / I/O-server pipeline (§7.3's experiment).
//!
//! "The original 51.2MB file from the large object benchmark was migrated
//! entirely to tertiary storage, while the components of the migration
//! mechanism were timed. This involved the migrator process, which
//! collected the file data blocks and directed the kernel file system to
//! write them to fresh cache segments, the server process, which
//! dispatched kernel requests to copy out dirty cache segments, and the
//! I/O process, which performed the copies."
//!
//! All three processes are real here: the migrator is a virtual-time
//! [`Actor`] that gathers file blocks, stages them into
//! [`highlight::SegCache`] lines, and queues copy-out requests; the
//! service process and I/O server are [`highlight::TertiaryIo`]'s own
//! engine actors, attached to the benchmark's scheduler
//! (`TertiaryIo::attach_engine`). Disk-arm contention (Table 6's two
//! phases) emerges from the shared device handles, backpressure from the
//! bounded cache pool (a full pool parks the migrator until a copy-out
//! completes). Table 4's rows are read off the engine: Footprint writes
//! from the trace's drive lanes, I/O-server reads from its staging lane,
//! and queuing from the I/O servers' wait on an idle lane
//! (`SvcStats::queuing`).

use std::rc::Rc;

use highlight::requests::Ticket;
use highlight::rig::{self, BLOCKS_PER_SEG};
use highlight::segcache::{EjectPolicy, LineState};
use highlight::{SvcStats, TertiaryIo, UniformMap};
use hl_footprint::{Footprint, Jukebox};
use hl_lfs::config::AddressMap;
use hl_lfs::types::SegNo;
use hl_sim::stats::percentile;
use hl_sim::time::SimTime;
use hl_sim::{Actor, ActorId, Scheduler, Step};
use hl_vdev::{Block, BlockDev, Disk, Segment, BLOCK_SIZE};

use crate::report::Json;

/// Gather read cluster in blocks (32 KB).
const GATHER_CLUSTER: u64 = 8;
/// First source block on the source disk.
const SRC_BASE: u64 = 2;
/// First staging block when staging shares the source spindle (beyond
/// the file); a separate staging disk starts at block 0.
const SHARED_STAGING_BASE: u32 = 200_000;
/// Cache lines available for staging (the lines in flight: a full pool
/// is the migrator's backpressure).
const STAGING_SLOTS: u32 = 4;
/// Migrator CPU cost per block copied, µs.
const CPU_PER_BLOCK: SimTime = 550;
/// Virtual time of the first foreground demand fetch.
const DEMAND_START: SimTime = 5_000_000;
/// Gap between foreground demand fetches.
const DEMAND_GAP: SimTime = 4_000_000;

/// Pipeline parameters.
pub struct PipelineConfig {
    /// Segments to migrate (52 ≈ the 51.2 MB file).
    pub segments: u32,
    /// Disk holding the source file blocks.
    pub src_disk: Disk,
    /// A separate spindle for the staging cache lines (the paper's
    /// RZ58/HP7958A variants); `None` stages on `src_disk` beyond the
    /// file, the paper's first configuration.
    pub staging_disk: Option<Disk>,
    /// The tertiary device.
    pub jukebox: Jukebox,
    /// Optional foreground demand-read load running beside the
    /// migration (the drive-pool ablation: with one drive these queue
    /// behind the copy-out stream, with two they ride the reader lane).
    pub demand: Option<DemandLoad>,
}

/// A stream of demand fetches against the jukebox's top volumes
/// (pre-poked by [`run`]), one every 4 s from 5 s on, issued while the
/// migration runs. Each read gets a cache line of its own added to the
/// pool, so the foreground reads do not fight the migrator for staging
/// space.
#[derive(Clone, Copy, Debug)]
pub struct DemandLoad {
    /// Demand fetches to issue.
    pub reads: u32,
    /// Distinct hot volumes the reads round-robin across (clamped to a
    /// minimum of 1). With one hot volume a single reader lane absorbs
    /// the whole stream and the drive-count ablation saturates at two
    /// drives; spreading the reads across 3+ volumes forces swaps on
    /// every lane and keeps 4 drives busy.
    pub hot_volumes: u32,
}

/// Pipeline outcome.
pub struct PipelineResult {
    /// When the migrator finished assembling the last staging segment —
    /// the boundary between the contention and no-contention phases.
    pub migrator_done: SimTime,
    /// When the last segment reached the tertiary device.
    pub total_end: SimTime,
    /// Per-segment copy-out completion times, ascending.
    pub completions: Vec<SimTime>,
    /// The engine's counters at the end: per-drive busy time, Table 4's
    /// queuing, the drive-fault counters.
    pub stats: SvcStats,
    /// Busy time of the trace's staging lane: I/O-server reads off the
    /// cache disk and cache-line fills.
    pub staging_busy: SimTime,
    /// FNV digest of the engine's event trace (same-seed runs hash
    /// equal).
    pub trace_digest: u64,
    /// Tracecheck findings over the finished run (must be empty).
    pub trace_findings: Vec<hl_trace::Finding>,
    /// Per-kind event counts from the recorder, for `--trace` bench
    /// summaries.
    pub trace_summary: Vec<(&'static str, u64)>,
    /// Demand-fetch queue residencies (enqueue to device start),
    /// ascending; empty without a [`DemandLoad`].
    pub demand_residency: Vec<SimTime>,
    /// I/O-server lanes the engine ran.
    pub drives: usize,
    /// Media swaps the robot performed.
    pub media_swaps: u64,
    /// Per-drive down intervals `[(down, up)]`, replayed from the
    /// recorder's `DriveDown`/`DriveUp` events; a drive still down at
    /// the end closes its interval at `total_end`. Empty on healthy
    /// runs.
    pub availability: Vec<Vec<(SimTime, SimTime)>>,
    /// Copy-outs whose ticket resolved with an error (surfaced, not
    /// lost — every ticket resolves even under faults).
    pub failed_copyouts: usize,
    /// Demand fetches whose ticket resolved with an error.
    pub failed_fetches: usize,
}

impl PipelineResult {
    /// `(contention, no_contention, overall)` throughput in KB/s —
    /// Table 6's three rows. Completions during the migrator's lifetime
    /// count as the contention phase.
    pub fn throughputs(&self) -> (f64, f64, f64) {
        let seg_kb = 1024.0;
        let during = self
            .completions
            .iter()
            .filter(|&&t| t <= self.migrator_done)
            .count() as f64;
        let after = self.completions.len() as f64 - during;
        let contention = if self.migrator_done > 0 {
            during * seg_kb / hl_sim::time::as_secs(self.migrator_done)
        } else {
            0.0
        };
        let tail = self.total_end.saturating_sub(self.migrator_done);
        let no_contention = if tail > 0 {
            after * seg_kb / hl_sim::time::as_secs(tail)
        } else {
            0.0
        };
        let overall =
            self.completions.len() as f64 * seg_kb / hl_sim::time::as_secs(self.total_end.max(1));
        (contention, no_contention, overall)
    }

    /// `p`-th percentile of the demand queue residencies, µs.
    pub fn demand_residency_pct(&self, p: usize) -> SimTime {
        percentile(&self.demand_residency, p)
    }

    /// Per-drive utilization over the whole run, percent.
    fn drive_utilization(&self) -> Vec<f64> {
        let total = self.total_end.max(1) as f64;
        self.stats.drive_busy[..self.drives]
            .iter()
            .map(|&b| 100.0 * b as f64 / total)
            .collect()
    }

    /// Machine-readable summary (the `BENCH_pipeline.json` and
    /// `BENCH_faults.json` payload — one shared schema): Table 6's
    /// throughputs, the demand queue-residency percentiles, drive
    /// utilization, the robot's swap count, the per-drive availability
    /// timeline, and the fault counters (all zero on healthy runs).
    pub fn to_json(&self) -> Json {
        let (contention, no_contention, overall) = self.throughputs();
        let availability = self.availability.iter().enumerate().map(|(d, downs)| {
            let spans = downs.iter().map(|&(s, e)| Json::arr([s.into(), e.into()]));
            Json::obj([("drive", d.into()), ("down", Json::arr(spans))])
        });
        Json::obj([
            (
                "throughput_kbs",
                Json::obj([
                    ("contention", Json::Fixed(contention, 1)),
                    ("no_contention", Json::Fixed(no_contention, 1)),
                    ("overall", Json::Fixed(overall, 1)),
                ]),
            ),
            (
                "demand_residency_us",
                Json::obj([
                    ("p50", self.demand_residency_pct(50).into()),
                    ("p95", self.demand_residency_pct(95).into()),
                    ("n", self.demand_residency.len().into()),
                ]),
            ),
            (
                "drive_utilization_pct",
                Json::arr(self.drive_utilization().iter().map(|&u| Json::Fixed(u, 2))),
            ),
            ("drives", self.drives.into()),
            ("media_swaps", self.media_swaps.into()),
            ("wall_clock_us", self.total_end.into()),
            ("availability", Json::arr(availability)),
            (
                "faults",
                Json::obj([
                    ("drive_down", self.stats.drive_down.into()),
                    ("redispatched", self.stats.redispatched.into()),
                    ("watchdog_fired", self.stats.watchdog_fired.into()),
                    ("failed_copyouts", self.failed_copyouts.into()),
                    ("failed_fetches", self.failed_fetches.into()),
                ]),
            ),
            ("trace_digest", Json::hex(self.trace_digest)),
        ])
    }
}

struct World {
    tio: Rc<TertiaryIo>,
    src_disk: Disk,
    segments: u32,
    /// The migrator's own wake handle, for space backpressure.
    migrator_id: ActorId,
    tickets: Vec<Ticket>,
    demand_tickets: Vec<Ticket>,
    migrator_done: Option<SimTime>,
}

/// The foreground reader: paced demand fetches round-robined across
/// the jukebox's top [`DemandLoad::hot_volumes`] volumes.
struct DemandActor {
    load: DemandLoad,
    issued: u32,
}

impl Actor<World> for DemandActor {
    fn step(&mut self, w: &mut World, now: SimTime) -> Step {
        if self.issued >= self.load.reads {
            return Step::Done;
        }
        let spv = w.tio.jukebox().segments_per_volume();
        let hv = self.load.hot_volumes.max(1);
        let vol = w.tio.jukebox().volumes() - 1 - (self.issued % hv);
        let seg = w.tio.map.tert_seg(vol, (self.issued / hv) % spv);
        w.demand_tickets.push(w.tio.enqueue_demand(now, seg));
        self.issued += 1;
        if self.issued >= self.load.reads {
            return Step::Done;
        }
        Step::Yield(now + DEMAND_GAP)
    }

    fn name(&self) -> &str {
        "demand-reader"
    }
}

struct MigratorActor {
    next_seg: u32,
    /// A sealed segment whose copy-out enqueue found the request queue
    /// full, to retry on the next wake.
    pending: Option<(SegNo, SimTime)>,
}

impl Actor<World> for MigratorActor {
    fn step(&mut self, w: &mut World, now: SimTime) -> Step {
        if let Some((seg, sealed_at)) = self.pending.take() {
            let t = now.max(sealed_at);
            match w.tio.try_enqueue_copy_out(t, seg) {
                Some(ticket) => {
                    w.tickets.push(ticket);
                    self.next_seg += 1;
                    if self.next_seg >= w.segments {
                        w.migrator_done.get_or_insert(t);
                        return Step::Done;
                    }
                }
                None => {
                    w.tio.subscribe_space(w.migrator_id);
                    self.pending = Some((seg, sealed_at));
                    return Step::Park;
                }
            }
        }
        if self.next_seg >= w.segments {
            w.migrator_done.get_or_insert(now);
            return Step::Done;
        }
        let map = w.tio.map;
        let spv = w.tio.jukebox().segments_per_volume();
        let seg = map.tert_seg(self.next_seg / spv, self.next_seg % spv);
        // Claim a staging line. A full pool (every line pinned by an
        // unfinished copy-out or fill) parks us until the engine frees
        // space (§5.4: the uncopied lines pin disk space).
        let allocated = w
            .tio
            .cache()
            .borrow_mut()
            .allocate(seg, LineState::Staging, now);
        let Some((disk_seg, _)) = allocated else {
            w.tio.subscribe_space(w.migrator_id);
            return Step::Park;
        };
        let bps = u64::from(BLOCKS_PER_SEG);
        let mut t = now;
        // Gather the segment's blocks in clustered reads.
        let mut buf = vec![0u8; GATHER_CLUSTER as usize * BLOCK_SIZE];
        let mut b = 0u64;
        while b < bps {
            let n = GATHER_CLUSTER.min(bps - b);
            let slot = w
                .src_disk
                .read(
                    t,
                    SRC_BASE + self.next_seg as u64 * bps + b,
                    &mut buf[..n as usize * BLOCK_SIZE],
                )
                .expect("gather read");
            t = slot.end + CPU_PER_BLOCK * n;
            b += n;
        }
        // One large staging write (the migratev partial-segment write),
        // to the line's home on the staging disk.
        let image = vec![0u8; bps as usize * BLOCK_SIZE];
        let wslot = w
            .tio
            .disks_handle()
            .write(t, map.seg_base(disk_seg) as u64, &image)
            .expect("staging write");
        t = wslot.end;
        // Seal the line and hand it to the service process.
        w.tio
            .cache()
            .borrow_mut()
            .set_state(seg, LineState::DirtyWait);
        match w.tio.try_enqueue_copy_out(t, seg) {
            Some(ticket) => w.tickets.push(ticket),
            None => {
                // Request queue full: park until the engine frees a
                // slot, then retry the enqueue (the line stays sealed
                // meanwhile).
                w.tio.subscribe_space(w.migrator_id);
                self.pending = Some((seg, t));
                return Step::Park;
            }
        }
        self.next_seg += 1;
        if self.next_seg >= w.segments {
            w.migrator_done.get_or_insert(t);
            return Step::Done;
        }
        Step::Yield(t)
    }

    fn name(&self) -> &str {
        "migrator"
    }
}

/// Builds the engine and the actors and runs the scheduler until every
/// actor is done; the finished world holds the engine and the tickets.
fn simulate(cfg: PipelineConfig) -> World {
    // The uniform map places the staging pool at its base on the staging
    // disk and mirrors the jukebox's geometry in the tertiary range, so
    // the engine's copy-outs address the same blocks the old hand-rolled
    // pipeline did.
    let (staging_disk, staging_base) = match cfg.staging_disk {
        Some(disk) => (disk, 0),
        None => (cfg.src_disk.clone(), SHARED_STAGING_BASE),
    };
    let lines = STAGING_SLOTS + cfg.demand.map_or(0, |d| d.reads);
    let map = UniformMap::new(
        staging_base,
        BLOCKS_PER_SEG,
        lines,
        cfg.jukebox.volumes(),
        cfg.jukebox.segments_per_volume(),
    );
    let tio = rig::assemble(
        map,
        &cfg.jukebox,
        Rc::new(staging_disk),
        0..lines,
        EjectPolicy::Lru,
    );

    let mut sched: Scheduler<World> = Scheduler::new();
    tio.attach_engine(&mut sched);
    let migrator_id = sched.spawn_at(
        0,
        MigratorActor {
            next_seg: 0,
            pending: None,
        },
    );
    if let Some(load) = cfg.demand {
        // The foreground reads round-robin across the top `hot_volumes`
        // volumes, well away from the copy-out stream's write volumes.
        let spv = cfg.jukebox.segments_per_volume();
        let hv = load.hot_volumes.max(1);
        // Every demand segment is one shared block, 256 times over.
        let seg = Segment::repeat(
            &Block::copy_of(&[0x6d; BLOCK_SIZE]),
            BLOCKS_PER_SEG as usize,
        );
        for v in 0..hv {
            let vol = cfg.jukebox.volumes() - 1 - v;
            let slots = (load.reads.div_ceil(hv)).min(spv);
            for slot in 0..slots {
                cfg.jukebox
                    .poke_segment_blocks(vol, slot, &seg)
                    .expect("poke demand segment");
            }
        }
        sched.spawn_at(DEMAND_START, DemandActor { load, issued: 0 });
    }
    let mut world = World {
        tio,
        src_disk: cfg.src_disk,
        segments: cfg.segments,
        migrator_id,
        tickets: Vec::new(),
        demand_tickets: Vec::new(),
        migrator_done: None,
    };
    sched.run(&mut world);
    world
}

/// Runs the pipeline to completion.
pub fn run(cfg: PipelineConfig) -> PipelineResult {
    let world = simulate(cfg);
    let tio = &world.tio;

    // Every ticket resolves even under injected drive faults: a lost
    // op would leave its ticket unresolved and panic here. Failures
    // (e.g. the pool died) surface as errors and are counted, not
    // dropped.
    let mut failed_copyouts = 0usize;
    let mut completions: Vec<SimTime> = world
        .tickets
        .iter()
        .filter_map(|t| match t.copyout_result() {
            Ok(end) => Some(end),
            Err(_) => {
                failed_copyouts += 1;
                None
            }
        })
        .collect();
    completions.sort_unstable();
    let failed_fetches = world
        .demand_tickets
        .iter()
        .filter(|t| t.fetch_result().is_err())
        .count();
    // Queue residency (enqueue to device start) of each demand fetch,
    // as the recorder counted them.
    let demand_residency = tio.tracer().residencies(hl_trace::Class::Demand);
    let drives = tio.drives();
    let total_end = completions.last().copied().unwrap_or(0);
    // Per-drive availability timeline: each down window, from a drive's
    // first DriveDown to its next DriveUp; a drive still down at the end
    // closes its window at the run's horizon.
    let mut availability: Vec<Vec<(SimTime, SimTime)>> = vec![Vec::new(); drives];
    for (d, down, up) in tio.tracer().down_windows() {
        if let Some(windows) = availability.get_mut(d as usize) {
            windows.push((down, up.unwrap_or(total_end.max(down))));
        }
    }
    PipelineResult {
        migrator_done: world.migrator_done.unwrap_or(0),
        total_end,
        completions,
        stats: tio.stats(),
        staging_busy: tio.tracer().lane_io(hl_trace::Lane::Staging).1,
        trace_digest: tio.trace_digest(),
        trace_findings: tio.trace_findings(),
        trace_summary: tio.tracer().summary(),
        demand_residency,
        drives,
        media_swaps: tio.jukebox().stats().swaps,
        availability,
        failed_copyouts,
        failed_fetches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_footprint::JukeboxConfig;
    use hl_vdev::DiskProfile;

    fn config(segments: u32, staging_on_src: bool) -> PipelineConfig {
        PipelineConfig {
            segments,
            src_disk: Disk::new(DiskProfile::RZ57, 300_000, None),
            staging_disk: (!staging_on_src).then(|| Disk::new(DiskProfile::RZ58, 300_000, None)),
            jukebox: Jukebox::new(JukeboxConfig::hp6300_paper(), None),
            demand: None,
        }
    }

    fn small_pipeline(staging_on_src: bool) -> PipelineResult {
        run(config(12, staging_on_src))
    }

    #[test]
    fn pipeline_completes_all_segments() {
        let r = small_pipeline(true);
        assert_eq!(r.completions.len(), 12);
        assert!(r.migrator_done > 0);
        assert!(r.total_end >= r.migrator_done);
        assert!(r.completions.windows(2).all(|w| w[0] <= w[1]));
        assert!(
            r.trace_findings.is_empty(),
            "tracecheck: {:?}",
            r.trace_findings
        );
        // Same seedless config, same virtual history: the trace digest
        // is reproducible.
        assert_eq!(r.trace_digest, small_pipeline(true).trace_digest);
    }

    #[test]
    fn contention_phase_is_slower_than_drain_phase() {
        let r = small_pipeline(true);
        let (contention, no_contention, overall) = r.throughputs();
        assert!(
            contention < no_contention,
            "contention {contention:.0} !< no-contention {no_contention:.0}"
        );
        assert!(overall > 0.0);
        // The drain phase approaches the MO write speed (204 KB/s).
        assert!(no_contention > 140.0, "{no_contention:.0} KB/s");
        assert!(no_contention < 210.0, "{no_contention:.0} KB/s");
    }

    #[test]
    fn separate_staging_spindle_helps_contention() {
        let same = small_pipeline(true).throughputs().0;
        let separate = small_pipeline(false).throughputs().0;
        assert!(
            separate > same,
            "RZ58 staging {separate:.0} !> shared {same:.0}"
        );
    }

    #[test]
    fn footprint_write_dominates_the_breakdown() {
        let r = small_pipeline(true);
        let write: SimTime = r.stats.drive_busy.iter().sum();
        assert!(write > r.staging_busy + r.stats.queuing, "{write} µs");
        assert!(r.stats.queuing < write);
    }

    /// Table 4's run, to the microsecond: 52 segments staged on the
    /// source RZ57 beyond the file, the MO changer on the same SCSI bus.
    #[test]
    fn table4_geometry_pins_its_three_rows() {
        let bus = hl_vdev::ScsiBus::new("scsi0");
        let r = run(PipelineConfig {
            segments: 52,
            src_disk: Disk::new(DiskProfile::RZ57, 300_000, Some(bus.clone())),
            staging_disk: None,
            jukebox: Jukebox::new(JukeboxConfig::hp6300_paper(), Some(bus)),
            demand: None,
        });
        assert_eq!(r.stats.drive_busy.iter().sum::<SimTime>(), 261_123_616);
        assert_eq!(r.staging_busy, 38_304_052);
        assert_eq!(r.stats.queuing, 2_000);
    }

    #[test]
    fn staging_pool_exhaustion_parks_and_resumes_the_migrator() {
        // Twice as many segments as staging lines: the migrator finds the
        // pool full (a cache stall; its only allocator here), parks until
        // copy-outs free lines, and everything still completes. One
        // segment per line never finds it full.
        let stalls = |w: &World| w.tio.cache().borrow().stats().stalls;
        assert_eq!(stalls(&simulate(config(STAGING_SLOTS, true))), 0);
        let w = simulate(config(2 * STAGING_SLOTS, true));
        assert!(stalls(&w) > 0, "the migrator never found the pool full");
        assert!(w.migrator_done.is_some());
        for t in &w.tickets {
            t.copyout_result().expect("copy-out");
        }
        assert_eq!(w.tickets.len(), 2 * STAGING_SLOTS as usize);
    }
}
