//! The HighLight filesystem façade.
//!
//! "Application programs see only a 'normal' filesystem, accessible
//! through the usual operating system calls. They may notice a
//! degradation in access time due to the underlying hierarchy management,
//! but they need not take any special actions to utilize HighLight" (§4).
//!
//! [`HighLight`] assembles the whole Figure 5 stack: disks under a
//! block-map pseudo-device, the segment cache, the tertiary I/O engine
//! over a Footprint jukebox, and the LFS on top, plus staging-segment
//! management for the migrator, the tsegfile, and checkpoint integration.

use std::cell::RefCell;
use std::rc::Rc;

use hl_footprint::Footprint;
use hl_lfs::config::AddressMap;
use hl_lfs::dir::DirEntry;
use hl_lfs::error::{LfsError, Result};
use hl_lfs::fs::Stat;
use hl_lfs::migrate::{MigrateItem, StagingSegment};
use hl_lfs::recovery::RecoveryReport;
use hl_lfs::types::{Ino, SegNo, UNASSIGNED};
use hl_lfs::{Lfs, LfsConfig, Ufs};
use hl_sim::time::SimTime;
use hl_vdev::{BlockDev, DevError, BLOCK_SIZE};

use crate::addr::UniformMap;
use crate::blockmap::BlockMapDev;
use crate::migrator::AccessTracker;
use crate::prefetch::{prefetch_targets, PrefetchPolicy, UnitHintMap};
use crate::requests::Ticket;
use crate::segcache::{EjectPolicy, LineState, SegCache};
use crate::service::TertiaryIo;
use crate::tsegfile::{TsegHooks, TsegTable};

/// The well-known path of the tertiary segment summary file (§6.4's
/// "companion file similar to the ifile"; like the other special files it
/// "always remains on disk" — the migrator never selects it).
pub const TSEGFILE_PATH: &str = "/.tsegfile";

/// When assembled staging segments are copied to tertiary storage (§5.4
/// "Writing fresh tertiary segments").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CopyOutMode {
    /// Copy immediately when a staging segment fills.
    Immediate,
    /// Queue sealed segments (up to four) and copy them when
    /// [`HighLight::drain_copyouts`] is called at an idle period, or a
    /// sync drains them; a full pipeline forces the oldest out.
    Delayed,
}

/// Maximum sealed-but-uncopied segments under [`CopyOutMode::Delayed`].
const COPYOUT_PIPELINE: usize = 4;

/// HighLight construction parameters.
#[derive(Clone)]
pub struct HlConfig {
    /// Parameters for the underlying LFS (summary size, buffer cache,
    /// cleaner, and the static cache-segment limit).
    pub lfs: LfsConfig,
    /// Cache-line ejection policy (§5.4).
    pub eject: EjectPolicy,
    /// Copy-out scheduling (§5.4).
    pub copyout: CopyOutMode,
    /// Prefetch policy (§5.3–5.4).
    pub prefetch: PrefetchPolicy,
}

impl HlConfig {
    /// The paper's configuration: 4 KB summaries, immediate copy-out,
    /// LRU ejection, no prefetch. `cache_segs` bounds the segment cache.
    pub fn paper(clock: hl_sim::Clock, cache_segs: u32) -> HlConfig {
        HlConfig {
            lfs: LfsConfig::highlight(clock, cache_segs),
            eject: EjectPolicy::Lru,
            copyout: CopyOutMode::Immediate,
            prefetch: PrefetchPolicy::None,
        }
    }
}

/// Counters for one migration drive.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MigrateStats {
    /// File blocks moved to tertiary segments.
    pub blocks: u64,
    /// Inodes moved.
    pub inodes: u64,
    /// Staging segments sealed.
    pub segments_sealed: u64,
    /// End-of-medium relocations performed.
    pub relocations: u64,
}

/// The assembled HighLight filesystem.
pub struct HighLight {
    lfs: Lfs,
    map: UniformMap,
    tio: Rc<TertiaryIo>,
    tseg: Rc<RefCell<TsegTable>>,
    cache: Rc<RefCell<SegCache>>,
    /// The staging segment currently being filled, if any.
    staging: Option<StagingSegment>,
    /// Sealed segments awaiting delayed copy-out, oldest first.
    copyout_queue: Vec<SegNo>,
    copyout: CopyOutMode,
    prefetch: PrefetchPolicy,
    hints: UnitHintMap,
    /// Per-file access-range records (§5.2 block-range policy fuel).
    pub tracker: AccessTracker,
    tsegfile_ino: Ino,
}

impl HighLight {
    /// The stack under the LFS, shared by `mkfs` and `mount`: the
    /// tertiary engine over an empty segment cache and tsegfile, and the
    /// block-map device and accounting hooks the LFS sits on.
    fn assemble(
        disks: Rc<dyn BlockDev>,
        jukebox: Rc<dyn Footprint>,
        cfg: &HlConfig,
    ) -> (UniformMap, Rc<TertiaryIo>, Rc<dyn BlockDev>, Rc<TsegHooks>) {
        let bps = cfg.lfs.blocks_per_seg();
        let boot = hl_lfs::fs::BOOT_BLOCKS;
        let map = UniformMap::new(
            boot,
            bps,
            ((disks.nblocks() - boot as u64) / bps as u64) as u32,
            jukebox.volumes(),
            jukebox.segments_per_volume(),
        );
        let tseg = Rc::new(RefCell::new(TsegTable::new()));
        let cache = Rc::new(RefCell::new(SegCache::new(Vec::new(), cfg.eject)));
        let tio = Rc::new(TertiaryIo::new(
            map,
            jukebox,
            disks.clone(),
            cache,
            tseg.clone(),
        ));
        let dev = Rc::new(BlockMapDev::new(disks, map, tio.clone()));
        (map, tio, dev, Rc::new(TsegHooks { table: tseg }))
    }

    /// Formats a fresh HighLight filesystem across `disks` and `jukebox`.
    pub fn mkfs(disks: Rc<dyn BlockDev>, jukebox: Rc<dyn Footprint>, cfg: HlConfig) -> Result<()> {
        let (map, _tio, dev, hooks) = Self::assemble(disks, jukebox, &cfg);
        Lfs::mkfs(dev.clone(), Rc::new(map), hooks.clone(), cfg.lfs.clone())?;
        // Create the tsegfile so it exists from day one.
        let mut lfs = Lfs::mount(dev, Rc::new(map), hooks, cfg.lfs)?;
        lfs.create(TSEGFILE_PATH)?;
        lfs.checkpoint()?;
        Ok(())
    }

    /// Mounts an existing HighLight filesystem, rebuilding the segment
    /// cache directory from the ifile's tags and the tsegfile.
    pub fn mount(
        disks: Rc<dyn BlockDev>,
        jukebox: Rc<dyn Footprint>,
        cfg: HlConfig,
    ) -> Result<HighLight> {
        Ok(Self::mount_with_report(disks, jukebox, cfg)?.0)
    }

    /// [`HighLight::mount`], additionally returning what LFS recovery
    /// did (checkpoint serial, partials rolled forward) — the torture
    /// harness asserts on it after every injected crash.
    pub fn mount_with_report(
        disks: Rc<dyn BlockDev>,
        jukebox: Rc<dyn Footprint>,
        cfg: HlConfig,
    ) -> Result<(HighLight, RecoveryReport)> {
        let (map, tio, dev, hooks) = Self::assemble(disks, jukebox, &cfg);
        let (tseg, cache) = (tio.tseg(), tio.cache());
        let (mut lfs, report) =
            hl_lfs::recovery::mount_with_report(dev, Rc::new(map), hooks, cfg.lfs)?;

        // Restore the tsegfile.
        let tsegfile_ino = lfs.lookup(TSEGFILE_PATH)?;
        let size = lfs.stat(tsegfile_ino)?.size;
        if size >= 16 {
            let mut raw = vec![0u8; size as usize];
            lfs.read(tsegfile_ino, 0, &mut raw)?;
            *tseg.borrow_mut() = TsegTable::decode(&raw);
        }

        // Reconcile the tsegfile with the log's evidence: pointers to
        // tertiary addresses persist at every sync, but the tsegfile
        // (live bytes, volume cursors) only at checkpoint. After a crash
        // the cursors could lag and hand an already-referenced tertiary
        // segment to the next migration — silent cross-file aliasing.
        let (_, tert_refs) = lfs.audit_all_live()?;
        {
            let mut t = tseg.borrow_mut();
            t.reset_live(&tert_refs);
            for &seg in tert_refs.keys() {
                if let Some((vol, slot)) = map.vol_slot(seg) {
                    t.advance_cursor(vol, slot);
                }
            }
        }

        // The copy-out itself precedes the checkpoint, so a crash in
        // between leaves media that hold a segment the tsegfile does not
        // yet credit (`avail_bytes == 0`). Ask the media: a referenced
        // slot that reads back non-blank is a completed copy-out, and
        // accounting (and fsck) must treat it as such.
        {
            let seg_bytes = tio.jukebox().segment_bytes();
            let mut buf = vec![0u8; seg_bytes];
            let mut t = tseg.borrow_mut();
            for &seg in tert_refs.keys() {
                if let Some((vol, slot)) = map.vol_slot(seg) {
                    let u = t.seg_mut(seg);
                    if u.avail_bytes == 0
                        && tio.jukebox().peek_segment(vol, slot, &mut buf).is_ok()
                        && buf.iter().any(|&b| b != 0)
                    {
                        u.avail_bytes = seg_bytes as u32;
                    }
                }
            }
        }

        // Rebuild the cache directory from the per-segment tags (§6.4).
        // Tags are only persisted at checkpoint, so a tag can be *stale*
        // after a crash: the line may have been ejected and reused since.
        // Trust a tag only if the disk copy still matches its tertiary
        // home byte-for-byte; otherwise return the segment to the pool
        // (demand fetch will repopulate it).
        {
            let seg_bytes = tio.jukebox().segment_bytes();
            let mut disk_buf = vec![0u8; seg_bytes];
            let mut tert_buf = vec![0u8; seg_bytes];
            let disks = tio.disks_handle();
            let mut c = cache.borrow_mut();
            for (disk_seg, tag, fetch_time) in lfs.cache_segments() {
                if tag != UNASSIGNED {
                    let verified = match map.vol_slot(tag) {
                        Some((vol, slot)) => {
                            let base = map.seg_base(disk_seg);
                            let ok_disk = (0..map.blocks_per_seg).all(|i| {
                                let off = i as usize * BLOCK_SIZE;
                                disks
                                    .peek(u64::from(base + i), &mut disk_buf[off..off + BLOCK_SIZE])
                                    .is_ok()
                            });
                            match tio.jukebox().peek_segment(vol, slot, &mut tert_buf) {
                                // Media unreadable: the cached copy may be
                                // the only one left — keep it.
                                Err(_) => true,
                                Ok(()) => ok_disk && disk_buf == tert_buf,
                            }
                        }
                        None => false,
                    };
                    if verified {
                        c.restore_line(disk_seg, tag, fetch_time);
                    } else {
                        c.add_pool(disk_seg);
                    }
                } else {
                    c.add_pool(disk_seg);
                }
            }
            // Claim the rest of the static allowance up front: demand
            // fetches happen underneath the filesystem (inside the
            // block-map driver) where no new lines can be claimed.
            while let Some(seg) = lfs.claim_cache_segment() {
                c.add_pool(seg);
            }
        }

        Ok((
            HighLight {
                lfs,
                map,
                tio,
                tseg,
                cache,
                staging: None,
                copyout_queue: Vec::new(),
                copyout: cfg.copyout,
                prefetch: cfg.prefetch,
                hints: UnitHintMap::default(),
                tracker: AccessTracker::default(),
                tsegfile_ino,
            },
            report,
        ))
    }

    // -----------------------------------------------------------------
    // Plumbing accessors.
    // -----------------------------------------------------------------

    /// The underlying LFS (for cleaner control, stats, raw calls).
    pub fn lfs(&mut self) -> &mut Lfs {
        &mut self.lfs
    }

    /// The uniform address map.
    pub fn map(&self) -> UniformMap {
        self.map
    }

    /// The tertiary I/O engine (phase timings, service stats).
    pub fn tio(&self) -> Rc<TertiaryIo> {
        self.tio.clone()
    }

    /// The tertiary segment table.
    pub fn tseg(&self) -> Rc<RefCell<TsegTable>> {
        self.tseg.clone()
    }

    /// The segment cache.
    pub fn cache(&self) -> Rc<RefCell<SegCache>> {
        self.cache.clone()
    }

    /// The shared clock.
    pub fn clock(&self) -> hl_sim::Clock {
        self.lfs.clock()
    }

    fn now(&self) -> SimTime {
        self.lfs.clock().now()
    }

    // -----------------------------------------------------------------
    // The "normal filesystem" surface (§4).
    // -----------------------------------------------------------------

    /// Resolves a path.
    pub fn lookup(&mut self, path: &str) -> Result<Ino> {
        self.lfs.lookup(path)
    }

    /// Creates a file.
    pub fn create(&mut self, path: &str) -> Result<Ino> {
        let ino = self.lfs.create(path)?;
        // The inode number may be a just-unlinked file's: its access
        // record must not pass to the new file.
        self.tracker.forget(ino);
        Ok(ino)
    }

    /// Creates a directory.
    pub fn mkdir(&mut self, path: &str) -> Result<Ino> {
        let ino = self.lfs.mkdir(path)?;
        self.tracker.forget(ino);
        Ok(ino)
    }

    /// Removes a file.
    pub fn unlink(&mut self, path: &str) -> Result<()> {
        self.lfs.unlink(path)
    }

    /// Removes an empty directory.
    pub fn rmdir(&mut self, path: &str) -> Result<()> {
        self.lfs.rmdir(path)
    }

    /// Renames.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<()> {
        self.lfs.rename(from, to)
    }

    /// Lists a directory.
    pub fn readdir(&mut self, path: &str) -> Result<Vec<DirEntry>> {
        self.lfs.readdir(path)
    }

    /// `stat`.
    pub fn stat(&mut self, ino: Ino) -> Result<Stat> {
        self.lfs.stat(ino)
    }

    /// Reads file data. Tertiary-resident blocks demand-fetch their
    /// containing segments transparently; the prefetch policy may pull
    /// neighbours in too.
    pub fn read(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let fetches_before = self.tio.demand_fetches();
        let n = self.lfs.read(ino, offset, buf)?;
        self.tracker.record(ino, offset, n as u64, self.now());
        if self.tio.demand_fetches() > fetches_before {
            self.run_prefetch()?;
        }
        Ok(n)
    }

    /// Writes file data (always to the disk log: "any changes are
    /// appended to the LFS log in the normal fashion", §4).
    pub fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> Result<()> {
        self.lfs.write(ino, offset, data)?;
        self.tracker
            .record(ino, offset, data.len() as u64, self.now());
        Ok(())
    }

    /// Truncates.
    pub fn truncate(&mut self, ino: Ino, size: u64) -> Result<()> {
        self.lfs.truncate(ino, size)
    }

    /// Flushes dirty state to the disk log.
    ///
    /// Any open staging segment is sealed and copied out *first*: the
    /// log flush makes repointed tertiary block pointers durable, and a
    /// pointer must never out-live its data across a crash — if the
    /// machine dies after this sync, the tertiary addresses it persisted
    /// already resolve to media contents.
    pub fn sync(&mut self) -> Result<()> {
        self.flush_staging()?;
        self.lfs.sync()
    }

    /// Seals the open staging segment (if any) and forces every pending
    /// copy-out to the media, so no durable pointer can reference a
    /// tertiary segment that exists only in volatile cache-directory
    /// state. Called before every log flush and checkpoint.
    fn flush_staging(&mut self) -> Result<()> {
        let mut stats = MigrateStats::default();
        self.seal_staging(&mut stats)?;
        self.drain_copyouts()?;
        Ok(())
    }

    /// Drops clean caches (benchmarking, §7.1).
    pub fn drop_caches(&mut self) {
        self.lfs.drop_caches();
    }

    /// Checkpoint: persists the tsegfile, the cache-directory tags, and
    /// the LFS checkpoint itself.
    pub fn checkpoint(&mut self) -> Result<()> {
        // Make the hierarchy checkpoint-consistent first: seal and copy
        // out staging state so every line whose tag we persist is backed
        // by tertiary media (a crash must find no pointer whose data
        // exist only in the volatile cache directory).
        self.flush_staging()?;
        // Cache tags into the ifile's segment table.
        let lines: Vec<(SegNo, SegNo, SimTime)> = self
            .cache
            .borrow()
            .lines()
            .map(|l| (l.disk_seg, l.tert_seg, l.fetched_at))
            .collect();
        let tagged: std::collections::HashSet<SegNo> = lines.iter().map(|&(d, _, _)| d).collect();
        for (disk_seg, tag, _) in self.lfs.cache_segments() {
            if !tagged.contains(&disk_seg) && tag != UNASSIGNED {
                self.lfs.set_cache_tag(disk_seg, UNASSIGNED, 0);
            }
        }
        for (disk_seg, tert_seg, fetched) in lines {
            self.lfs.set_cache_tag(disk_seg, tert_seg, fetched);
        }
        // Tsegfile contents.
        let raw = self.tseg.borrow().encode();
        self.lfs.truncate(self.tsegfile_ino, 0)?;
        self.lfs.write(self.tsegfile_ino, 0, &raw)?;
        self.lfs.checkpoint()
    }

    // -----------------------------------------------------------------
    // Cache and prefetch management.
    // -----------------------------------------------------------------

    /// Makes sure the cache can take one more line, claiming a clean disk
    /// segment (lazy warm-up toward the static limit) when needed.
    /// Returns `false` if no line can be made available.
    fn ensure_line_available(&mut self) -> bool {
        {
            let c = self.cache.borrow();
            if c.has_free() || c.has_evictable() {
                return true;
            }
        }
        match self.lfs.claim_cache_segment() {
            Some(seg) => {
                self.cache.borrow_mut().add_pool(seg);
                true
            }
            None => false,
        }
    }

    fn run_prefetch(&mut self) -> Result<()> {
        // Identify the last segment fetched: the most recently filled
        // line, the larger segment on a tie. Prefetch its neighbours per
        // policy.
        let last = self
            .cache
            .borrow()
            .lines()
            .max_by_key(|l| (l.fetched_at, l.tert_seg))
            .map(|l| l.tert_seg);
        let Some(seed) = last else { return Ok(()) };
        let targets = prefetch_targets(&self.prefetch, &self.map, &self.hints, seed);
        let mut queued = 0usize;
        for seg in targets {
            if self.cache.borrow().peek(seg).is_some() {
                continue;
            }
            // Only fetch segments that hold live data.
            if self.tseg.borrow().seg(seg).live_bytes == 0 {
                continue;
            }
            if !self.ensure_line_available() {
                break;
            }
            // The service/I/O processes fetch asynchronously (§6.2: they
            // "may choose unilaterally to ... insert new segments into
            // the cache"): the jukebox drive is booked from `now`, the
            // line becomes readable at its `ready_at`, and the
            // application's clock does not block on it. All targets are
            // queued first, so the service process orders the batch.
            let now = self.now();
            let _ = self.tio.enqueue_prefetch(now, seg);
            queued += 1;
        }
        if queued > 0 {
            crate::prefetch::trace_batch(&self.tio.tracer(), self.now(), seed, queued);
            self.tio.pump();
        }
        Ok(())
    }

    /// Ejects a cached tertiary segment (unilateral ejection, §6.2).
    pub fn eject(&mut self, tert_seg: SegNo) -> bool {
        // The disk segment's tag is cleared at the next checkpoint.
        self.tio.eject(tert_seg)
    }

    /// Ejects every clean cached line in ascending tertiary-segment order
    /// (benchmark setup for the uncached access-delay measurements,
    /// Table 3).
    pub fn eject_all(&mut self) {
        let mut segs: Vec<SegNo> = self
            .cache
            .borrow()
            .lines()
            .filter(|l| l.state == LineState::Clean)
            .map(|l| l.tert_seg)
            .collect();
        segs.sort_unstable();
        for s in segs {
            self.tio.eject(s);
        }
    }

    // -----------------------------------------------------------------
    // Migration mechanism driving (§6.2).
    // -----------------------------------------------------------------

    /// Picks (creating if needed) the staging segment, allocating its
    /// tertiary address and disk cache line.
    fn ensure_staging(&mut self) -> Result<SegNo> {
        if let Some(st) = &self.staging {
            return Ok(st.seg);
        }
        let seg = self.pick_staging_segment()?;
        if !self.ensure_line_available() {
            return Err(LfsError::NoSpace);
        }
        let now = self.now();
        self.cache
            .borrow_mut()
            .allocate(seg, LineState::Staging, now)
            .ok_or(LfsError::NoSpace)?;
        self.staging = Some(StagingSegment::new(seg));
        Ok(seg)
    }

    /// Chooses the next tertiary segment to fill: "media are currently
    /// consumed one at a time by the migration process" (§6.5).
    fn pick_staging_segment(&mut self) -> Result<SegNo> {
        let tseg = self.tseg.borrow();
        for vol in 0..self.map.volumes {
            let v = tseg.volume(vol);
            if v.full {
                continue;
            }
            if v.next_slot < self.map.segs_per_volume {
                return Ok(self.map.tert_seg(vol, v.next_slot));
            }
        }
        Err(LfsError::NoSpace)
    }

    /// Migrates the given items, sealing and copying out staging
    /// segments as they fill. An optional `unit` labels the data for
    /// unit-hint prefetching (§5.3).
    pub fn migrate_items(
        &mut self,
        items: &[MigrateItem],
        unit: Option<u32>,
    ) -> Result<MigrateStats> {
        self.migrate_items_opts(items, unit, false)
    }

    /// [`HighLight::migrate_items`], optionally taking tertiary-resident
    /// sources too (the tertiary cleaner's consolidation path, §10).
    pub(crate) fn migrate_items_opts(
        &mut self,
        items: &[MigrateItem],
        unit: Option<u32>,
        allow_tertiary_src: bool,
    ) -> Result<MigrateStats> {
        let mut stats = MigrateStats::default();
        let mut rest = items;
        while !rest.is_empty() {
            let seg = self.ensure_staging()?;
            if let Some(u) = unit {
                self.hints.record(seg, u);
            }
            let mut st = self.staging.take().expect("ensured");
            let report = self.lfs.migratev(&mut st, rest, allow_tertiary_src)?;
            self.staging = Some(st);
            stats.blocks += report.blocks_moved as u64;
            stats.inodes += report.inodes_moved as u64;
            rest = &rest[report.consumed..];
            {
                let mut t = self.tseg.borrow_mut();
                let u = t.seg_mut(seg);
                u.write_serial = u.write_serial.max(1);
            }
            if report.segment_full {
                self.seal_staging(&mut stats)?;
            } else if report.consumed == 0 {
                // Nothing consumable remains (all unstable/missing).
                break;
            }
        }
        Ok(stats)
    }

    /// Migrates a whole file (data, indirect blocks, and optionally the
    /// inode): the paper's current whole-file mechanism (§5.1, §6.7).
    pub fn migrate_file(
        &mut self,
        path: &str,
        include_inode: bool,
        unit: Option<u32>,
    ) -> Result<MigrateStats> {
        let ino = self.lfs.lookup(path)?;
        // Stability first: flush any pending dirty state of this file
        // (through the façade, so staging from an earlier migration is
        // sealed before its pointers go durable).
        self.sync()?;
        let items = self.lfs.whole_file_items(ino, include_inode)?;
        self.migrate_items(&items, unit)
    }

    /// Seals the current staging segment and schedules its copy-out.
    pub fn seal_staging(&mut self, stats: &mut MigrateStats) -> Result<()> {
        let Some(st) = self.staging.take() else {
            return Ok(());
        };
        if st.next_off == 0 {
            // Nothing was ever written; return the line.
            self.cache.borrow_mut().eject(st.seg);
            return Ok(());
        }
        self.cache
            .borrow_mut()
            .set_state(st.seg, LineState::DirtyWait);
        stats.segments_sealed += 1;
        // Advance the volume cursor past this slot and stamp the
        // volume's write recency (the cost-benefit age clock: a volume
        // whose last_serial lags far behind the log is cold).
        if let Some((vol, slot)) = self.map.vol_slot(st.seg) {
            let serial = self.lfs.log_serial();
            let mut t = self.tseg.borrow_mut();
            t.advance_cursor(vol, slot);
            let v = t.volume_mut(vol);
            v.last_serial = v.last_serial.max(serial);
        }
        match self.copyout {
            CopyOutMode::Immediate => self.copy_out_now(st.seg, stats)?,
            CopyOutMode::Delayed => {
                self.copyout_queue.push(st.seg);
                // "If no such idle period arises ... this policy consumes
                // some extra reserved disk space" — bound it.
                while self.copyout_queue.len() > COPYOUT_PIPELINE {
                    let oldest = self.copyout_queue.remove(0);
                    self.copy_out_now(oldest, stats)?;
                }
            }
        }
        Ok(())
    }

    /// Copies all queued (delayed) segments out — the "later idle period
    /// when there will be no contention for the disk drive arm" (§5.4).
    ///
    /// The whole batch enters the service process's request queue before
    /// the engine runs, so ordering and device-queue residency are the
    /// engine's business; only end-of-medium relocation (a filesystem
    /// concern: metadata must be repointed) is handled here per ticket.
    pub fn drain_copyouts(&mut self) -> Result<u32> {
        let mut stats = MigrateStats::default();
        let queue = std::mem::take(&mut self.copyout_queue);
        let n = queue.len() as u32;
        let now = self.now();
        let tickets: Vec<(SegNo, Ticket)> = queue
            .into_iter()
            .map(|seg| (seg, self.tio.enqueue_copy_out(now, seg)))
            .collect();
        self.tio.pump();
        for (seg, ticket) in tickets {
            self.finish_copy_out(seg, ticket.copyout_result(), &mut stats)?;
        }
        Ok(n)
    }

    /// Performs a copy-out, handling end-of-medium relocation (§6.3).
    fn copy_out_now(&mut self, seg: SegNo, stats: &mut MigrateStats) -> Result<()> {
        let first = self.tio.copy_out(self.now(), seg);
        self.finish_copy_out(seg, first, stats)
    }

    /// Settles one copy-out of `seg`: on end-of-medium the volume is
    /// full (tio marked it), so the staging line is relocated to the
    /// next volume's first free slot and copied out from there.
    fn finish_copy_out(
        &mut self,
        mut seg: SegNo,
        mut outcome: std::result::Result<SimTime, DevError>,
        stats: &mut MigrateStats,
    ) -> Result<()> {
        for _attempt in 0..=self.map.volumes {
            match outcome {
                Ok(end) => {
                    self.lfs.clock().advance_to(end);
                    return Ok(());
                }
                Err(DevError::EndOfMedium { .. }) => {
                    let new_seg = self.pick_staging_segment()?;
                    self.relocate_sealed(seg, new_seg)?;
                    stats.relocations += 1;
                    seg = new_seg;
                    outcome = self.tio.copy_out(self.now(), seg);
                }
                Err(e) => return Err(e.into()),
            }
        }
        Err(LfsError::NoSpace)
    }

    /// Moves a sealed staging line to a different tertiary segment
    /// number, patching all metadata.
    fn relocate_sealed(&mut self, old_seg: SegNo, new_seg: SegNo) -> Result<()> {
        // Read the image straight off the line's disk segment (untimed;
        // the timed cost is the rewrite below).
        let line = self
            .cache
            .borrow()
            .peek(old_seg)
            .copied()
            .ok_or(LfsError::Invalid("relocating a non-resident segment"))?;
        let mut image = vec![0u8; self.map.blocks_per_seg as usize * BLOCK_SIZE];
        self.tio
            .disks_handle()
            .peek(self.map.seg_base(line.disk_seg) as u64, &mut image)?;
        self.cache.borrow_mut().rekey(old_seg, new_seg);
        self.lfs
            .relocate_tertiary_segment(&mut image, old_seg, new_seg)?;
        // Volume cursor for the new home.
        if let Some((vol, slot)) = self.map.vol_slot(new_seg) {
            self.tseg.borrow_mut().advance_cursor(vol, slot);
        }
        Ok(())
    }

    /// Simulated-time helper for benches: total live tertiary bytes.
    pub fn tertiary_live_bytes(&self) -> u64 {
        self.tseg.borrow().live_total()
    }
}
