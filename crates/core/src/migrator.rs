//! The migrator: policy-driven selection of data to move downhill (§5).
//!
//! "The migrator process periodically examines the collection of on-disk
//! file blocks, and decides (based upon some policy) which file data
//! blocks and/or metadata blocks should be migrated to a tertiary
//! volume" (§6.2). "The current migrator in fact uses STP with exponents
//! of 1 for the file size and access times" (§5.1).
//!
//! Five policies are implemented — three from the paper and two modern
//! extensions (DESIGN.md §6i):
//!
//! - [`StpPolicy`] — weighted space-time product over whole files (§5.1);
//! - [`NamespacePolicy`] — subtree units with a unitsize-time product and
//!   the mostly-dormant secondary criterion (§5.3);
//! - [`BlockRangePolicy`] — sub-file migration of cold block ranges,
//!   driven by the access-extent records (§5.2);
//! - [`GenerationalPolicy`] — hot/cold generational separation fed by the
//!   [`AccessTracker`]: hot files are withheld entirely, cold files are
//!   banded by age class and clustered per band (tiering-survey style
//!   promotion/demotion);
//! - [`AdaptiveThrottle`] — a wrapper that sheds migration work under
//!   fleet load so the migrator/cleaner's device traffic yields to
//!   demand fetches.

use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;

use hl_lfs::error::Result;
use hl_lfs::migrate::MigrateItem;
use hl_lfs::types::{FileKind, Ino, LBlock};
use hl_lfs::{Lfs, Ufs};
use hl_sim::time::SimTime;

use crate::fs::{HighLight, MigrateStats};

/// One contiguous accessed range of a file (§5.2: "keep track of access
/// ranges within a file, with the potential to resolve down to block
/// granularity ... files that are accessed sequentially and completely
/// have only a single record").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Extent {
    /// First block of the range.
    pub start: u32,
    /// One past the last block.
    pub end: u32,
    /// Last access to any block in the range.
    pub last_access: SimTime,
}

/// Per-file access-range records, maintained by the HighLight wrapper on
/// every read and write (the "mechanism-supplied and updated records of
/// file access sequentiality" of §5.2).
#[derive(Clone, Debug, Default)]
pub struct AccessTracker {
    files: HashMap<Ino, Vec<Extent>>,
    /// Granularity bound: at most this many extents per file; beyond it,
    /// adjacent extents are merged coarsest-first — "the dynamic nature
    /// of the granularity attempts to get the most benefit for the least
    /// overhead" (§5.2).
    pub max_extents: usize,
}

impl AccessTracker {
    /// Two accesses within this window share one timestamp class when
    /// extents are coalesced.
    const SAME_EPOCH: SimTime = 1_000_000;

    /// Records an access of `len` bytes at `offset`.
    ///
    /// Overlapped extents are *split*, not swallowed: touching a few hot
    /// pages of a file must not refresh the timestamp of the whole-file
    /// load extent around them — that is the entire point of sub-file
    /// tracking (§5.2). Extents with similar timestamps coalesce, and a
    /// smallest-gap merge bounds the record count ("less information
    /// (coarser granularity) may result in worse decisions ... but
    /// consumes less overhead").
    pub fn record(&mut self, ino: Ino, offset: u64, len: u64, now: SimTime) {
        if len == 0 {
            return;
        }
        let bs = hl_vdev::BLOCK_SIZE as u64;
        let start = (offset / bs) as u32;
        let end = ((offset + len).div_ceil(bs)) as u32;
        let max = if self.max_extents == 0 {
            16
        } else {
            self.max_extents
        };
        let extents = self.files.entry(ino).or_default();

        // Split every overlapped extent around the new range.
        let mut out: Vec<Extent> = Vec::with_capacity(extents.len() + 2);
        for e in extents.drain(..) {
            if end <= e.start || start >= e.end {
                out.push(e);
                continue;
            }
            if e.start < start {
                out.push(Extent {
                    start: e.start,
                    end: start,
                    last_access: e.last_access,
                });
            }
            if e.end > end {
                out.push(Extent {
                    start: end,
                    end: e.end,
                    last_access: e.last_access,
                });
            }
        }
        out.push(Extent {
            start,
            end,
            last_access: now,
        });
        out.sort_by_key(|e| e.start);

        // Coalesce touching neighbours in the same timestamp class.
        let mut merged: Vec<Extent> = Vec::with_capacity(out.len());
        for e in out {
            match merged.last_mut() {
                Some(last)
                    if e.start <= last.end
                        && last.last_access.abs_diff(e.last_access) <= Self::SAME_EPOCH =>
                {
                    last.end = last.end.max(e.end);
                    last.last_access = last.last_access.max(e.last_access);
                }
                _ => merged.push(e),
            }
        }
        // Bound the record count (granularity/overhead tradeoff, §5.2).
        while merged.len() > max {
            let (idx, _) = merged
                .windows(2)
                .enumerate()
                .min_by_key(|(_, w)| w[1].start.saturating_sub(w[0].end))
                .expect("len > max >= 1");
            let right = merged.remove(idx + 1);
            let left = &mut merged[idx];
            left.end = left.end.max(right.end);
            left.last_access = left.last_access.max(right.last_access);
        }
        *extents = merged;
    }

    /// The recorded extents of a file.
    pub fn extents(&self, ino: Ino) -> &[Extent] {
        self.files.get(&ino).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Forgets a file (unlink).
    pub fn forget(&mut self, ino: Ino) {
        self.files.remove(&ino);
    }
}

/// A file surveyed by the tree walk.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Full path.
    pub path: String,
    /// Inode.
    pub ino: Ino,
    /// Size in bytes.
    pub size: u64,
    /// Last access (µs simulated).
    pub atime: SimTime,
    /// Last modification.
    pub mtime: SimTime,
    /// Top-level unit (first path component under the walk root).
    pub unit: String,
}

/// Walks the tree under `root` collecting regular files, "without
/// disturbing the access times" (§5.3) — directory listing does not
/// update atimes in this filesystem, matching BSD.
fn survey(fs: &mut Lfs, root: &str) -> Result<Vec<Candidate>> {
    let mut out = Vec::new();
    let mut stack = vec![(root.trim_end_matches('/').to_string(), String::new())];
    while let Some((dir, unit)) = stack.pop() {
        let entries = fs.readdir(if dir.is_empty() { "/" } else { &dir })?;
        for e in entries {
            if e.name == "." || e.name == ".." {
                continue;
            }
            let path = format!("{dir}/{}", e.name);
            let this_unit = if unit.is_empty() {
                e.name.clone()
            } else {
                unit.clone()
            };
            match e.kind {
                FileKind::Directory => stack.push((path, this_unit)),
                FileKind::Regular => {
                    // The special files stay on disk (§6.4).
                    if path == crate::fs::TSEGFILE_PATH {
                        continue;
                    }
                    let st = fs.stat(e.ino)?;
                    out.push(Candidate {
                        path,
                        ino: e.ino,
                        size: st.size,
                        atime: st.atime,
                        mtime: st.mtime,
                        unit: this_unit,
                    });
                }
            }
        }
    }
    Ok(out)
}

/// A migration policy: orders candidates and produces migration items.
pub trait MigrationPolicy {
    /// Selects what to migrate, up to roughly `target_bytes`. Returns
    /// `(items, unit label)` batches to feed the mechanism.
    fn select(
        &mut self,
        fs: &mut Lfs,
        tracker: &AccessTracker,
        now: SimTime,
        target_bytes: u64,
    ) -> Result<Vec<(Vec<MigrateItem>, Option<u32>)>>;

    /// Policy name for reports.
    fn name(&self) -> &'static str;
}

/// §5.1: weighted space-time product. "They recommend using a weighted
/// space-time product (STP) ranking metric, taking the time since last
/// access, raised to a small power (possibly 1), times file size raised
/// to a small power (possibly 1)."
pub struct StpPolicy {
    /// Exponent on file size.
    pub size_exp: f64,
    /// Exponent on time since last access.
    pub age_exp: f64,
    /// Whether inodes migrate with their files (§8.2 discusses keeping
    /// metadata on disk for reliability).
    pub migrate_inodes: bool,
    /// Walk root.
    pub root: String,
}

impl StpPolicy {
    /// The paper's current migrator: both exponents 1, metadata
    /// migrated.
    pub fn paper() -> StpPolicy {
        StpPolicy {
            size_exp: 1.0,
            age_exp: 1.0,
            migrate_inodes: true,
            root: "/".to_string(),
        }
    }

    /// STP score of a candidate.
    pub fn score(&self, c: &Candidate, now: SimTime) -> f64 {
        let age = now.saturating_sub(c.atime.max(c.mtime)) as f64 + 1.0;
        (c.size as f64 + 1.0).powf(self.size_exp) * age.powf(self.age_exp)
    }
}

impl MigrationPolicy for StpPolicy {
    fn select(
        &mut self,
        fs: &mut Lfs,
        _tracker: &AccessTracker,
        now: SimTime,
        target_bytes: u64,
    ) -> Result<Vec<(Vec<MigrateItem>, Option<u32>)>> {
        let mut cands = survey(fs, &self.root)?;
        cands.sort_by(|a, b| self.score(b, now).total_cmp(&self.score(a, now)));
        let mut out = Vec::new();
        let mut bytes = 0;
        for c in cands {
            if bytes >= target_bytes {
                break;
            }
            let items = fs.whole_file_items(c.ino, self.migrate_inodes)?;
            bytes += c.size;
            out.push((items, None));
        }
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "space-time product"
    }
}

/// §5.3: namespace units. "A file namespace can identify these
/// collections of 'related' files (units); such directory trees or
/// sub-trees can be migrated to tertiary storage together. ... The
/// space-time metric then becomes a 'unitsize'-time product, where
/// unitsize is the aggregate size of all the component files, and
/// time-since-last-access is the minimum over the files considered."
pub struct NamespacePolicy {
    /// Walk root; units are its immediate subtrees.
    pub root: String,
    /// §5.3's secondary criterion: if at most this fraction of a unit's
    /// bytes is active, ignore the active files' access times ("ignoring
    /// access times on the most-recently-accessed file if it has not been
    /// modified recently. This enables migration of units containing
    /// mostly-dormant files.").
    pub dormant_fraction: f64,
    /// A file is "active" if accessed within this window.
    pub active_window: SimTime,
    /// Migrate metadata with the unit.
    pub migrate_inodes: bool,
    /// Unit-path interner: a stable integer id per unit, assigned in
    /// first-seen order and kept across passes. Grouping then works on
    /// ids (one `Vec` index per file) instead of hashing and cloning
    /// the unit `String` per candidate per pass — and score ties break
    /// on first-seen order rather than `HashMap` iteration order, so
    /// selection is deterministic across processes.
    unit_ids: HashMap<String, u32>,
    /// Interned unit paths, indexed by id.
    unit_names: Vec<String>,
    /// Reusable per-pass grouping scratch, indexed by unit id; holds
    /// candidate indices. Cleared (not freed) every pass.
    groups: Vec<Vec<usize>>,
}

impl NamespacePolicy {
    /// Sensible defaults for a software-tree workload.
    pub fn new(root: &str) -> NamespacePolicy {
        NamespacePolicy {
            root: root.to_string(),
            dormant_fraction: 0.1,
            active_window: hl_sim::time::secs(3600.0),
            migrate_inodes: true,
            unit_ids: HashMap::new(),
            unit_names: Vec::new(),
            groups: Vec::new(),
        }
    }

    /// The interned id for `unit`, assigning the next one on first use.
    fn intern_unit(&mut self, unit: &str) -> u32 {
        match self.unit_ids.get(unit) {
            Some(&id) => id,
            None => {
                let id = self.unit_names.len() as u32;
                self.unit_ids.insert(unit.to_string(), id);
                self.unit_names.push(unit.to_string());
                id
            }
        }
    }
}

impl MigrationPolicy for NamespacePolicy {
    fn select(
        &mut self,
        fs: &mut Lfs,
        _tracker: &AccessTracker,
        now: SimTime,
        target_bytes: u64,
    ) -> Result<Vec<(Vec<MigrateItem>, Option<u32>)>> {
        let cands = survey(fs, &self.root)?;
        // Group into units on interned integer ids, reusing the
        // per-pass scratch lists (no per-candidate String hash/clone).
        for g in &mut self.groups {
            g.clear();
        }
        let mut touched: Vec<u32> = Vec::new(); // ids seen this pass, first-seen order
        for (ci, c) in cands.iter().enumerate() {
            let id = self.intern_unit(&c.unit);
            if self.groups.len() <= id as usize {
                self.groups.resize_with(id as usize + 1, Vec::new);
            }
            let g = &mut self.groups[id as usize];
            if g.is_empty() {
                touched.push(id);
            }
            g.push(ci);
        }
        // Score each unit, in first-seen id order — score ties therefore
        // break deterministically (the stable sort below keeps this
        // order), where the old `HashMap<String, _>` grouping broke them
        // on hash-iteration order.
        let mut scored: Vec<(f64, u32)> = Vec::new();
        for &id in &touched {
            let files = &self.groups[id as usize];
            let total: u64 = files.iter().map(|&i| cands[i].size).sum();
            if total == 0 {
                continue;
            }
            let active: u64 = files
                .iter()
                .map(|&i| &cands[i])
                .filter(|c| now.saturating_sub(c.atime.max(c.mtime)) < self.active_window)
                .map(|c| c.size)
                .sum();
            let mostly_dormant = (active as f64) <= self.dormant_fraction * total as f64;
            // Unstable (recently *modified*) units should not migrate
            // unless dormant-dominated (§5.3).
            let newest_mtime = files.iter().map(|&i| cands[i].mtime).max().unwrap_or(0);
            if now.saturating_sub(newest_mtime) < self.active_window && !mostly_dormant {
                continue;
            }
            let age = if mostly_dormant {
                // Ignore the freshest access times: use the *median*-ish
                // dormant age (min over the dormant files).
                files
                    .iter()
                    .map(|&i| &cands[i])
                    .filter(|c| now.saturating_sub(c.atime.max(c.mtime)) >= self.active_window)
                    .map(|c| now.saturating_sub(c.atime.max(c.mtime)))
                    .min()
                    .unwrap_or(0)
            } else {
                files
                    .iter()
                    .map(|&i| &cands[i])
                    .map(|c| now.saturating_sub(c.atime.max(c.mtime)))
                    .min()
                    .unwrap_or(0)
            };
            scored.push((total as f64 * (age as f64 + 1.0), id));
        }
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));

        // Emit unit batches; cluster each unit's files together so they
        // land in neighbouring segments (§5.3: "migrated units should
        // then be clustered").
        let mut out = Vec::new();
        let mut bytes = 0u64;
        for (uid, &(_, id)) in scored.iter().enumerate() {
            if bytes >= target_bytes {
                break;
            }
            let mut items = Vec::new();
            let mut files: Vec<&Candidate> = self.groups[id as usize]
                .iter()
                .map(|&i| &cands[i])
                .collect();
            files.sort_by(|a, b| a.path.cmp(&b.path));
            for c in files {
                items.extend(fs.whole_file_items(c.ino, self.migrate_inodes)?);
                bytes += c.size;
            }
            out.push((items, Some(uid as u32)));
        }
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "namespace units"
    }
}

/// §5.2: block ranges. "Block-based migration can be useful, since it
/// allows old, unreferenced data within a file to migrate to tertiary
/// storage while active data in the same file remain on secondary
/// storage."
pub struct BlockRangePolicy {
    /// Ranges idle longer than this migrate.
    pub idle_threshold: SimTime,
    /// Walk root.
    pub root: String,
}

impl MigrationPolicy for BlockRangePolicy {
    fn select(
        &mut self,
        fs: &mut Lfs,
        tracker: &AccessTracker,
        now: SimTime,
        target_bytes: u64,
    ) -> Result<Vec<(Vec<MigrateItem>, Option<u32>)>> {
        let cands = survey(fs, &self.root)?;
        let bs = hl_vdev::BLOCK_SIZE as u64;
        let mut out = Vec::new();
        let mut bytes = 0u64;
        for c in &cands {
            if bytes >= target_bytes {
                break;
            }
            let nblocks = c.size.div_ceil(bs) as u32;
            if nblocks == 0 {
                continue;
            }
            let extents = tracker.extents(c.ino);
            let mut items = Vec::new();
            if extents.is_empty() {
                // Never-tracked file: whole-file by atime.
                if now.saturating_sub(c.atime.max(c.mtime)) >= self.idle_threshold {
                    items = fs.whole_file_items(c.ino, false)?;
                    bytes += c.size;
                }
            } else {
                // Migrate blocks of only the cold extents; untracked gaps
                // count as cold (never accessed since tracking began).
                let mut cold = vec![true; nblocks as usize];
                for e in extents {
                    if now.saturating_sub(e.last_access) < self.idle_threshold {
                        for b in e.start..e.end.min(nblocks) {
                            cold[b as usize] = false;
                        }
                    }
                }
                for (b, &is_cold) in cold.iter().enumerate() {
                    if is_cold {
                        items.push(MigrateItem::Block(c.ino, LBlock::Data(b as u32)));
                        bytes += bs;
                    }
                }
            }
            if !items.is_empty() {
                out.push((items, None));
            }
        }
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "block ranges"
    }
}

/// Hot/cold generational separation. The [`AccessTracker`]'s extent
/// timestamps (not just inode atimes — a single hot page keeps a file's
/// atime fresh while most of it is stone cold) classify every file into
/// *hot* (touched within `hot_window`: withheld from migration unless
/// the cold bands cannot meet the byte target) or one of
/// `generations` cold bands of doubling width. Cold bands migrate
/// coldest-first, and each band carries its own unit label so files that
/// cooled together are clustered onto neighbouring tertiary segments —
/// data that aged together will likely be recalled (or die) together,
/// which is the generational bet.
pub struct GenerationalPolicy {
    /// Walk root.
    pub root: String,
    /// Files touched within this window are hot and stay on disk.
    pub hot_window: SimTime,
    /// Number of cold age bands (band 0 = coldest).
    pub generations: u32,
    /// Migrate metadata with the files.
    pub migrate_inodes: bool,
}

impl GenerationalPolicy {
    /// Defaults: 10-minute hot window, 4 cold generations.
    pub fn new(root: &str) -> GenerationalPolicy {
        GenerationalPolicy {
            root: root.to_string(),
            hot_window: hl_sim::time::secs(600.0),
            generations: 4,
            migrate_inodes: true,
        }
    }

    /// The age band of a file last touched at `last_touch`: `None` for
    /// hot files, otherwise `Some(band)` with 0 the coldest. Band
    /// boundaries double: band `generations-1` covers `[w, 2w)`, the
    /// next `[2w, 4w)`, and so on, with everything older than the last
    /// boundary in band 0.
    pub fn generation(&self, last_touch: SimTime, now: SimTime) -> Option<u32> {
        let age = now.saturating_sub(last_touch);
        if age < self.hot_window {
            return None;
        }
        let mut band = self.generations.saturating_sub(1);
        let mut bound = self.hot_window.saturating_mul(2);
        while band > 0 && age >= bound {
            band -= 1;
            bound = bound.saturating_mul(2);
        }
        Some(band)
    }

    /// A file's last touch: the freshest tracked extent if any (sub-file
    /// truth), else the inode's `max(atime, mtime)`.
    fn last_touch(tracker: &AccessTracker, c: &Candidate) -> SimTime {
        tracker
            .extents(c.ino)
            .iter()
            .map(|e| e.last_access)
            .max()
            .unwrap_or_else(|| c.atime.max(c.mtime))
    }
}

impl MigrationPolicy for GenerationalPolicy {
    fn select(
        &mut self,
        fs: &mut Lfs,
        tracker: &AccessTracker,
        now: SimTime,
        target_bytes: u64,
    ) -> Result<Vec<(Vec<MigrateItem>, Option<u32>)>> {
        let cands = survey(fs, &self.root)?;
        // Band every cold candidate; hot files are withheld (but see the
        // pressure spill below).
        let mut bands: Vec<Vec<&Candidate>> = vec![Vec::new(); self.generations as usize];
        let mut hot: Vec<&Candidate> = Vec::new();
        for c in &cands {
            match self.generation(Self::last_touch(tracker, c), now) {
                Some(b) => bands[b as usize].push(c),
                None => hot.push(c),
            }
        }
        let mut out = Vec::new();
        let mut bytes = 0u64;
        for (band, files) in bands.iter_mut().enumerate() {
            if bytes >= target_bytes {
                break;
            }
            if files.is_empty() {
                continue;
            }
            // Within a band: oldest first, path as deterministic tie-break.
            files.sort_by(|a, b| {
                a.atime
                    .max(a.mtime)
                    .cmp(&b.atime.max(b.mtime))
                    .then_with(|| a.path.cmp(&b.path))
            });
            let mut items = Vec::new();
            for c in files.iter() {
                if bytes >= target_bytes {
                    break;
                }
                items.extend(fs.whole_file_items(c.ino, self.migrate_inodes)?);
                bytes += c.size;
            }
            if !items.is_empty() {
                out.push((items, Some(band as u32)));
            }
        }
        // Pressure spill: withholding hot files must never starve the
        // log. If the cold bands cannot meet the target, the
        // least-recently-touched hot files go too — unlabelled, since
        // they share no cooling cohort.
        if bytes < target_bytes && !hot.is_empty() {
            hot.sort_by(|a, b| {
                Self::last_touch(tracker, a)
                    .cmp(&Self::last_touch(tracker, b))
                    .then_with(|| a.path.cmp(&b.path))
            });
            let mut items = Vec::new();
            for c in hot {
                if bytes >= target_bytes {
                    break;
                }
                items.extend(fs.whole_file_items(c.ino, self.migrate_inodes)?);
                bytes += c.size;
            }
            if !items.is_empty() {
                out.push((items, None));
            }
        }
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "generational"
    }
}

/// Adaptive write-cost throttling (DESIGN.md §6i): wraps any policy and
/// scales its byte target by the current *fleet load* — a `[0, 1]`
/// signal the harness derives from recent demand activity. Under heavy
/// demand traffic, migration (and the cleaning it triggers) is
/// background work competing with clients for the same drives; shedding
/// it trades free-space headroom for client latency, down to a `floor`
/// fraction so the log can never wedge.
pub struct AdaptiveThrottle {
    /// The wrapped policy that does the actual selection.
    pub inner: Box<dyn MigrationPolicy>,
    /// Shared load signal, `0.0` (idle) to `1.0` (saturated).
    load: Rc<Cell<f64>>,
    /// Minimum fraction of the byte target that always survives.
    pub floor: f64,
}

impl AdaptiveThrottle {
    /// Wraps `inner` with a floor of 25 %.
    pub fn new(inner: Box<dyn MigrationPolicy>) -> AdaptiveThrottle {
        AdaptiveThrottle {
            inner,
            load: Rc::new(Cell::new(0.0)),
            floor: 0.25,
        }
    }

    /// The shared load signal; the harness holds a clone and writes the
    /// observed load into it between migrator steps.
    pub fn load_signal(&self) -> Rc<Cell<f64>> {
        self.load.clone()
    }

    /// The byte target that survives throttling at the current load.
    fn throttled_target(&self, target_bytes: u64) -> u64 {
        let load = self.load.get().clamp(0.0, 1.0);
        let frac = (1.0 - load).max(self.floor.clamp(0.0, 1.0));
        (target_bytes as f64 * frac) as u64
    }
}

impl MigrationPolicy for AdaptiveThrottle {
    fn select(
        &mut self,
        fs: &mut Lfs,
        tracker: &AccessTracker,
        now: SimTime,
        target_bytes: u64,
    ) -> Result<Vec<(Vec<MigrateItem>, Option<u32>)>> {
        let target = self.throttled_target(target_bytes);
        if target == 0 {
            return Ok(Vec::new());
        }
        self.inner.select(fs, tracker, now, target)
    }

    fn name(&self) -> &'static str {
        "adaptive-throttle"
    }
}

/// The migration daemon: runs a policy when disk space runs low
/// ("HighLight ... allows a migrator process to run continuously,
/// monitoring storage needs and migrating file data as required", §8.2).
pub struct Migrator {
    /// The policy in force.
    pub policy: Box<dyn MigrationPolicy>,
    /// Start migrating when clean segments drop below this.
    pub low_water_segs: u32,
    /// Migrate until clean segments reach this.
    pub high_water_segs: u32,
}

impl Migrator {
    /// A migrator with the paper's STP policy.
    pub fn stp() -> Migrator {
        Migrator::with_policy(Box::new(StpPolicy::paper()))
    }

    /// A migrator with the default watermarks and the given policy.
    pub fn with_policy(policy: Box<dyn MigrationPolicy>) -> Migrator {
        Migrator {
            policy,
            low_water_segs: 8,
            high_water_segs: 16,
        }
    }

    /// One monitoring step: migrates (and cleans) if below the low-water
    /// mark. Returns what moved.
    pub fn run_once(&mut self, hl: &mut HighLight) -> Result<MigrateStats> {
        let clean = hl.lfs().clean_segs();
        if clean >= self.low_water_segs {
            return Ok(MigrateStats::default());
        }
        let deficit_bytes = (self.high_water_segs.saturating_sub(clean)) as u64 * (1 << 20);
        hl.tio().tracer().mark(
            hl.clock().now(),
            format!("migrate pass deficit {deficit_bytes}"),
        );
        let stats = self.migrate_bytes(hl, deficit_bytes)?;
        // Vacated segments become clean up to the high-water mark.
        hl.lfs().clean_until(self.high_water_segs)?;
        Ok(stats)
    }

    /// Migrates roughly `target_bytes` of the policy's best candidates,
    /// then lets the cleaner reclaim the vacated disk segments.
    pub fn migrate_bytes(&mut self, hl: &mut HighLight, target_bytes: u64) -> Result<MigrateStats> {
        let now = hl.clock().now();
        let tracker = hl.tracker.clone();
        let batches = self.policy.select(hl.lfs(), &tracker, now, target_bytes)?;
        let items: usize = batches.iter().map(|(b, _)| b.len()).sum();
        hl.tio().tracer().policy_decision(
            now,
            self.policy.name(),
            &format!("select batches {} items {items}", batches.len()),
        );
        let mut total = MigrateStats::default();
        for (items, unit) in batches {
            let s = hl.migrate_items(&items, unit)?;
            total.blocks += s.blocks;
            total.inodes += s.inodes;
            total.segments_sealed += s.segments_sealed;
            total.relocations += s.relocations;
        }
        // Seal the tail so the data reach tertiary storage.
        let mut tail = MigrateStats::default();
        hl.seal_staging(&mut tail)?;
        total.segments_sealed += tail.segments_sealed;
        total.relocations += tail.relocations;
        // Vacated segments become clean.
        let target = hl.lfs().clean_segs() + 4;
        hl.lfs().clean_until(target)?;
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_coalesces_sequential_access() {
        let mut t = AccessTracker::default();
        t.record(1, 0, 8192, 10);
        t.record(1, 8192, 8192, 20);
        assert_eq!(
            t.extents(1),
            &[Extent {
                start: 0,
                end: 4,
                last_access: 20
            }]
        );
    }

    #[test]
    fn tracker_keeps_disjoint_ranges_separate() {
        let mut t = AccessTracker::default();
        t.record(1, 0, 4096, 10);
        t.record(1, 40 * 4096, 4096, 20);
        assert_eq!(t.extents(1).len(), 2);
    }

    #[test]
    fn tracker_bounds_extent_count() {
        let mut t = AccessTracker {
            max_extents: 4,
            ..Default::default()
        };
        for i in 0..20u64 {
            t.record(1, i * 10 * 4096, 4096, i);
        }
        assert!(t.extents(1).len() <= 4, "{:?}", t.extents(1));
        // Coverage is preserved: first and last blocks are inside ranges.
        let ex = t.extents(1);
        assert_eq!(ex.first().unwrap().start, 0);
        assert_eq!(ex.last().unwrap().end, 191);
    }

    #[test]
    fn tracker_forget_clears_file() {
        let mut t = AccessTracker::default();
        t.record(3, 0, 1, 1);
        t.forget(3);
        assert!(t.extents(3).is_empty());
    }

    #[test]
    fn generational_bands_by_doubling_age() {
        let p = GenerationalPolicy {
            root: "/".to_string(),
            hot_window: 100,
            generations: 4,
            migrate_inodes: true,
        };
        let now = 10_000;
        assert_eq!(p.generation(now - 50, now), None, "hot stays put");
        assert_eq!(p.generation(now - 100, now), Some(3), "[w, 2w)");
        assert_eq!(p.generation(now - 250, now), Some(2), "[2w, 4w)");
        assert_eq!(p.generation(now - 500, now), Some(1), "[4w, 8w)");
        assert_eq!(p.generation(now - 900, now), Some(0), "oldest band");
        assert_eq!(p.generation(0, now), Some(0), "ancient is coldest");
    }

    #[test]
    fn adaptive_throttle_scales_target_down_to_its_floor() {
        let t = AdaptiveThrottle::new(Box::new(StpPolicy::paper()));
        assert_eq!(t.throttled_target(1000), 1000, "idle: full target");
        t.load_signal().set(0.5);
        assert_eq!(t.throttled_target(1000), 500);
        t.load_signal().set(1.0);
        assert_eq!(t.throttled_target(1000), 250, "floor holds at saturation");
        t.load_signal().set(7.0);
        assert_eq!(t.throttled_target(1000), 250, "out-of-range load clamps");
    }

    #[test]
    fn stp_score_orders_by_size_and_age() {
        let p = StpPolicy::paper();
        let mk = |size, atime| Candidate {
            path: String::new(),
            ino: 1,
            size,
            atime,
            mtime: 0,
            unit: String::new(),
        };
        let now = 1_000_000;
        let big_old = p.score(&mk(1 << 20, 0), now);
        let big_new = p.score(&mk(1 << 20, 999_000), now);
        let small_old = p.score(&mk(4096, 0), now);
        assert!(big_old > big_new);
        assert!(big_old > small_old);
        // With exponents (2, 1), size dominates harder.
        let p2 = StpPolicy {
            size_exp: 2.0,
            ..StpPolicy::paper()
        };
        assert!(p2.score(&mk(1 << 20, 999_000), now) > p2.score(&mk(4096, 0), now));
    }
}
