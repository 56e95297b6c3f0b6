//! The cleaner: segment garbage collection (§3).
//!
//! "A user-level process called the cleaner garbage collects free space
//! from dirty segments ... selects one or more dirty segments to be
//! cleaned, appends all valid data from those segments to the tail of the
//! log, and then marks those segments clean." The cleaner communicates
//! through the ifile (here: the in-core usage table, which the ifile
//! serializes) and the `lfs_bmapv` / `lfs_markv` system calls, both
//! exposed as methods so HighLight's migrator can reuse them (§6.7).

use hl_vdev::BLOCK_SIZE;

use crate::error::{LfsError, Result};
use crate::fs::Lfs;
use crate::migrate::MigrateItem;
use crate::ondisk::seg_flags;
use crate::partial;
use crate::types::{BlockAddr, Ino, LBlock, SegNo, UNASSIGNED};
use crate::ufs::Ufs;

/// Victim-selection policy, shared by the two reclaimers in the
/// hierarchy: the disk log cleaner here scores segments with it, and
/// HighLight's tertiary cleaner scores whole volumes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CleanerPolicy {
    /// Clean whatever holds the fewest live bytes.
    Greedy,
    /// Sprite LFS cost-benefit: maximize `(1−u)·age / (1+u)` where `u`
    /// is utilization — the free space a candidate yields times how long
    /// it is likely to stay free, over the cost of reading it and
    /// writing back the live `u`. Prefers cold, moderately empty
    /// candidates over hot, just-emptied ones (Lomet & Luo).
    CostBenefit,
}

impl CleanerPolicy {
    /// Scores a candidate holding `live` of `capacity` bytes, last
    /// written `age` serials ago. The highest score is cleaned first;
    /// callers compare with strict `>`, so ties go to the earliest
    /// candidate.
    pub fn score(self, live: u64, capacity: u64, age: u64) -> f64 {
        match self {
            CleanerPolicy::Greedy => -(live as f64),
            CleanerPolicy::CostBenefit => {
                let u = if capacity == 0 {
                    0.0
                } else {
                    live as f64 / capacity as f64
                };
                (1.0 - u) * age as f64 / (1.0 + u)
            }
        }
    }

    /// Stable name for traces, benches and reports.
    pub fn name(self) -> &'static str {
        match self {
            CleanerPolicy::Greedy => "lowest_density",
            CleanerPolicy::CostBenefit => "cost_benefit",
        }
    }
}

/// What one cleaning pass accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CleanReport {
    /// Segments examined and reclaimed.
    pub segs_cleaned: u32,
    /// Live blocks copied to the log tail.
    pub blocks_copied: u32,
    /// Live inodes rewritten.
    pub inodes_copied: u32,
}

impl Lfs {
    /// `lfs_bmapv`: resolves each `(inode, logical block)` to its current
    /// disk address — "the same call used by the regular cleaner to
    /// determine which blocks in a segment are still valid" (§6.7).
    pub fn bmapv(&mut self, reqs: &[(Ino, LBlock)]) -> Result<Vec<BlockAddr>> {
        reqs.iter().map(|&(ino, lb)| self.bmap(ino, lb)).collect()
    }

    /// `lfs_markv`: re-dirties the given blocks so the next segment write
    /// moves them to the log tail. `data` supplies the block contents
    /// read from the victim segment; blocks already dirty in the cache
    /// are skipped (a newer copy supersedes the segment's).
    fn markv(&mut self, blocks: &[(Ino, LBlock, BlockAddr)], data: &[&[u8]]) -> Result<u32> {
        assert_eq!(blocks.len(), data.len(), "markv: blocks/data mismatch");
        let mut moved = 0;
        for (&(ino, lb, addr), &payload) in blocks.iter().zip(data) {
            // Re-validate: still the live copy?
            if self.bmap(ino, lb)? != addr {
                continue;
            }
            match self.cache.get(ino, lb) {
                Some(b) if b.is_dirty() => continue,
                Some(_) => {
                    self.cache.mark_dirty(ino, lb);
                }
                None => {
                    self.cache
                        .insert(ino, lb, payload.to_vec().into_boxed_slice(), true, addr);
                }
            }
            moved += 1;
        }
        self.balance()?;
        Ok(moved)
    }

    /// Selects the cleanable segment `policy` scores highest, a
    /// segment's age being the serial distance since it was last
    /// written. Ties go to the lowest segment number (strict `>`
    /// comparison). `None` if nothing is cleanable.
    pub fn select_victim(&self, policy: CleanerPolicy) -> Option<SegNo> {
        let mut best: Option<(SegNo, f64)> = None;
        for seg in 0..self.sb.nsegs {
            if seg == self.cur_seg || seg == self.next_seg {
                continue;
            }
            let u = &self.seguse[seg as usize];
            let cleanable = u.flags & seg_flags::DIRTY != 0
                && u.flags & (seg_flags::ACTIVE | seg_flags::CACHE | seg_flags::NOSTORE) == 0;
            if !cleanable {
                continue;
            }
            let age = self.log_serial.saturating_sub(u.write_serial);
            let s = policy.score(u.live_bytes as u64, self.sb.seg_bytes as u64, age);
            if best.map(|(_, b)| s > b).unwrap_or(true) {
                best = Some((seg, s));
            }
        }
        best.map(|(seg, _)| seg)
    }

    /// Cleans one victim segment end-to-end: read it, identify live
    /// blocks and inodes, mark them for rewrite, flush, and mark the
    /// segment clean. Returns `None` if no victim was available.
    pub fn clean_once(&mut self) -> Result<Option<CleanReport>> {
        let Some(victim) = self.select_victim(self.cfg.cleaner_policy) else {
            return Ok(None);
        };
        let report = self.clean_segment(victim)?;
        Ok(Some(report))
    }

    /// Cleans until at least `target` segments are clean (or no further
    /// progress is possible).
    pub fn clean_until(&mut self, target: u32) -> Result<CleanReport> {
        let mut total = CleanReport::default();
        loop {
            let before = self.clean_segs();
            if before >= target {
                break;
            }
            match self.clean_once()? {
                Some(r) => {
                    total.segs_cleaned += r.segs_cleaned;
                    total.blocks_copied += r.blocks_copied;
                    total.inodes_copied += r.inodes_copied;
                }
                None => break,
            }
            // Live data has to live somewhere: once cleaning stops
            // gaining ground (copies consume as much as they reclaim),
            // further passes only shuffle segments.
            if self.clean_segs() <= before {
                break;
            }
        }
        Ok(total)
    }

    /// Cleans a specific segment.
    pub fn clean_segment(&mut self, victim: SegNo) -> Result<CleanReport> {
        let u = self.seguse[victim as usize];
        if u.flags & (seg_flags::ACTIVE | seg_flags::CACHE) != 0
            || victim == self.cur_seg
            || victim == self.next_seg
        {
            return Err(LfsError::Invalid("segment is not cleanable"));
        }
        self.stats.cleaner_runs += 1;

        // One large sequential read of the whole victim segment.
        let base = self.amap.seg_base(victim);
        let image = self.read_raw(base, self.bps())?;

        // Move live file blocks and re-dirty live inodes.
        let mut report = CleanReport {
            segs_cleaned: 1,
            ..Default::default()
        };
        let (mut blocks, mut data, mut inodes) = (Vec::new(), Vec::new(), Vec::new());
        for (item, addr) in self.scan_segment_live(victim, &image)? {
            match item {
                MigrateItem::Block(ino, lb) => {
                    blocks.push((ino, lb, addr));
                    data.push(&image[(addr - base) as usize * BLOCK_SIZE..][..BLOCK_SIZE]);
                }
                MigrateItem::Inode(ino) => inodes.push(ino),
            }
        }
        report.blocks_copied = self.markv(&blocks, &data)?;
        for ino in inodes {
            // Loading dirties nothing; mark dirty so the inode moves.
            self.iget_mut(ino)?.dirty = true;
            report.inodes_copied += 1;
        }
        self.stats.blocks_cleaned += report.blocks_copied as u64;

        // Flush the copies, then retire the segment.
        self.segwrite()?;
        let u = &mut self.seguse[victim as usize];
        debug_assert_eq!(
            u.live_bytes, 0,
            "segment {victim} still has live bytes after cleaning"
        );
        u.flags = 0;
        u.live_bytes = 0;
        u.cache_tag = UNASSIGNED;
        self.stats.segs_reclaimed += 1;
        Ok(report)
    }

    /// Walks the image of segment `seg` — disk or tertiary — and lists
    /// what is still live in it (pointer/imap-validated, the `bmapv`
    /// check), in media order, each item with the address it sits at.
    pub(crate) fn scan_segment_live(
        &mut self,
        seg: SegNo,
        image: &[u8],
    ) -> Result<Vec<(MigrateItem, BlockAddr)>> {
        // A reused log segment still holds its previous occupancy's
        // summaries; tertiary media are erased before reuse.
        let min_serial = if self.amap.is_secondary(seg) {
            self.seguse[seg as usize].write_serial
        } else {
            0
        };
        let mut live = Vec::new();
        for parsed in partial::walk(image, self.geometry(), self.amap.seg_base(seg), min_serial) {
            let (p, payload) = parsed?;
            for (ino, version, lb, addr) in p.file_blocks() {
                if self.block_is_live(ino, version, lb, addr)? {
                    live.push((MigrateItem::Block(ino, lb), addr));
                }
            }
            for (iaddr, d) in p.inodes(payload) {
                if self.inode_is_live(&d, iaddr) {
                    live.push((MigrateItem::Inode(d.inumber), iaddr));
                }
            }
        }
        Ok(live)
    }

    /// Reads segment `seg` — a disk segment, or a tertiary one through
    /// its cache line — in one large timed read and lists what is still
    /// live in it, in media order: what a cleaner must move before the
    /// segment can be reclaimed.
    pub fn live_items(&mut self, seg: SegNo) -> Result<Vec<MigrateItem>> {
        let image = self.read_raw(self.amap.seg_base(seg), self.bps())?;
        let live = self.scan_segment_live(seg, &image)?;
        Ok(live.into_iter().map(|(item, _)| item).collect())
    }
}

impl Lfs {
    /// Claims a clean disk segment as a tertiary cache line (HighLight's
    /// segment cache, §6.4). The segment is marked `CACHE` so neither the
    /// log nor the cleaner will touch it. Returns `None` when no clean
    /// segment is spare or the static cache limit is reached.
    pub fn claim_cache_segment(&mut self) -> Option<SegNo> {
        let in_use = self
            .seguse
            .iter()
            .filter(|u| u.flags & seg_flags::CACHE != 0)
            .count() as u32;
        if in_use >= self.sb.cache_segs {
            return None;
        }
        // Leave breathing room for the log itself.
        if self.clean_segs() <= self.cfg.min_clean_segs {
            return None;
        }
        let seg = self.pick_clean_segment(self.cur_seg)?;
        let u = &mut self.seguse[seg as usize];
        u.flags = seg_flags::CACHE;
        u.cache_tag = UNASSIGNED;
        Some(seg)
    }

    /// Returns a cache line to the clean pool (dynamic cache shrinking,
    /// §10 future work).
    pub fn release_cache_segment(&mut self, seg: SegNo) {
        let u = &mut self.seguse[seg as usize];
        debug_assert!(u.flags & seg_flags::CACHE != 0, "not a cache segment");
        *u = crate::ondisk::SegUse::clean(self.sb.seg_bytes);
    }

    /// Records which tertiary segment a cache line holds (persisted in
    /// the ifile's per-segment cache-directory tag, §6.4).
    pub fn set_cache_tag(&mut self, seg: SegNo, tag: u32, fetch_time: u64) {
        let u = &mut self.seguse[seg as usize];
        u.cache_tag = tag;
        u.fetch_time = fetch_time;
    }

    /// Disk segments currently flagged as cache lines, with their tags.
    pub fn cache_segments(&self) -> Vec<(SegNo, u32, u64)> {
        self.seguse
            .iter()
            .enumerate()
            .filter(|(_, u)| u.flags & seg_flags::CACHE != 0)
            .map(|(s, u)| (s as SegNo, u.cache_tag, u.fetch_time))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::CleanerPolicy::{CostBenefit, Greedy};

    #[test]
    fn greedy_ignores_age() {
        assert!(Greedy.score(10, 100, 0) > Greedy.score(90, 100, 1_000_000));
        assert_eq!(Greedy.score(50, 100, 1), Greedy.score(50, 100, 99));
    }

    #[test]
    fn cost_benefit_prefers_cold_over_just_emptied() {
        // A hot, nearly-empty candidate (age 1) loses to a cold,
        // half-full one (age 100): the cold one's free space endures.
        assert!(CostBenefit.score(50, 100, 100) > CostBenefit.score(10, 100, 1));
        // Greedy orders them the other way.
        assert!(Greedy.score(10, 100, 1) > Greedy.score(50, 100, 100));
    }

    #[test]
    fn cost_benefit_is_zero_for_full_candidates() {
        assert_eq!(CostBenefit.score(100, 100, 500), 0.0);
        assert!(CostBenefit.score(99, 100, 500) > 0.0);
    }
}
