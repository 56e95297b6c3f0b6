//! `lfs_migratev`: the migration mechanism (§6.2, §6.7).
//!
//! "Those blocks are then assembled in a 'staging segment' addressed by
//! the block numbers the segment will use on the tertiary volume. The
//! staging segment is assembled on-disk in a dirty cache line, using the
//! same mechanism used by the cleaner to copy live data from an old
//! segment to the current active segment."
//!
//! `migratev` builds one partial segment at tertiary block addresses and
//! writes it through the device — under HighLight, the block-map
//! pseudo-device routes those addresses to the staging cache line on
//! disk, so the write is a normal (timed) disk write. Inode and indirect
//! pointers are repointed at the tertiary addresses, and live-byte
//! accounting moves from the source disk segments to the tertiary
//! segment via the [`crate::config::TertiaryHooks`].

use hl_vdev::BLOCK_SIZE;

use crate::error::{LfsError, Result};
use crate::fs::Lfs;
use crate::ondisk::{Dinode, Finfo, SegSummary};
use crate::types::{BlockAddr, Ino, LBlock, SegNo, DINODE_SIZE, INODES_PER_BLOCK, UNASSIGNED};

/// One unit of migration work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigrateItem {
    /// A file data or indirect block.
    Block(Ino, LBlock),
    /// An inode (HighLight can migrate metadata too, §4).
    Inode(Ino),
}

/// A tertiary segment being filled by the migrator.
#[derive(Clone, Copy, Debug)]
pub struct StagingSegment {
    /// Tertiary segment number in the uniform address space.
    pub seg: SegNo,
    /// Next free block offset within the segment.
    pub next_off: u32,
}

impl StagingSegment {
    /// A fresh staging segment.
    pub fn new(seg: SegNo) -> StagingSegment {
        StagingSegment { seg, next_off: 0 }
    }
}

/// What one `migratev` call achieved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MigrateReport {
    /// Items consumed from the input (including skipped ones).
    pub consumed: usize,
    /// File blocks actually written to the staging segment.
    pub blocks_moved: u32,
    /// Inodes written to the staging segment.
    pub inodes_moved: u32,
    /// `true` if the staging segment has no room for further items.
    pub segment_full: bool,
}

impl Lfs {
    /// Assembles one partial segment of migrated data in `staging`.
    ///
    /// Consumes a prefix of `items`, skipping blocks that are unstable
    /// (dirty in cache), holes, or already tertiary-resident — the
    /// migration policies "attempt to avoid" migrating changing data
    /// (§7.1). Returns when the items are exhausted or the segment fills.
    pub fn migratev(
        &mut self,
        staging: &mut StagingSegment,
        items: &[MigrateItem],
    ) -> Result<MigrateReport> {
        self.migratev_opts(staging, items, false)
    }

    /// [`Lfs::migratev`] with control over tertiary-resident sources:
    /// the tertiary cleaner re-migrates live data *between* tertiary
    /// segments (§10), which ordinary migration refuses.
    pub fn migratev_opts(
        &mut self,
        staging: &mut StagingSegment,
        items: &[MigrateItem],
        allow_tertiary_src: bool,
    ) -> Result<MigrateReport> {
        if self.amap.is_secondary(staging.seg) {
            return Err(LfsError::Invalid("staging segment must be tertiary"));
        }
        let base = self.amap.seg_base(staging.seg);
        let bps = self.bps();
        let mut report = MigrateReport::default();

        // Select the prefix that fits: blocks to move, inodes to pack.
        let mut blocks: Vec<(Ino, LBlock, BlockAddr)> = Vec::new();
        let mut inos: Vec<Ino> = Vec::new();
        let mut summary = SegSummary::new(UNASSIGNED, self.tert_serial);

        let space_left = |next_off: u32, nblocks: usize, ninoblocks: usize| -> bool {
            (next_off + 1 + nblocks as u32 + ninoblocks as u32) < bps
        };

        for item in items {
            let need_inode_blocks =
                |inos: &[Ino], extra: usize| (inos.len() + extra).div_ceil(INODES_PER_BLOCK);
            match *item {
                MigrateItem::Block(ino, lb) => {
                    // Stability and residency checks.
                    if self
                        .imap
                        .get(ino as usize)
                        .map(|e| e.daddr)
                        .unwrap_or(UNASSIGNED)
                        == UNASSIGNED
                    {
                        report.consumed += 1;
                        continue;
                    }
                    // Only *data* dirtiness makes a block unstable; an
                    // indirect block dirtied by this very migration's
                    // pointer patches is still fair game (its serialized
                    // content is read post-patch from the cache).
                    if !lb.is_indirect()
                        && self.cache.get(ino, lb).map(|b| b.dirty).unwrap_or(false)
                    {
                        report.consumed += 1;
                        continue;
                    }
                    let addr = self.bmap(ino, lb)?;
                    if addr == UNASSIGNED {
                        report.consumed += 1;
                        continue;
                    }
                    let seg = self.amap.seg_of(addr);
                    let src_tertiary = seg.map(|s| !self.amap.is_secondary(s)).unwrap_or(true);
                    if src_tertiary && (!allow_tertiary_src || seg == Some(staging.seg)) {
                        // Already tertiary (or unmappable): nothing to do
                        // unless the tertiary cleaner asked for it.
                        report.consumed += 1;
                        continue;
                    }
                    // Does it fit (block + possibly new finfo)?
                    let new_file = summary.finfos.last().map(|f| f.ino != ino).unwrap_or(true);
                    let mut probe = summary.clone();
                    if new_file {
                        probe.finfos.push(Finfo {
                            ino,
                            version: self.imap[ino as usize].version,
                            lastlength: BLOCK_SIZE as u32,
                            blocks: vec![],
                        });
                    }
                    probe
                        .finfos
                        .last_mut()
                        .expect("pushed")
                        .blocks
                        .push(lb.encode() as i32);
                    let sum_len = probe.encoded_len() + 4 * need_inode_blocks(&inos, 0);
                    if sum_len > self.sb.summary_bytes as usize
                        || !space_left(
                            staging.next_off,
                            blocks.len() + 1,
                            need_inode_blocks(&inos, 0),
                        )
                    {
                        report.segment_full = true;
                        break;
                    }
                    summary = probe;
                    if let LBlock::Data(l) = lb {
                        let size = self.iget(ino)?.d.size;
                        let last_l = if size == 0 {
                            0
                        } else {
                            (size - 1) / BLOCK_SIZE as u64
                        };
                        if l as u64 == last_l {
                            let rem = size - last_l * BLOCK_SIZE as u64;
                            summary.finfos.last_mut().expect("present").lastlength = if rem == 0 {
                                BLOCK_SIZE as u32
                            } else {
                                rem as u32
                            };
                        }
                    }
                    blocks.push((ino, lb, addr));
                    report.consumed += 1;
                }
                MigrateItem::Inode(ino) => {
                    let ent = self.imap.get(ino as usize).copied();
                    let Some(ent) = ent else {
                        report.consumed += 1;
                        continue;
                    };
                    if ent.daddr == UNASSIGNED || inos.contains(&ino) {
                        report.consumed += 1;
                        continue;
                    }
                    // Skip inodes already tertiary-resident (unless the
                    // tertiary cleaner is consolidating them).
                    let src_tertiary = self
                        .amap
                        .seg_of(ent.daddr)
                        .map(|s| !self.amap.is_secondary(s))
                        .unwrap_or(false);
                    if src_tertiary && !allow_tertiary_src {
                        report.consumed += 1;
                        continue;
                    }
                    let sum_len = summary.encoded_len() + 4 * need_inode_blocks(&inos, 1);
                    if sum_len > self.sb.summary_bytes as usize
                        || !space_left(staging.next_off, blocks.len(), need_inode_blocks(&inos, 1))
                    {
                        report.segment_full = true;
                        break;
                    }
                    inos.push(ino);
                    report.consumed += 1;
                }
            }
        }

        if blocks.is_empty() && inos.is_empty() {
            if report.consumed == 0 && !items.is_empty() {
                report.segment_full = true;
            }
            return Ok(report);
        }

        let n_ino_blocks = inos.len().div_ceil(INODES_PER_BLOCK);
        let nblocks = blocks.len() + n_ino_blocks;
        let part_base = base + staging.next_off;

        // Repoint metadata FIRST, so that an indirect block migrated in
        // this same partial is serialized with its children's tertiary
        // addresses already patched in (set_bmap pulls patched parents
        // into the cache). Accounting moves with the pointer.
        for (i, &(ino, lb, old_addr)) in blocks.iter().enumerate() {
            let new_addr = part_base + 1 + i as u32;
            self.live_delta(old_addr, -(BLOCK_SIZE as i64));
            self.live_delta(new_addr, BLOCK_SIZE as i64);
            self.set_bmap(ino, lb, new_addr)?;
        }

        // Assemble the partial-segment image. File blocks come from the
        // cache when present (indirects patched above are there), else
        // raw from their old disk location — the paper's migrator "reads
        // them directly from the disk device into memory" (§6.7).
        let mut image = vec![0u8; (1 + nblocks) * BLOCK_SIZE];
        for (i, &(ino, lb, old_addr)) in blocks.iter().enumerate() {
            let dst = &mut image[(1 + i) * BLOCK_SIZE..(2 + i) * BLOCK_SIZE];
            if let Some(b) = self.cache.get(ino, lb) {
                dst.copy_from_slice(&b.data);
            } else {
                // Zero-copy: the device reads straight into the image
                // slice — no per-block vector, no intermediate memcpy.
                self.read_raw_into(old_addr, dst)?;
            }
        }

        // Inode blocks, packed 32 per block; imap follows the move.
        let mut inode_addrs = Vec::with_capacity(n_ino_blocks);
        for (bi, chunk) in inos.chunks(INODES_PER_BLOCK).enumerate() {
            let addr = part_base + 1 + (blocks.len() + bi) as u32;
            inode_addrs.push(addr);
            let off = (1 + blocks.len() + bi) * BLOCK_SIZE;
            for (slot, &ino) in chunk.iter().enumerate() {
                let d: Dinode = self.iget(ino)?.d;
                d.encode(&mut image[off + slot * DINODE_SIZE..off + (slot + 1) * DINODE_SIZE]);
                let old = self.imap[ino as usize].daddr;
                if old != UNASSIGNED {
                    self.live_delta(old, -(DINODE_SIZE as i64));
                }
                self.live_delta(addr, DINODE_SIZE as i64);
                self.imap[ino as usize].daddr = addr;
                // The in-core state just persisted to tertiary; pending
                // dirtiness (e.g. from this migration's own repointing)
                // is satisfied by that copy.
                if let Some(ci) = self.inodes.get_mut(&ino) {
                    ci.dirty = false;
                    ci.atime_dirty = false;
                }
                report.inodes_moved += 1;
            }
        }
        summary.inode_addrs = inode_addrs;

        {
            let (head, payload) = image.split_at_mut(BLOCK_SIZE);
            let datasum = SegSummary::datasum_of(payload);
            summary.encode(&mut head[..self.sb.summary_bytes as usize], datasum);
        }

        // One large write at the tertiary address; under HighLight the
        // block-map driver lands this in the staging cache line on disk.
        self.write_raw(part_base, &image)?;
        self.charge_cpu(self.cfg.cpu.write_block * nblocks as u64);
        self.tert_serial += 1;

        // The cached copies (if any) now mirror the tertiary addresses,
        // including parents whose only change was our repointing and
        // which were migrated in this same partial.
        for (i, &(ino, lb, _)) in blocks.iter().enumerate() {
            self.cache.mark_clean(ino, lb, part_base + 1 + i as u32);
            report.blocks_moved += 1;
        }
        self.stats.blocks_migrated += report.blocks_moved as u64;

        staging.next_off += 1 + nblocks as u32;
        if staging.next_off + 2 >= bps {
            report.segment_full = true;
        }
        Ok(report)
    }

    /// Collects every migratable piece of a file: data blocks, indirect
    /// blocks, and optionally the inode — whole-file migration (§5.1).
    pub fn whole_file_items(&mut self, ino: Ino, include_inode: bool) -> Result<Vec<MigrateItem>> {
        use crate::types::{NDIRECT, NPTR};
        let d = self.iget(ino)?.d;
        let nblocks = d.size.div_ceil(BLOCK_SIZE as u64);
        let mut items = Vec::new();
        for l in 0..nblocks {
            items.push(MigrateItem::Block(ino, LBlock::Data(l as u32)));
        }
        if d.ib[0] != UNASSIGNED {
            items.push(MigrateItem::Block(ino, LBlock::Ind1));
        }
        if d.ib[1] != UNASSIGNED {
            let nchildren = if nblocks > (NDIRECT + NPTR) as u64 {
                (nblocks - NDIRECT as u64 - NPTR as u64).div_ceil(NPTR as u64)
            } else {
                0
            };
            for k in 0..nchildren {
                items.push(MigrateItem::Block(ino, LBlock::Ind2Child(k as u32)));
            }
            items.push(MigrateItem::Block(ino, LBlock::Ind2));
        }
        if include_inode {
            items.push(MigrateItem::Inode(ino));
        }
        Ok(items)
    }
}

impl Lfs {
    /// Relocates a tertiary segment's contents to a different tertiary
    /// segment number (end-of-medium handling, §6.3: "the last (partially
    /// written) segment is re-written onto the next volume").
    ///
    /// The caller must have re-keyed the underlying cache line so that
    /// reads of `old_seg` addresses still resolve (or pass the raw image
    /// another way): this function reads the image through the device at
    /// the *new* addresses' cache line via `image`, patches every pointer
    /// from old to new addresses, fixes the summaries' absolute inode
    /// block addresses, and writes the adjusted image at the new base.
    ///
    /// Returns the number of blocks whose pointers were moved.
    pub fn relocate_tertiary_segment(
        &mut self,
        image: &mut [u8],
        old_seg: SegNo,
        new_seg: SegNo,
    ) -> Result<u32> {
        use crate::ondisk::SegSummary;
        let old_base = self.amap.seg_base(old_seg);
        let new_base = self.amap.seg_base(new_seg);
        let bps = self.bps();
        let block = BLOCK_SIZE;
        let mut moved = 0;
        let mut off = 0u32;
        let mut last_serial = None;
        while off + 1 < bps {
            let sum_off = off as usize * block;
            let Ok((mut summary, _)) =
                SegSummary::decode(&image[sum_off..sum_off + self.sb.summary_bytes as usize])
            else {
                break;
            };
            if last_serial.map(|s| summary.serial <= s).unwrap_or(false) {
                break;
            }
            last_serial = Some(summary.serial);
            let mut blk_idx = 0u32;
            // Repoint file blocks described by the FINFOs.
            for fi in summary.finfos.clone() {
                for &lbn in &fi.blocks {
                    let old_addr = old_base + off + 1 + blk_idx;
                    let new_addr = new_base + off + 1 + blk_idx;
                    let lb = LBlock::decode(lbn as i64);
                    if self
                        .imap
                        .get(fi.ino as usize)
                        .map(|e| e.version == fi.version && e.daddr != UNASSIGNED)
                        .unwrap_or(false)
                        && self.bmap(fi.ino, lb)? == old_addr
                    {
                        self.live_delta(old_addr, -(BLOCK_SIZE as i64));
                        self.live_delta(new_addr, BLOCK_SIZE as i64);
                        self.set_bmap(fi.ino, lb, new_addr)?;
                        self.cache.readdress(fi.ino, lb, new_addr);
                        moved += 1;
                    }
                    blk_idx += 1;
                }
            }
            // Repoint inodes and rewrite the absolute inode block addrs.
            let mut new_inode_addrs = Vec::with_capacity(summary.inode_addrs.len());
            for &iaddr in &summary.inode_addrs {
                let rel = iaddr - old_base;
                let new_iaddr = new_base + rel;
                new_inode_addrs.push(new_iaddr);
                let boff = rel as usize * block;
                for slot in 0..INODES_PER_BLOCK {
                    let d = Dinode::decode(&image[boff + slot * DINODE_SIZE..]);
                    if d.nlink == 0 || d.inumber == 0 {
                        continue;
                    }
                    let ino = d.inumber;
                    if self
                        .imap
                        .get(ino as usize)
                        .map(|e| e.daddr == iaddr && e.version == d.gen)
                        .unwrap_or(false)
                    {
                        self.live_delta(iaddr, -(DINODE_SIZE as i64));
                        self.live_delta(new_iaddr, DINODE_SIZE as i64);
                        self.imap[ino as usize].daddr = new_iaddr;
                        moved += 1;
                    }
                }
                blk_idx += 1;
            }
            summary.inode_addrs = new_inode_addrs;
            summary.serial = self.tert_serial;
            self.tert_serial += 1;
            let payload_start = sum_off + block;
            let payload_end = payload_start + blk_idx as usize * block;
            let datasum = SegSummary::datasum_of(&image[payload_start..payload_end]);
            summary.encode(
                &mut image[sum_off..sum_off + self.sb.summary_bytes as usize],
                datasum,
            );
            off += 1 + blk_idx;
        }
        // One large write of the adjusted image at the new location.
        self.write_raw(new_base, &image[..(off.max(1) as usize) * block])?;
        Ok(moved)
    }
}
