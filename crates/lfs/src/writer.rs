//! The segment writer: gathers dirty state into partial segments and
//! appends them to the threaded log.
//!
//! Per §3: "Each segment of the log may contain several partial segments.
//! A partial segment is considered an atomic update to the log, and is
//! headed by a segment summary cataloging its contents" — with a checksum
//! "to verify that the entire partial segment is intact on disk and
//! provide an assurance of atomicity."
//!
//! A batch is written as follows: the dirty set is *closed* over parent
//! metadata (a dirty data block forces its indirect chain and inode into
//! the batch), then blocks are streamed child-before-parent so that every
//! pointer patch lands in a block that has not yet been serialized, with
//! inode blocks packed last — the 4.4BSD layout. Each partial becomes a
//! single large device write, which is where LFS's sequential-write
//! advantage comes from.

use hl_vdev::{Block, BLOCK_SIZE};

use crate::error::{LfsError, Result};
use crate::fs::{Lfs, CHECKPOINT_ADDR};
use crate::ondisk::{seg_flags, Checkpoint, CHECKPOINT_SLOT, SEGUSE_SIZE};
use crate::partial::PartialBuilder;
use crate::ptree::{self, Home};
use crate::types::{Ino, LBlock, SegNo, IFILE_INO, UNASSIGNED};
use crate::ufs::Ufs;

/// Entries per ifile segment-usage block.
pub const SEGUSE_PER_BLOCK: usize = BLOCK_SIZE / SEGUSE_SIZE;
/// Entries per ifile inode-map block.
pub const IFENT_PER_BLOCK: usize = BLOCK_SIZE / crate::ondisk::IFENT_SIZE;

/// Sort rank ensuring children are streamed before the blocks that point
/// at them: data, then level-1 indirects, then the indirect roots.
fn stream_rank(lb: LBlock) -> (u8, u64) {
    match lb {
        LBlock::Data(l) => (0, l as u64),
        LBlock::Ind2Child(k) => (1, k as u64),
        LBlock::Ind1 => (2, 0),
        LBlock::Ind2 => (3, 0),
    }
}

impl Lfs {
    /// Flushes all dirty data and metadata to the log (no checkpoint
    /// record). Equivalent to `sync(2)` minus the checkpoint.
    pub fn sync(&mut self) -> Result<()> {
        self.segwrite()
    }

    /// Takes a checkpoint: serializes the in-core ifile tables into the
    /// ifile, flushes everything, and writes the alternating checkpoint
    /// record (§3).
    pub fn checkpoint(&mut self) -> Result<()> {
        // Deferred access-time updates become real inode writes now.
        let atime_only: Vec<Ino> = self
            .inodes
            .iter()
            .filter(|(_, i)| i.atime_dirty && !i.dirty)
            .map(|(&ino, _)| ino)
            .collect();
        for ino in atime_only {
            let i = self.inodes.get_mut(&ino).expect("listed above");
            i.dirty = true;
            i.atime_dirty = false;
        }
        // First flush assigns final disk addresses to all dirty data and
        // inodes; only then is the inode map worth serializing. The
        // second flush persists the ifile itself (its own live-byte
        // deltas land in the *next* checkpoint's table; recovery audits
        // them, so on-media staleness is harmless).
        self.segwrite()?;
        self.serialize_ifile()?;
        self.segwrite()?;

        let ckpt = Checkpoint {
            serial: self.ckpt_serial + 1,
            log_serial: self.log_serial,
            ifile_inode_addr: self.ifile_inode_addr,
            next_seg: self.cur_seg,
            next_off: self.cur_off,
            timestamp: self.now(),
            tert_serial: self.tert_serial,
        };
        // Read-modify-write the checkpoint block, touching only the slot
        // the previous checkpoint does not occupy.
        let mut block = self.read_block(CHECKPOINT_ADDR)?;
        let slot = (ckpt.serial % 2) as usize;
        ckpt.encode(&mut block.make_mut()[slot * CHECKPOINT_SLOT..(slot + 1) * CHECKPOINT_SLOT]);
        self.write_run(CHECKPOINT_ADDR, &[block])?;
        self.ckpt_serial = ckpt.serial;
        self.stats.checkpoints += 1;
        Ok(())
    }

    /// Serializes the authoritative in-core segment-usage table and inode
    /// map into the ifile's blocks (inode 1), marking them dirty. The
    /// layout is: block 0 cleaner info; then segment-usage blocks; then
    /// inode-map blocks (§3, §6.4).
    pub(crate) fn serialize_ifile(&mut self) -> Result<()> {
        let nsegs = self.sb.nsegs as usize;
        let su_blocks = nsegs.div_ceil(SEGUSE_PER_BLOCK);
        let im_blocks = self.imap.len().div_ceil(IFENT_PER_BLOCK).max(1);
        let total_blocks = 1 + su_blocks + im_blocks;

        // Block 0: cleaner info.
        let mut b0 = Block::zeroed(BLOCK_SIZE);
        let bytes = b0.make_mut();
        crate::ondisk::put_u32(bytes, 0, self.clean_segs());
        crate::ondisk::put_u32(bytes, 4, self.free_head);
        crate::ondisk::put_u32(bytes, 8, self.imap.len() as u32);
        crate::ondisk::put_u32(bytes, 12, self.sb.nsegs);
        self.put_ifile_block(0, b0)?;

        for bi in 0..su_blocks {
            let mut blk = Block::zeroed(BLOCK_SIZE);
            let bytes = blk.make_mut();
            for slot in 0..SEGUSE_PER_BLOCK {
                let seg = bi * SEGUSE_PER_BLOCK + slot;
                if seg >= nsegs {
                    break;
                }
                self.seguse[seg].encode(&mut bytes[slot * SEGUSE_SIZE..(slot + 1) * SEGUSE_SIZE]);
            }
            self.put_ifile_block(1 + bi as u32, blk)?;
        }

        for bi in 0..im_blocks {
            let mut blk = Block::zeroed(BLOCK_SIZE);
            let bytes = blk.make_mut();
            for slot in 0..IFENT_PER_BLOCK {
                let idx = bi * IFENT_PER_BLOCK + slot;
                if idx >= self.imap.len() {
                    break;
                }
                self.imap[idx].encode(
                    &mut bytes
                        [slot * crate::ondisk::IFENT_SIZE..(slot + 1) * crate::ondisk::IFENT_SIZE],
                );
            }
            self.put_ifile_block((1 + su_blocks + bi) as u32, blk)?;
        }

        let new_size = (total_blocks * BLOCK_SIZE) as u64;
        let ifile = self.iget_mut(IFILE_INO)?;
        if ifile.d.size != new_size {
            ifile.d.size = new_size;
        }
        ifile.dirty = true;
        Ok(())
    }

    /// Replaces one logical block of the ifile with fresh dirty contents.
    fn put_ifile_block(&mut self, l: u32, data: Block) -> Result<()> {
        let lb = LBlock::Data(l);
        let cached = self.cache.get(IFILE_INO, lb).map(|b| b.addr);
        let old = match cached {
            Some(addr) => addr,
            None => self.bmap(IFILE_INO, lb)?,
        };
        let was_hole = old == UNASSIGNED && cached.is_none();
        self.cache.insert(IFILE_INO, lb, data, true, old);
        if was_hole {
            let inode = self.iget_mut(IFILE_INO)?;
            inode.d.blocks += 1;
            inode.dirty = true;
        }
        Ok(())
    }

    /// Writes every dirty block and inode to the log, looping until the
    /// dirty set is empty.
    pub(crate) fn segwrite(&mut self) -> Result<()> {
        if self.writing {
            return Ok(());
        }
        self.writing = true;
        let out = self.segwrite_inner();
        self.writing = false;
        out
    }

    fn segwrite_inner(&mut self) -> Result<()> {
        // Passes: patching parents during a batch can dirty blocks that
        // were clean when the batch snapshot was taken (rare: only when a
        // parent was not closed over, which close_over prevents). The
        // loop is the safety net.
        for _pass in 0..64 {
            self.close_over_parents()?;
            let files = self.cache.dirty_keys();
            let mut inos: Vec<Ino> = self
                .inodes
                .iter()
                .filter(|(_, i)| i.dirty)
                .map(|(&ino, _)| ino)
                .collect();
            inos.sort_unstable();
            if files.is_empty() && inos.is_empty() {
                return Ok(());
            }
            self.write_batch(&files, &inos)?;
        }
        Err(LfsError::Corrupt("segment writer failed to converge"))
    }

    /// Ensures that for every dirty block, the indirect chain and inode
    /// that will be patched are themselves dirty (and thus in the batch).
    fn close_over_parents(&mut self) -> Result<()> {
        loop {
            let dirty = self.cache.dirty_keys();
            let mut grew = false;
            for (ino, blocks) in dirty {
                for lb in blocks {
                    match ptree::home(lb) {
                        Home::InBlock(parent, _) => {
                            let parent_dirty =
                                self.cache.get(ino, parent).is_some_and(|b| b.is_dirty());
                            if !parent_dirty {
                                // Materialize and dirty the parent.
                                self.ensure_block(ino, parent)?;
                                self.cache.mark_dirty(ino, parent);
                                grew = true;
                            }
                        }
                        // The pointer is in the inode, dirtied below.
                        Home::Inode(_) | Home::InodeIndirect(_) => {}
                        Home::TooBig => return Err(LfsError::FileTooBig),
                    }
                }
                // The file's inode is rewritten whenever any of its
                // blocks move.
                let i = self.iget_mut(ino)?;
                if !i.dirty {
                    i.dirty = true;
                    grew = true;
                }
            }
            if !grew {
                return Ok(());
            }
        }
    }

    /// Picks the next clean segment for the log, scanning upward from
    /// `after` with wraparound. Excludes the current and pre-selected
    /// segments.
    pub(crate) fn pick_clean_segment(&self, after: SegNo) -> Option<SegNo> {
        let n = self.sb.nsegs;
        for i in 1..=n {
            let s = (after + i) % n;
            if s == self.cur_seg || s == self.next_seg {
                continue;
            }
            if self.seguse[s as usize].is_clean() {
                return Some(s);
            }
        }
        None
    }

    /// Moves the log tail into `next_seg` and pre-selects a new
    /// continuation segment.
    fn advance_segment(&mut self) -> Result<()> {
        let old = self.cur_seg;
        self.seguse[old as usize].flags &= !seg_flags::ACTIVE;
        let new = self.next_seg;
        if !self.seguse[new as usize].is_clean() {
            return Err(LfsError::Corrupt("pre-selected log segment was claimed"));
        }
        self.cur_seg = new;
        self.cur_off = 0;
        self.seguse[new as usize].flags |= seg_flags::ACTIVE | seg_flags::DIRTY;
        self.seguse[new as usize].write_serial = self.log_serial;
        self.next_seg = self.pick_clean_segment(new).ok_or(LfsError::NoSpace)?;
        self.stats.segs_consumed += 1;
        Ok(())
    }

    /// Blocks remaining in the current segment.
    fn seg_remaining(&self) -> u32 {
        self.bps() - self.cur_off
    }

    /// A builder for the next partial at the log tail.
    fn log_partial(&self) -> PartialBuilder {
        PartialBuilder::new(
            self.amap.seg_base(self.cur_seg) + self.cur_off,
            self.seg_remaining(),
            self.amap.seg_base(self.next_seg),
            self.log_serial,
        )
    }

    /// Writes one batch (a snapshot of dirty file blocks and inodes) as
    /// one or more partial segments.
    fn write_batch(&mut self, files: &[(Ino, Vec<LBlock>)], inos: &[Ino]) -> Result<()> {
        let mut partial = self.log_partial();
        // File blocks, children before parents within a file. Each
        // pointer moves as its block is reserved: parents are in this
        // batch by closure, so the patched bytes are serialized later.
        for (ino, blocks) in files {
            let mut ordered = blocks.clone();
            ordered.sort_by_key(|&lb| stream_rank(lb));
            for lb in ordered {
                let old = self.cache.get(*ino, lb).map_or(UNASSIGNED, |b| b.addr);
                let addr = loop {
                    match partial.try_add_block(self, *ino, lb, old)? {
                        Some(addr) => break addr,
                        None => partial = self.flush_partial(partial)?,
                    }
                };
                self.repoint_block(*ino, lb, old, addr)?;
            }
        }
        // The dirty inodes, packed behind them.
        for &ino in inos {
            while !partial.try_add_inode(self, ino) {
                partial = self.flush_partial(partial)?;
            }
        }
        self.flush_partial(partial)?;
        Ok(())
    }

    /// Writes `partial` at the log tail and advances the log position;
    /// returns the builder for the partial after it.
    fn flush_partial(&mut self, partial: PartialBuilder) -> Result<PartialBuilder> {
        let cur = self.cur_seg as usize;
        if partial.is_empty() {
            // Nothing to write: advance the segment if we were called
            // because it was full.
            if self.seg_remaining() < 2 {
                self.advance_segment()?;
            } else if self.cur_off == 0 && self.seguse[cur].write_serial == 0 {
                // First ever write into the initial segment: claim it.
                self.seguse[cur].flags |= seg_flags::ACTIVE | seg_flags::DIRTY;
                self.seguse[cur].write_serial = self.log_serial;
            }
            return Ok(self.log_partial());
        }
        // Claim the segment on its first partial.
        if self.cur_off == 0 {
            self.seguse[cur].flags |= seg_flags::ACTIVE | seg_flags::DIRTY;
            self.seguse[cur].write_serial = self.log_serial;
        }
        self.cur_off += partial.write(self)?;
        self.stats.partials_written += 1;
        self.log_serial += 1;
        if self.seg_remaining() < 2 {
            self.advance_segment()?;
        }
        self.cache.shrink_to_capacity();
        Ok(self.log_partial())
    }
}
