//! File operations: the `Lfs` half of the [`Ufs`] split and the data path.
//!
//! "HighLight implements the normal filesystem operations expected by the
//! 4.4BSD file system switch" (§6.2). The name space (`lookup`, `create`,
//! `mkdir`, `unlink`, `rmdir`, `rename`, `readdir`, `stat`) is
//! [`Ufs`]'s provided methods, shared with `hl-ffs`; this module supplies
//! the primitives under it and the operations that stay log-specific:
//! `read`, `write` and `truncate`, where a block gets no address until the
//! segment writer picks one.

use std::rc::Rc;

use hl_vdev::{Block, BLOCK_SIZE};

use crate::error::{LfsError, Result};
use crate::fs::{CachedInode, Lfs};
use crate::ondisk::{Dinode, IfileEntry};
use crate::ptree;
use crate::types::{FileKind, Ino, LBlock, MAX_DATA_BLOCKS, UNASSIGNED};
use crate::ufs::Ufs;

impl Ufs for Lfs {
    fn now(&self) -> u64 {
        self.cfg.clock.now()
    }

    fn charge_op(&self) {
        self.charge_cpu(self.cfg.cpu.per_op);
    }

    fn dinode(&mut self, ino: Ino) -> Result<Dinode> {
        Ok(self.iget(ino)?.d)
    }

    fn update(&mut self, ino: Ino, f: impl FnOnce(&mut Dinode)) -> Result<()> {
        let i = self.iget_mut(ino)?;
        f(&mut i.d);
        i.dirty = true;
        Ok(())
    }

    /// Reuses the free list first, else grows the inode map.
    fn ialloc(&mut self, kind: FileKind) -> Result<Ino> {
        let ino = if self.free_head != UNASSIGNED {
            let ino = self.free_head;
            self.free_head = self.imap[ino as usize].free_next;
            ino
        } else {
            if self.imap.len() as u64 >= u32::MAX as u64 {
                return Err(LfsError::NoInodes);
            }
            self.imap.push(IfileEntry::free(UNASSIGNED));
            (self.imap.len() - 1) as Ino
        };
        let ent = &mut self.imap[ino as usize];
        ent.version += 1;
        ent.daddr = UNASSIGNED;
        ent.free_next = UNASSIGNED;
        let d = Dinode::new(kind, 0o644, ino, ent.version, self.cfg.clock.now());
        self.inodes.insert(
            ino,
            CachedInode {
                d,
                dirty: true,
                atime_dirty: false,
            },
        );
        Ok(ino)
    }

    fn release(&mut self, ino: Ino) -> Result<()> {
        self.truncate(ino, 0)?;
        self.ifree(ino);
        Ok(())
    }

    fn block(&mut self, ino: Ino, l: u32) -> Result<&[u8]> {
        Ok(&self.ensure_block(ino, LBlock::Data(l))?.data)
    }

    fn block_mut(&mut self, ino: Ino, l: u32) -> Result<&mut [u8]> {
        Ok(self.ensure_block(ino, LBlock::Data(l))?.data.make_mut())
    }

    fn dirtied(&mut self, ino: Ino, l: u32) {
        self.cache.mark_dirty(ino, LBlock::Data(l));
    }

    fn append(&mut self, ino: Ino, l: u32, data: Block) -> Result<()> {
        self.cache
            .insert(ino, LBlock::Data(l), data, true, UNASSIGNED);
        self.update(ino, |d| d.blocks += 1)
    }

    /// Flushes the log if dirty blocks alone exceed the cache.
    fn balance(&mut self) -> Result<()> {
        // While the segment writer runs, blocks it just materialized
        // (parents pulled in for patching) must not be evicted from
        // under it; the writer shrinks the cache itself after each
        // partial is flushed.
        if self.writing || !self.cache.over_capacity() {
            return Ok(());
        }
        self.cache.shrink_to_capacity();
        if self.cache.over_capacity() {
            // Pinned dirty data exceeds capacity: write the log.
            self.segwrite()?;
            self.cache.shrink_to_capacity();
        }
        Ok(())
    }

    /// The paper's cleaner is a daemon; ours is invoked at operation
    /// boundaries.
    fn settle(&mut self) -> Result<()> {
        if !self.writing && self.clean_segs() < self.cfg.min_clean_segs {
            self.clean_until(self.cfg.min_clean_segs)?;
        }
        Ok(())
    }
}

impl Lfs {
    // -----------------------------------------------------------------
    // Data path.
    // -----------------------------------------------------------------

    /// Reads up to `buf.len()` bytes at `offset`; returns bytes read
    /// (short at end of file).
    pub fn read(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> Result<usize> {
        self.charge_op();
        let size = {
            let now = self.now();
            let i = self.iget_mut(ino)?;
            i.d.atime = now;
            i.atime_dirty = true;
            i.d.size
        };
        if offset >= size {
            return Ok(0);
        }
        let want = buf.len().min((size - offset) as usize);
        let mut done = 0;
        while done < want {
            let pos = offset + done as u64;
            let l = (pos / BLOCK_SIZE as u64) as u32;
            let off_in = (pos % BLOCK_SIZE as u64) as usize;
            let n = (BLOCK_SIZE - off_in).min(want - done);
            let src = self.ensure_block(ino, LBlock::Data(l))?;
            buf[done..done + n].copy_from_slice(&src.data[off_in..off_in + n]);
            self.seq_hint.insert(ino, l + 1);
            done += n;
            self.balance()?;
        }
        Ok(done)
    }

    /// Writes `data` at `offset`, extending the file as needed (holes
    /// read as zeros).
    pub fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> Result<()> {
        self.charge_op();
        let end = offset + data.len() as u64;
        if end.div_ceil(BLOCK_SIZE as u64) > MAX_DATA_BLOCKS {
            return Err(LfsError::FileTooBig);
        }
        let size = self.iget(ino)?.d.size;
        // The call's whole blocks, copied one segment's worth at a time
        // into one buffer each and handed out as windows onto it.
        let head = (offset.next_multiple_of(BLOCK_SIZE as u64) - offset) as usize;
        let whole = data.get(head..).unwrap_or_default();
        let whole = &whole[..whole.len() / BLOCK_SIZE * BLOCK_SIZE];
        let seg_bytes = self.cfg.blocks_per_seg() as usize * BLOCK_SIZE;
        let mut windows = whole
            .chunks(seg_bytes)
            .flat_map(|c| Block::split(Rc::from(c), BLOCK_SIZE));
        let mut done = 0;
        while done < data.len() {
            let pos = offset + done as u64;
            let l = (pos / BLOCK_SIZE as u64) as u32;
            let off_in = (pos % BLOCK_SIZE as u64) as usize;
            let n = (BLOCK_SIZE - off_in).min(data.len() - done);
            let lb = LBlock::Data(l);

            let src = &data[done..done + n];
            let full_overwrite = n == BLOCK_SIZE;
            let mut next_window = || {
                let blk = windows.next().expect("a whole block has its window");
                debug_assert!(*blk == *src, "the window holds the caller's bytes");
                // Summed now, soon after the copy: the partial that
                // writes it reads the sum its handle carries, not the
                // bytes, which are out of the CPU cache by the time the
                // log is flushed.
                blk.sum();
                blk
            };
            if let Some(buf) = self.cache.get_mut(ino, lb) {
                if full_overwrite {
                    // The caller's bytes are the whole block: a fresh
                    // block, whoever shared the old one.
                    buf.data = next_window();
                } else {
                    buf.data.make_mut()[off_in..off_in + n].copy_from_slice(src);
                }
                self.cache.mark_dirty(ino, lb);
            } else {
                let old = self.bmap(ino, lb)?;
                let within = (l as u64) < size.div_ceil(BLOCK_SIZE as u64);
                if !full_overwrite && within && old != UNASSIGNED {
                    // Read-modify-write of an existing block.
                    let buf = self.ensure_block(ino, lb)?;
                    buf.data.make_mut()[off_in..off_in + n].copy_from_slice(src);
                    self.cache.mark_dirty(ino, lb);
                } else {
                    // Fresh block (or full overwrite: no need to read the
                    // old copy; keep its address for live accounting).
                    let blk = if full_overwrite {
                        next_window()
                    } else {
                        let mut blk = Block::zeroed(BLOCK_SIZE);
                        blk.make_mut()[off_in..off_in + n].copy_from_slice(src);
                        blk
                    };
                    self.cache.insert(ino, lb, blk, true, old);
                    if old == UNASSIGNED {
                        let i = self.iget_mut(ino)?;
                        i.d.blocks += 1;
                        i.dirty = true;
                    }
                }
            }
            done += n;
            self.balance()?;
        }
        let now = self.now();
        let i = self.iget_mut(ino)?;
        i.d.size = i.d.size.max(end);
        i.d.mtime = now;
        i.dirty = true;
        self.settle()
    }

    /// Shrinks (or sparsely extends) a file to `new_size`.
    pub fn truncate(&mut self, ino: Ino, new_size: u64) -> Result<()> {
        self.charge_op();
        let old_size = self.iget(ino)?.d.size;
        if new_size >= old_size {
            let i = self.iget_mut(ino)?;
            i.d.size = new_size;
            i.dirty = true;
            return Ok(());
        }
        // Everything the shorter file no longer owns, each block before
        // the indirect block that points at it.
        let keep_blocks = new_size.div_ceil(BLOCK_SIZE as u64);
        let old_blocks = old_size.div_ceil(BLOCK_SIZE as u64);
        for lb in ptree::blocks(keep_blocks..old_blocks) {
            let addr = self.bmap(ino, lb)?;
            let had_block = addr != UNASSIGNED || self.cache.contains(ino, lb);
            if addr != UNASSIGNED {
                self.live_delta(addr, -(BLOCK_SIZE as i64));
                self.set_bmap(ino, lb, UNASSIGNED)?;
            }
            self.cache.remove(ino, lb);
            if had_block {
                let i = self.iget_mut(ino)?;
                i.d.blocks = i.d.blocks.saturating_sub(1);
            }
        }
        // Zero the tail of the now-final block.
        if !new_size.is_multiple_of(BLOCK_SIZE as u64) {
            let l = (new_size / BLOCK_SIZE as u64) as u32;
            let cut = (new_size % BLOCK_SIZE as u64) as usize;
            if self.bmap(ino, LBlock::Data(l))? != UNASSIGNED
                || self.cache.contains(ino, LBlock::Data(l))
            {
                let buf = self.ensure_block(ino, LBlock::Data(l))?;
                buf.data.make_mut()[cut..].fill(0);
                self.cache.mark_dirty(ino, LBlock::Data(l));
            }
        }
        let now = self.now();
        let i = self.iget_mut(ino)?;
        i.d.size = new_size;
        i.d.mtime = now;
        i.dirty = true;
        Ok(())
    }
}
