//! POSIX-flavoured file operations.
//!
//! "HighLight implements the normal filesystem operations expected by the
//! 4.4BSD file system switch" (§6.2); these are the `Lfs` methods the
//! examples and benchmarks drive. Paths are Unix-style, rooted at `/`.

use hl_vdev::BLOCK_SIZE;

use crate::dir;
use crate::error::{LfsError, Result};
use crate::fs::Lfs;
use crate::ptree;
use crate::types::{FileKind, Ino, LBlock, MAX_DATA_BLOCKS, ROOT_INO, UNASSIGNED};

impl Lfs {
    // -----------------------------------------------------------------
    // Name space.
    // -----------------------------------------------------------------

    /// Resolves a path to an inode.
    pub fn lookup(&mut self, path: &str) -> Result<Ino> {
        self.charge_cpu(self.cfg.cpu.per_op);
        let mut cur = ROOT_INO;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            let (ino, _) = self.dir_lookup(cur, comp)?.ok_or(LfsError::NotFound)?;
            cur = ino;
        }
        Ok(cur)
    }

    /// Splits a path into `(parent directory inode, final component)`.
    fn namei_parent<'a>(&mut self, path: &'a str) -> Result<(Ino, &'a str)> {
        let mut comps: Vec<&str> = path.split('/').filter(|c| !c.is_empty()).collect();
        let name = comps.pop().ok_or(LfsError::Invalid("empty path"))?;
        let mut cur = ROOT_INO;
        for comp in comps {
            let (ino, kind) = self.dir_lookup(cur, comp)?.ok_or(LfsError::NotFound)?;
            if kind != FileKind::Directory {
                return Err(LfsError::NotDir);
            }
            cur = ino;
        }
        Ok((cur, name))
    }

    /// Searches one directory for `name`.
    pub(crate) fn dir_lookup(&mut self, dino: Ino, name: &str) -> Result<Option<(Ino, FileKind)>> {
        let d = self.iget(dino)?.d;
        if FileKind::from_mode(d.mode) != Some(FileKind::Directory) {
            return Err(LfsError::NotDir);
        }
        let nblocks = d.size.div_ceil(BLOCK_SIZE as u64) as u32;
        for l in 0..nblocks {
            let buf = self.ensure_block(dino, LBlock::Data(l))?;
            if let Some(hit) = dir::find(&buf.data, name) {
                return Ok(Some(hit));
            }
        }
        Ok(None)
    }

    /// Adds a directory entry, growing the directory if needed.
    pub(crate) fn dir_add(
        &mut self,
        dino: Ino,
        name: &str,
        ino: Ino,
        kind: FileKind,
    ) -> Result<()> {
        let d = self.iget(dino)?.d;
        let nblocks = d.size.div_ceil(BLOCK_SIZE as u64) as u32;
        for l in 0..nblocks {
            let buf = self.ensure_block(dino, LBlock::Data(l))?;
            if dir::add(&mut buf.data, name, ino, kind)? {
                self.cache.mark_dirty(dino, LBlock::Data(l));
                let now = self.now();
                let di = self.iget_mut(dino)?;
                di.d.mtime = now;
                di.dirty = true;
                return Ok(());
            }
        }
        // Append a fresh directory block.
        let mut blk = vec![0u8; BLOCK_SIZE];
        dir::init_block(&mut blk);
        let added = dir::add(&mut blk, name, ino, kind)?;
        debug_assert!(added, "fresh directory block must accept one entry");
        self.cache.insert(
            dino,
            LBlock::Data(nblocks),
            blk.into_boxed_slice(),
            true,
            UNASSIGNED,
        );
        let now = self.now();
        let di = self.iget_mut(dino)?;
        di.d.size += BLOCK_SIZE as u64;
        di.d.blocks += 1;
        di.d.mtime = now;
        di.dirty = true;
        self.balance_cache()?;
        Ok(())
    }

    /// Removes a directory entry; returns the inode it referenced.
    pub(crate) fn dir_remove(&mut self, dino: Ino, name: &str) -> Result<Ino> {
        let d = self.iget(dino)?.d;
        let nblocks = d.size.div_ceil(BLOCK_SIZE as u64) as u32;
        for l in 0..nblocks {
            let buf = self.ensure_block(dino, LBlock::Data(l))?;
            if let Some(ino) = dir::remove(&mut buf.data, name) {
                self.cache.mark_dirty(dino, LBlock::Data(l));
                let now = self.now();
                let di = self.iget_mut(dino)?;
                di.d.mtime = now;
                di.dirty = true;
                return Ok(ino);
            }
        }
        Err(LfsError::NotFound)
    }

    /// Lists a directory.
    pub fn readdir(&mut self, path: &str) -> Result<Vec<dir::DirEntry>> {
        let dino = self.lookup(path)?;
        let d = self.iget(dino)?.d;
        if FileKind::from_mode(d.mode) != Some(FileKind::Directory) {
            return Err(LfsError::NotDir);
        }
        let nblocks = d.size.div_ceil(BLOCK_SIZE as u64) as u32;
        let mut out = Vec::new();
        for l in 0..nblocks {
            let buf = self.ensure_block(dino, LBlock::Data(l))?;
            out.extend(dir::entries(&buf.data));
        }
        Ok(out)
    }

    // -----------------------------------------------------------------
    // Creation and removal.
    // -----------------------------------------------------------------

    /// Creates a regular file; errors if it exists.
    pub fn create(&mut self, path: &str) -> Result<Ino> {
        self.charge_cpu(self.cfg.cpu.per_op);
        let (dino, name) = self.namei_parent(path)?;
        if self.dir_lookup(dino, name)?.is_some() {
            return Err(LfsError::Exists);
        }
        let ino = self.ialloc(FileKind::Regular)?;
        self.dir_add(dino, name, ino, FileKind::Regular)?;
        self.maybe_autoclean()?;
        Ok(ino)
    }

    /// Creates a directory.
    pub fn mkdir(&mut self, path: &str) -> Result<Ino> {
        self.charge_cpu(self.cfg.cpu.per_op);
        let (dino, name) = self.namei_parent(path)?;
        if self.dir_lookup(dino, name)?.is_some() {
            return Err(LfsError::Exists);
        }
        let ino = self.ialloc(FileKind::Directory)?;
        // Seed "." and "..".
        let mut blk = vec![0u8; BLOCK_SIZE];
        dir::init_block(&mut blk);
        dir::add(&mut blk, ".", ino, FileKind::Directory)?;
        dir::add(&mut blk, "..", dino, FileKind::Directory)?;
        self.cache.insert(
            ino,
            LBlock::Data(0),
            blk.into_boxed_slice(),
            true,
            UNASSIGNED,
        );
        {
            let i = self.iget_mut(ino)?;
            i.d.size = BLOCK_SIZE as u64;
            i.d.blocks = 1;
            i.d.nlink = 2;
            i.dirty = true;
        }
        self.dir_add(dino, name, ino, FileKind::Directory)?;
        let parent = self.iget_mut(dino)?;
        parent.d.nlink += 1; // the child's ".."
        parent.dirty = true;
        self.maybe_autoclean()?;
        Ok(ino)
    }

    /// Removes a file.
    pub fn unlink(&mut self, path: &str) -> Result<()> {
        self.charge_cpu(self.cfg.cpu.per_op);
        let (dino, name) = self.namei_parent(path)?;
        let (ino, kind) = self.dir_lookup(dino, name)?.ok_or(LfsError::NotFound)?;
        if kind == FileKind::Directory {
            return Err(LfsError::IsDir);
        }
        self.dir_remove(dino, name)?;
        let nlink = {
            let i = self.iget_mut(ino)?;
            i.d.nlink -= 1;
            i.d.ctime = i.d.atime.max(i.d.mtime);
            i.dirty = true;
            i.d.nlink
        };
        if nlink == 0 {
            self.release_file(ino)?;
        }
        Ok(())
    }

    /// Removes an empty directory.
    pub fn rmdir(&mut self, path: &str) -> Result<()> {
        self.charge_cpu(self.cfg.cpu.per_op);
        let (dino, name) = self.namei_parent(path)?;
        let (ino, kind) = self.dir_lookup(dino, name)?.ok_or(LfsError::NotFound)?;
        if kind != FileKind::Directory {
            return Err(LfsError::NotDir);
        }
        if ino == ROOT_INO {
            return Err(LfsError::Invalid("cannot remove the root"));
        }
        // Must hold only "." and "..".
        let d = self.iget(ino)?.d;
        let nblocks = d.size.div_ceil(BLOCK_SIZE as u64) as u32;
        for l in 0..nblocks {
            let buf = self.ensure_block(ino, LBlock::Data(l))?;
            if !dir::only_dots(&buf.data) {
                return Err(LfsError::NotEmpty);
            }
        }
        self.dir_remove(dino, name)?;
        let parent = self.iget_mut(dino)?;
        parent.d.nlink -= 1;
        parent.dirty = true;
        self.release_file(ino)?;
        Ok(())
    }

    /// Renames a file or directory. An existing target file is replaced;
    /// an existing target directory must be empty.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<()> {
        self.charge_cpu(self.cfg.cpu.per_op);
        let (sdino, sname) = self.namei_parent(from)?;
        let (ino, kind) = self.dir_lookup(sdino, sname)?.ok_or(LfsError::NotFound)?;
        let (tdino, tname) = self.namei_parent(to)?;
        if let Some((tino, tkind)) = self.dir_lookup(tdino, tname)? {
            if tino == ino {
                return Ok(());
            }
            match (kind, tkind) {
                (FileKind::Directory, FileKind::Directory) => self.rmdir(to)?,
                (FileKind::Regular, FileKind::Regular) => self.unlink(to)?,
                (FileKind::Regular, FileKind::Directory) => return Err(LfsError::IsDir),
                (FileKind::Directory, FileKind::Regular) => return Err(LfsError::NotDir),
            }
        }
        self.dir_remove(sdino, sname)?;
        self.dir_add(tdino, tname, ino, kind)?;
        if kind == FileKind::Directory && sdino != tdino {
            // Repoint "..", and fix the parents' link counts.
            let buf = self.ensure_block(ino, LBlock::Data(0))?;
            dir::remove(&mut buf.data, "..");
            dir::add(&mut buf.data, "..", tdino, FileKind::Directory)?;
            self.cache.mark_dirty(ino, LBlock::Data(0));
            self.iget_mut(sdino)?.d.nlink -= 1;
            self.idirty(sdino);
            self.iget_mut(tdino)?.d.nlink += 1;
            self.idirty(tdino);
        }
        Ok(())
    }

    /// Frees an inode's blocks and the inode itself.
    pub(crate) fn release_file(&mut self, ino: Ino) -> Result<()> {
        self.truncate(ino, 0)?;
        self.ifree(ino);
        Ok(())
    }

    // -----------------------------------------------------------------
    // Data path.
    // -----------------------------------------------------------------

    /// Reads up to `buf.len()` bytes at `offset`; returns bytes read
    /// (short at end of file).
    pub fn read(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> Result<usize> {
        self.charge_cpu(self.cfg.cpu.per_op);
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
            self.balance_cache()?;
        }
        Ok(done)
    }

    /// Writes `data` at `offset`, extending the file as needed (holes
    /// read as zeros).
    pub fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> Result<()> {
        self.charge_cpu(self.cfg.cpu.per_op);
        let end = offset + data.len() as u64;
        if end.div_ceil(BLOCK_SIZE as u64) > MAX_DATA_BLOCKS {
            return Err(LfsError::FileTooBig);
        }
        let size = self.iget(ino)?.d.size;
        let mut done = 0;
        while done < data.len() {
            let pos = offset + done as u64;
            let l = (pos / BLOCK_SIZE as u64) as u32;
            let off_in = (pos % BLOCK_SIZE as u64) as usize;
            let n = (BLOCK_SIZE - off_in).min(data.len() - done);
            let lb = LBlock::Data(l);

            let src = &data[done..done + n];
            if let Some(buf) = self.cache.get_mut(ino, lb) {
                buf.data[off_in..off_in + n].copy_from_slice(src);
                self.cache.mark_dirty(ino, lb);
            } else {
                let old = self.bmap(ino, lb)?;
                let full_overwrite = n == BLOCK_SIZE;
                let within = (l as u64) < size.div_ceil(BLOCK_SIZE as u64);
                if !full_overwrite && within && old != UNASSIGNED {
                    // Read-modify-write of an existing block.
                    let buf = self.ensure_block(ino, lb)?;
                    buf.data[off_in..off_in + n].copy_from_slice(src);
                    self.cache.mark_dirty(ino, lb);
                } else {
                    // Fresh block (or full overwrite: no need to read the
                    // old copy; keep its address for live accounting).
                    let blk: Box<[u8]> = if full_overwrite {
                        src.into()
                    } else {
                        let mut blk = vec![0u8; BLOCK_SIZE];
                        blk[off_in..off_in + n].copy_from_slice(src);
                        blk.into_boxed_slice()
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
            self.balance_cache()?;
        }
        let now = self.now();
        let i = self.iget_mut(ino)?;
        i.d.size = i.d.size.max(end);
        i.d.mtime = now;
        i.dirty = true;
        self.maybe_autoclean()?;
        Ok(())
    }

    /// Shrinks (or sparsely extends) a file to `new_size`.
    pub fn truncate(&mut self, ino: Ino, new_size: u64) -> Result<()> {
        self.charge_cpu(self.cfg.cpu.per_op);
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
                buf.data[cut..].fill(0);
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

    /// Runs the cleaner if clean segments are scarce (the paper's cleaner
    /// is a daemon; ours is invoked at operation boundaries).
    pub(crate) fn maybe_autoclean(&mut self) -> Result<()> {
        if !self.cfg.auto_clean || self.writing {
            return Ok(());
        }
        if self.clean_segs() < self.cfg.min_clean_segs {
            self.clean_until(self.cfg.min_clean_segs)?;
        }
        Ok(())
    }
}
