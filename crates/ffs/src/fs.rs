//! The FFS filesystem object and its operations.
//!
//! On-media layout:
//!
//! ```text
//! block 0              superblock
//! blocks 1..1+IT       inode table (32 dinodes per block)
//! blocks 1+IT..1+IT+BM block bitmap
//! blocks data_start..  file data and indirect blocks
//! ```
//!
//! Unlike the LFS, every logical block is "assigned a location upon
//! allocation, and each subsequent operation (read or write) is directed
//! to that location" (§3) — updates happen in place, and write
//! performance comes from write-behind plus elevator-sorted, coalesced
//! flushes.

use std::rc::Rc;

use hl_lfs::buffer::{BufCache, BUFFER_CACHE_BYTES};
use hl_lfs::config::CpuCosts;
use hl_lfs::dir;
use hl_lfs::error::{LfsError, Result};
use hl_lfs::ondisk::{self, Dinode};
use hl_lfs::ptree::{self, Home};
use hl_lfs::types::{
    BlockAddr, FileKind, Ino, LBlock, DINODE_SIZE, INODES_PER_BLOCK, ROOT_INO, UNASSIGNED,
};
use hl_lfs::ufs::{Ufs, MAXCONTIG};
use hl_sim::time::SimTime;
use hl_sim::Clock;
use hl_vdev::{Block, BlockDev, BLOCK_SIZE};

use crate::alloc::BlockMap;

/// FFS magic number.
const FFS_MAGIC: u64 = 0x4647_4c49_4646_5331;

/// Inode table capacity, recorded in the superblock.
const NINODES: u32 = 4096;
/// Largest coalesced run the flush elevator writes at once. Writes
/// coalesce beyond [`MAXCONTIG`] because the flusher chains adjacent
/// clusters (this is why Table 2's FFS writes run at media speed).
const MAX_FLUSH_RUN: usize = 256;

/// FFS configuration.
#[derive(Clone)]
pub struct FfsConfig {
    /// Shared virtual clock.
    pub clock: Clock,
    /// CPU cost model.
    pub cpu: CpuCosts,
}

impl FfsConfig {
    /// The paper's benchmark configuration.
    pub fn paper(clock: Clock) -> FfsConfig {
        FfsConfig {
            clock,
            cpu: CpuCosts::ffs(),
        }
    }
}

/// The Fast File System.
pub struct Ffs {
    dev: Rc<dyn BlockDev>,
    cfg: FfsConfig,
    itable: Vec<Dinode>,
    itable_dirty: Vec<bool>,
    bmap_blocks: u32,
    itable_blocks: u32,
    blocks: BlockMap,
    cache: BufCache,
    /// Per-file sequential read-ahead hint (clustering only engages on
    /// detected-sequential access).
    seq_hint: std::collections::HashMap<Ino, u32>,
}

impl Ffs {
    fn data_start(nblocks: u64, ninodes: u32) -> (u32, u32, u64) {
        let itable_blocks = ninodes.div_ceil(INODES_PER_BLOCK as u32);
        let bmap_blocks = (nblocks.div_ceil(8 * BLOCK_SIZE as u64)) as u32;
        let data_start = 1 + itable_blocks as u64 + bmap_blocks as u64;
        (itable_blocks, bmap_blocks, data_start)
    }

    /// Formats a fresh FFS on `dev`.
    pub fn mkfs(dev: Rc<dyn BlockDev>, cfg: FfsConfig) -> Result<()> {
        let nblocks = dev.nblocks();
        let (itable_blocks, bmap_blocks, data_start) = Self::data_start(nblocks, NINODES);
        if data_start + 16 > nblocks {
            return Err(LfsError::Invalid("device too small for an FFS"));
        }
        let mut sb = vec![0u8; BLOCK_SIZE];
        ondisk::put_u64(&mut sb, 0, FFS_MAGIC);
        ondisk::put_u32(&mut sb, 8, NINODES);
        ondisk::put_u32(&mut sb, 12, MAXCONTIG);
        ondisk::put_u64(&mut sb, 16, nblocks);
        dev.poke(0, &sb)?;

        let mut fs = Ffs {
            itable: vec![Dinode::empty(); NINODES as usize],
            itable_dirty: vec![false; NINODES as usize],
            bmap_blocks,
            itable_blocks,
            blocks: BlockMap::new(nblocks, data_start),
            cache: BufCache::new(BUFFER_CACHE_BYTES, BLOCK_SIZE),
            dev,
            cfg,
            seq_hint: std::collections::HashMap::new(),
        };
        // Root directory.
        let mut root = Dinode::new(FileKind::Directory, 0o755, ROOT_INO, 1, fs.now());
        root.nlink = 2;
        root.size = BLOCK_SIZE as u64;
        fs.itable[ROOT_INO as usize] = root;
        fs.itable_dirty[ROOT_INO as usize] = true;
        let mut blk = Block::zeroed(BLOCK_SIZE);
        let bytes = blk.make_mut();
        dir::init_block(bytes);
        dir::add(bytes, ".", ROOT_INO, FileKind::Directory)?;
        dir::add(bytes, "..", ROOT_INO, FileKind::Directory)?;
        fs.append(ROOT_INO, 0, blk)?;
        fs.sync()
    }

    /// Mounts an existing FFS (clean unmount assumed).
    pub fn mount(dev: Rc<dyn BlockDev>, cfg: FfsConfig) -> Result<Ffs> {
        let mut sb = vec![0u8; BLOCK_SIZE];
        dev.peek(0, &mut sb)?;
        if ondisk::get_u64(&sb, 0) != FFS_MAGIC {
            return Err(LfsError::Corrupt("bad FFS magic"));
        }
        let ninodes = ondisk::get_u32(&sb, 8);
        let nblocks = ondisk::get_u64(&sb, 16);
        let (itable_blocks, bmap_blocks, data_start) = Self::data_start(nblocks, ninodes);

        // Inode table.
        let mut itable = Vec::with_capacity(ninodes as usize);
        let mut blk = vec![0u8; BLOCK_SIZE];
        for bi in 0..itable_blocks {
            dev.peek(1 + bi as u64, &mut blk)?;
            for slot in 0..INODES_PER_BLOCK {
                if itable.len() >= ninodes as usize {
                    break;
                }
                itable.push(Dinode::decode(&blk[slot * DINODE_SIZE..]));
            }
        }
        // Bitmap.
        let mut raw = vec![0u8; bmap_blocks as usize * BLOCK_SIZE];
        for bi in 0..bmap_blocks {
            dev.peek(
                1 + itable_blocks as u64 + bi as u64,
                &mut raw[bi as usize * BLOCK_SIZE..(bi as usize + 1) * BLOCK_SIZE],
            )?;
        }
        let blocks = BlockMap::decode(nblocks, data_start, &raw);

        Ok(Ffs {
            itable_dirty: vec![false; itable.len()],
            itable,
            bmap_blocks,
            itable_blocks,
            blocks,
            cache: BufCache::new(BUFFER_CACHE_BYTES, BLOCK_SIZE),
            dev,
            cfg,
            seq_hint: std::collections::HashMap::new(),
        })
    }

    fn charge_cpu(&self, us: SimTime) {
        if us > 0 {
            self.cfg.clock.advance_by(us);
        }
    }

    fn read_dev(&mut self, addr: BlockAddr, count: u32) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; count as usize * BLOCK_SIZE];
        let slot = self.dev.read(self.cfg.clock.now(), addr as u64, &mut buf)?;
        self.cfg.clock.advance_to(slot.end);
        Ok(buf)
    }

    fn write_dev(&mut self, addr: BlockAddr, buf: &[u8]) -> Result<()> {
        let slot = self.dev.write(self.cfg.clock.now(), addr as u64, buf)?;
        self.cfg.clock.advance_to(slot.end);
        Ok(())
    }

    /// The shared clock.
    pub fn clock_handle(&self) -> Clock {
        self.cfg.clock.clone()
    }

    /// Drops clean cached blocks (benchmark cache flushing, §7.1).
    pub fn drop_caches(&mut self) {
        self.cache.drop_clean();
    }

    /// Free data blocks remaining.
    pub fn free_blocks(&self) -> u64 {
        self.blocks.free_blocks()
    }

    // -----------------------------------------------------------------
    // Inodes and block mapping.
    // -----------------------------------------------------------------

    /// A live inode. Live means `mode != 0`, not `nlink != 0`: the
    /// shared `unlink` drops the last link *before* [`Ufs::release`]
    /// runs, and `bmap` must still resolve the blocks being freed.
    fn inode(&self, ino: Ino) -> Result<&Dinode> {
        self.itable
            .get(ino as usize)
            .filter(|d| d.mode != 0)
            .ok_or(LfsError::NotFound)
    }

    fn inode_mut(&mut self, ino: Ino) -> Result<&mut Dinode> {
        self.inode(ino)?;
        self.itable_dirty[ino as usize] = true;
        Ok(&mut self.itable[ino as usize])
    }

    /// Resolves `(ino, lb)` to a device address, `UNASSIGNED` for holes.
    fn bmap(&mut self, ino: Ino, lb: LBlock) -> Result<BlockAddr> {
        match ptree::home(lb) {
            Home::Inode(i) => Ok(self.inode(ino)?.db[i]),
            Home::InodeIndirect(i) => Ok(self.inode(ino)?.ib[i]),
            Home::InBlock(parent, idx) => self.ptr_in(ino, parent, idx),
            Home::TooBig => Err(LfsError::FileTooBig),
        }
    }

    fn ptr_in(&mut self, ino: Ino, parent: LBlock, idx: usize) -> Result<BlockAddr> {
        let paddr = self.bmap(ino, parent)?;
        if paddr == UNASSIGNED && self.cache.get(ino, parent).is_none() {
            return Ok(UNASSIGNED);
        }
        self.ensure_block(ino, parent)?;
        let buf = self.cache.get(ino, parent).expect("ensured");
        Ok(ondisk::get_u32(&buf.data, idx * 4))
    }

    /// Allocates (if needed) the block for `(ino, lb)` and returns its
    /// address. Allocation assigns the location permanently (§3).
    fn alloc_bmap(&mut self, ino: Ino, lb: LBlock) -> Result<BlockAddr> {
        let existing = self.bmap(ino, lb)?;
        if existing != UNASSIGNED {
            return Ok(existing);
        }
        // Contiguity hint: one past the previous logical block.
        let hint = match lb {
            LBlock::Data(l) if l > 0 => {
                let prev = self.bmap(ino, LBlock::Data(l - 1))?;
                (prev != UNASSIGNED).then(|| prev as u64 + 1)
            }
            _ => None,
        };
        let addr = self.blocks.alloc(hint).ok_or(LfsError::NoSpace)? as BlockAddr;
        // Install the pointer.
        match ptree::home(lb) {
            Home::Inode(i) => self.inode_mut(ino)?.db[i] = addr,
            Home::InodeIndirect(i) => self.inode_mut(ino)?.ib[i] = addr,
            Home::InBlock(parent, idx) => self.set_ptr_in(ino, parent, idx, addr)?,
            Home::TooBig => return Err(LfsError::FileTooBig),
        }
        self.inode_mut(ino)?.blocks += 1;
        Ok(addr)
    }

    fn set_ptr_in(&mut self, ino: Ino, parent: LBlock, idx: usize, addr: BlockAddr) -> Result<()> {
        // Materialize the parent indirect block (allocating it if new).
        let paddr = self.bmap(ino, parent)?;
        if paddr == UNASSIGNED && self.cache.get(ino, parent).is_none() {
            let new_paddr = self.alloc_bmap(ino, parent)?;
            self.cache
                .insert(ino, parent, ptree::fresh_indirect(), true, new_paddr);
        } else {
            self.ensure_block(ino, parent)?;
        }
        let buf = self.cache.get_mut(ino, parent).expect("materialized");
        ondisk::put_u32(buf.data.make_mut(), idx * 4, addr);
        self.cache.mark_dirty(ino, parent);
        Ok(())
    }

    /// Brings a block into the cache, with clustered read-ahead on
    /// misses.
    fn ensure_block(&mut self, ino: Ino, lb: LBlock) -> Result<()> {
        if self.cache.get(ino, lb).is_some() {
            return Ok(());
        }
        let addr = self.bmap(ino, lb)?;
        if addr == UNASSIGNED {
            self.cache
                .insert(ino, lb, Block::zeroed(BLOCK_SIZE), false, UNASSIGNED);
            return Ok(());
        }
        let mut run = 1u32;
        if let LBlock::Data(l0) = lb {
            let sequential = l0 == 0 || self.seq_hint.get(&ino) == Some(&l0);
            let limit = if sequential { MAXCONTIG } else { 1 };
            let size_blocks = self.inode(ino)?.size.div_ceil(BLOCK_SIZE as u64);
            while run < limit && ((l0 + run) as u64) < size_blocks {
                let next = LBlock::Data(l0 + run);
                if self.cache.get(ino, next).is_some() || self.bmap(ino, next)? != addr + run {
                    break;
                }
                run += 1;
            }
        }
        let buf = self.read_dev(addr, run)?;
        self.charge_cpu(self.cfg.cpu.read_block * run as u64);
        if let LBlock::Data(l0) = lb {
            for (i, blk) in (0..run).zip(buf.chunks_exact(BLOCK_SIZE)) {
                self.cache.insert(
                    ino,
                    LBlock::Data(l0 + i),
                    Block::copy_of(blk),
                    false,
                    addr + i,
                );
            }
        } else {
            self.cache
                .insert(ino, lb, Block::copy_of(&buf), false, addr);
        }
        Ok(())
    }

    /// Elevator flush: sorts dirty blocks by device address and writes
    /// coalesced runs.
    fn flush_data(&mut self) -> Result<()> {
        let mut dirty: Vec<(Ino, LBlock, BlockAddr)> = self.cache.dirty_blocks().collect();
        debug_assert!(
            dirty.iter().all(|&(_, _, a)| a != UNASSIGNED),
            "FFS dirty block without an assigned address"
        );
        dirty.sort_by_key(|&(_, _, addr)| addr);
        let mut i = 0;
        while i < dirty.len() {
            // Extend a contiguous run.
            let mut j = i + 1;
            while j < dirty.len() && dirty[j].2 == dirty[j - 1].2 + 1 && (j - i) < MAX_FLUSH_RUN {
                j += 1;
            }
            let mut image = vec![0u8; (j - i) * BLOCK_SIZE];
            for (k, &(ino, lb, _)) in dirty[i..j].iter().enumerate() {
                let b = self.cache.get(ino, lb).expect("dirty is pinned");
                image[k * BLOCK_SIZE..(k + 1) * BLOCK_SIZE].copy_from_slice(&b.data);
            }
            self.write_dev(dirty[i].2, &image)?;
            self.charge_cpu(self.cfg.cpu.write_block * (j - i) as u64);
            for &(ino, lb, addr) in &dirty[i..j] {
                self.cache.mark_clean(ino, lb, addr);
            }
            i = j;
        }
        Ok(())
    }

    /// Flushes data, the inode table, and the bitmap.
    pub fn sync(&mut self) -> Result<()> {
        self.flush_data()?;
        // Dirty inode-table blocks.
        let mut blk = vec![0u8; BLOCK_SIZE];
        for bi in 0..self.itable_blocks as usize {
            let lo = bi * INODES_PER_BLOCK;
            let hi = (lo + INODES_PER_BLOCK).min(self.itable.len());
            if lo >= self.itable.len() || !self.itable_dirty[lo..hi].iter().any(|&d| d) {
                continue;
            }
            blk.fill(0);
            for (slot, d) in self.itable[lo..hi].iter().enumerate() {
                d.encode(&mut blk[slot * DINODE_SIZE..(slot + 1) * DINODE_SIZE]);
            }
            self.write_dev(1 + bi as u32, &blk)?;
            for f in &mut self.itable_dirty[lo..hi] {
                *f = false;
            }
        }
        // Bitmap (written wholesale; it is tiny).
        let mut raw = vec![0u8; self.bmap_blocks as usize * BLOCK_SIZE];
        self.blocks
            .encode(&mut raw[..self.dev.nblocks().div_ceil(8) as usize]);
        let base = 1 + self.itable_blocks;
        self.write_dev(base, &raw)?;
        self.cache.shrink_to_capacity();
        Ok(())
    }

    // -----------------------------------------------------------------
    // Data path.
    // -----------------------------------------------------------------

    /// Reads up to `buf.len()` bytes at `offset`.
    pub fn read(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> Result<usize> {
        self.charge_op();
        let size = {
            let now = self.now();
            let d = self.inode_mut(ino)?;
            d.atime = now;
            d.size
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
            self.ensure_block(ino, LBlock::Data(l))?;
            let src = self.cache.get(ino, LBlock::Data(l)).expect("ensured");
            buf[done..done + n].copy_from_slice(&src.data[off_in..off_in + n]);
            self.seq_hint.insert(ino, l + 1);
            done += n;
            self.balance()?;
        }
        Ok(done)
    }

    /// Writes `data` at `offset` (write-behind; `sync` persists).
    pub fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> Result<()> {
        self.charge_op();
        let size = self.inode(ino)?.size;
        let mut done = 0;
        while done < data.len() {
            let pos = offset + done as u64;
            let l = (pos / BLOCK_SIZE as u64) as u32;
            let off_in = (pos % BLOCK_SIZE as u64) as usize;
            let n = (BLOCK_SIZE - off_in).min(data.len() - done);
            let lb = LBlock::Data(l);
            let addr = self.alloc_bmap(ino, lb)?;
            if self.cache.get(ino, lb).is_none() {
                let within = (l as u64) < size.div_ceil(BLOCK_SIZE as u64);
                if n < BLOCK_SIZE && within {
                    self.ensure_block(ino, lb)?;
                } else {
                    self.cache
                        .insert(ino, lb, Block::zeroed(BLOCK_SIZE), false, addr);
                }
            }
            let buf = self.cache.get_mut(ino, lb).expect("present");
            buf.data.make_mut()[off_in..off_in + n].copy_from_slice(&data[done..done + n]);
            buf.addr = addr;
            self.cache.mark_dirty(ino, lb);
            done += n;
            self.balance()?;
        }
        let now = self.now();
        let end = offset + data.len() as u64;
        let d = self.inode_mut(ino)?;
        d.size = d.size.max(end);
        d.mtime = now;
        Ok(())
    }
}

impl Ufs for Ffs {
    fn now(&self) -> u64 {
        self.cfg.clock.now()
    }

    fn charge_op(&self) {
        self.charge_cpu(self.cfg.cpu.per_op);
    }

    fn dinode(&mut self, ino: Ino) -> Result<Dinode> {
        self.inode(ino).copied()
    }

    fn update(&mut self, ino: Ino, f: impl FnOnce(&mut Dinode)) -> Result<()> {
        f(self.inode_mut(ino)?);
        Ok(())
    }

    fn ialloc(&mut self, kind: FileKind) -> Result<Ino> {
        let ino = (ROOT_INO + 1..self.itable.len() as Ino)
            .find(|&i| self.itable[i as usize].mode == 0)
            .ok_or(LfsError::NoInodes)?;
        let gen = self.itable[ino as usize].gen + 1;
        self.itable[ino as usize] = Dinode::new(kind, 0o644, ino, gen, self.now());
        self.itable_dirty[ino as usize] = true;
        Ok(ino)
    }

    fn release(&mut self, ino: Ino) -> Result<()> {
        let nblocks = self.inode(ino)?.size.div_ceil(BLOCK_SIZE as u64);
        for lb in ptree::blocks(0..nblocks) {
            let addr = self.bmap(ino, lb)?;
            if addr != UNASSIGNED {
                self.blocks.release(addr as u64);
            }
        }
        self.cache.remove_file(ino);
        let d = self.inode_mut(ino)?;
        *d = Dinode {
            gen: d.gen,
            ..Dinode::empty()
        };
        Ok(())
    }

    fn block(&mut self, ino: Ino, l: u32) -> Result<&[u8]> {
        self.ensure_block(ino, LBlock::Data(l))?;
        Ok(&self
            .cache
            .get_mut(ino, LBlock::Data(l))
            .expect("ensured")
            .data)
    }

    fn block_mut(&mut self, ino: Ino, l: u32) -> Result<&mut [u8]> {
        self.ensure_block(ino, LBlock::Data(l))?;
        let buf = self.cache.get_mut(ino, LBlock::Data(l)).expect("ensured");
        Ok(buf.data.make_mut())
    }

    fn dirtied(&mut self, ino: Ino, l: u32) {
        self.cache.mark_dirty(ino, LBlock::Data(l));
    }

    fn append(&mut self, ino: Ino, l: u32, data: Block) -> Result<()> {
        let addr = self.alloc_bmap(ino, LBlock::Data(l))?;
        self.cache.insert(ino, LBlock::Data(l), data, true, addr);
        Ok(())
    }

    /// Flushes write-behind data if the cache is over capacity.
    fn balance(&mut self) -> Result<()> {
        if !self.cache.over_capacity() {
            return Ok(());
        }
        self.cache.shrink_to_capacity();
        if self.cache.over_capacity() {
            self.flush_data()?;
            self.cache.shrink_to_capacity();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_vdev::{Disk, DiskProfile};

    fn fixture(nblocks: u64) -> (Rc<Disk>, Clock) {
        let clock = Clock::new();
        (Rc::new(Disk::new(DiskProfile::RZ57, nblocks, None)), clock)
    }

    fn mkffs(nblocks: u64) -> (Ffs, Clock) {
        let (dev, clock) = fixture(nblocks);
        Ffs::mkfs(dev.clone(), FfsConfig::paper(clock.clone())).unwrap();
        (
            Ffs::mount(dev, FfsConfig::paper(clock.clone())).unwrap(),
            clock,
        )
    }

    fn patterned(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(17).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn create_write_read_round_trip() {
        let (mut fs, _) = mkffs(50_000);
        let ino = fs.create("/f").unwrap();
        let data = patterned(300_000, 1);
        fs.write(ino, 0, &data).unwrap();
        fs.sync().unwrap();
        fs.drop_caches();
        let mut back = vec![0u8; data.len()];
        assert_eq!(fs.read(ino, 0, &mut back).unwrap(), data.len());
        assert_eq!(back, data);
    }

    #[test]
    fn data_survives_remount() {
        let (dev, clock) = fixture(50_000);
        Ffs::mkfs(dev.clone(), FfsConfig::paper(clock.clone())).unwrap();
        let data = patterned(100_000, 2);
        {
            let mut fs = Ffs::mount(dev.clone(), FfsConfig::paper(clock.clone())).unwrap();
            let ino = fs.create("/persist").unwrap();
            fs.write(ino, 0, &data).unwrap();
            fs.sync().unwrap();
        }
        let mut fs = Ffs::mount(dev, FfsConfig::paper(clock)).unwrap();
        let ino = fs.lookup("/persist").unwrap();
        let mut back = vec![0u8; data.len()];
        fs.read(ino, 0, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn sequential_layout_is_contiguous() {
        let (mut fs, _) = mkffs(50_000);
        let ino = fs.create("/seq").unwrap();
        fs.write(ino, 0, &patterned(64 * 4096, 3)).unwrap();
        fs.sync().unwrap();
        // The indirect block allocated at logical block 12 may break the
        // physical run once; everything else must be contiguous.
        let mut breaks = 0;
        let mut prev = fs.bmap(ino, LBlock::Data(0)).unwrap();
        for l in 1..64 {
            let addr = fs.bmap(ino, LBlock::Data(l)).unwrap();
            if addr != prev + 1 {
                breaks += 1;
            }
            prev = addr;
        }
        assert!(breaks <= 1, "{breaks} contiguity breaks in a fresh file");
    }

    #[test]
    fn unlink_releases_space() {
        let (mut fs, _) = mkffs(20_000);
        let free0 = fs.free_blocks();
        let ino = fs.create("/gone").unwrap();
        fs.write(ino, 0, &patterned(400_000, 4)).unwrap();
        fs.sync().unwrap();
        assert!(fs.free_blocks() < free0);
        fs.unlink("/gone").unwrap();
        assert_eq!(fs.free_blocks(), free0);
        assert!(fs.lookup("/gone").is_err());
    }

    #[test]
    fn directories_nest() {
        let (mut fs, _) = mkffs(20_000);
        fs.mkdir("/d").unwrap();
        let ino = fs.create("/d/f").unwrap();
        fs.write(ino, 0, b"x").unwrap();
        assert_eq!(fs.lookup("/d/f").unwrap(), ino);
        let names: Vec<String> = fs
            .readdir("/d")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert!(names.contains(&"f".to_string()));
    }

    /// Regression: `inode_mut` indexed `itable_dirty` before its bounds
    /// check and panicked where the LFS returns `NotFound`.
    #[test]
    fn an_out_of_range_inode_number_is_not_found() {
        let (mut fs, _) = mkffs(20_000);
        let mut buf = [0u8; 8];
        for ino in [0, 999_999, Ino::MAX] {
            assert_eq!(fs.read(ino, 0, &mut buf), Err(LfsError::NotFound));
            assert_eq!(fs.write(ino, 0, b"x"), Err(LfsError::NotFound));
            assert_eq!(fs.stat(ino), Err(LfsError::NotFound));
        }
    }

    /// Regression: the hand copy listed a regular file as an empty
    /// directory.
    #[test]
    fn readdir_of_a_regular_file_is_not_a_directory() {
        let (mut fs, _) = mkffs(20_000);
        let ino = fs.create("/f").unwrap();
        fs.write(ino, 0, b"not directory entries").unwrap();
        assert_eq!(fs.readdir("/f"), Err(LfsError::NotDir));
    }

    /// Regression: a directory's `mtime` never moved.
    #[test]
    fn a_directory_mtime_moves_with_its_entries() {
        let (mut fs, clock) = mkffs(20_000);
        let mut last = fs.stat(ROOT_INO).unwrap().mtime;
        let mut moved = |fs: &mut Ffs, what: &str| {
            let now = fs.stat(ROOT_INO).unwrap().mtime;
            assert!(now > last, "root mtime did not move on {what}");
            last = now;
            clock.advance_by(5_000_000);
        };
        clock.advance_by(5_000_000);
        fs.create("/f").unwrap();
        moved(&mut fs, "create");
        fs.mkdir("/d").unwrap();
        moved(&mut fs, "mkdir");
        fs.unlink("/f").unwrap();
        moved(&mut fs, "unlink");
        fs.rmdir("/d").unwrap();
        moved(&mut fs, "rmdir");
    }

    #[test]
    fn large_files_reach_indirect_range() {
        let (mut fs, _) = mkffs(60_000);
        let ino = fs.create("/big").unwrap();
        let data = patterned(5 * 1024 * 1024, 5);
        fs.write(ino, 0, &data).unwrap();
        fs.sync().unwrap();
        fs.drop_caches();
        let mut back = vec![0u8; data.len()];
        fs.read(ino, 0, &mut back).unwrap();
        assert_eq!(back, data);
    }

    /// Byte pin of a file that reaches `Ind2Child(1)` (2 305 data and 4
    /// indirect blocks): every block the life leaves on the device, the
    /// simulated clock, and the allocator back where it started.
    #[test]
    fn nine_megabyte_life_matches_the_pinned_image() {
        let (dev, clock) = fixture(20_000);
        Ffs::mkfs(dev.clone(), FfsConfig::paper(clock.clone())).unwrap();
        let mut fs = Ffs::mount(dev.clone(), FfsConfig::paper(clock.clone())).unwrap();
        let free0 = fs.free_blocks();
        let ino = fs.create("/deep").unwrap();
        let data = patterned(9 * 1024 * 1024 + 777, 8);
        fs.write(ino, 0, &data).unwrap();
        fs.sync().unwrap();
        assert_eq!(fs.stat(ino).unwrap().blocks, 2_309);
        assert_eq!(fs.free_blocks(), free0 - 2_309);
        fs.drop_caches();
        let mut back = vec![0u8; data.len()];
        assert_eq!(fs.read(ino, 0, &mut back).unwrap(), data.len());
        assert!(back == data, "read-back diverged");
        fs.unlink("/deep").unwrap();
        fs.sync().unwrap();
        assert_eq!(fs.free_blocks(), free0);

        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut block = vec![0u8; BLOCK_SIZE];
        for b in 0..dev.nblocks() {
            dev.peek(b, &mut block).unwrap();
            for &byte in &block {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
        }
        assert_eq!((digest, clock.now()), (0x8f9e_4b55_cb90_f0a9, 19_443_650));
    }

    #[test]
    fn sequential_write_runs_near_media_speed() {
        // Table 2 shape: FFS sequential writes ≈ raw disk write speed.
        let (mut fs, clock) = mkffs(100_000);
        let ino = fs.create("/seq").unwrap();
        let chunk = patterned(1024 * 1024, 6);
        let t0 = clock.now();
        for i in 0..10u64 {
            fs.write(ino, i * chunk.len() as u64, &chunk).unwrap();
        }
        fs.sync().unwrap();
        let kbs = hl_sim::time::throughput_kbs(10 << 20, clock.now() - t0);
        assert!(kbs > 850.0, "FFS seq write {kbs:.0} KB/s");
        assert!(kbs < 1100.0, "FFS seq write implausibly fast: {kbs:.0}");
    }

    #[test]
    fn random_reads_are_seek_bound() {
        let (mut fs, clock) = mkffs(100_000);
        let ino = fs.create("/r").unwrap();
        let chunk = patterned(1024 * 1024, 7);
        for i in 0..10u64 {
            fs.write(ino, i * chunk.len() as u64, &chunk).unwrap();
        }
        fs.sync().unwrap();
        fs.drop_caches();
        let t0 = clock.now();
        let mut frame = vec![0u8; 4096];
        for i in 0..250u64 {
            let off = (i * 997 % 2560) * 4096;
            fs.read(ino, off, &mut frame).unwrap();
        }
        let kbs = hl_sim::time::throughput_kbs(250 * 4096, clock.now() - t0);
        assert!(kbs < 400.0, "random reads should seek: {kbs:.0} KB/s");
        assert!(kbs > 50.0, "random reads implausibly slow: {kbs:.0} KB/s");
    }
}
