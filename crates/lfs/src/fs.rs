//! The filesystem object: state, block mapping, inode management.
//!
//! On-media layout (base LFS; HighLight substitutes its uniform address
//! map, Figure 4):
//!
//! ```text
//! block 0        superblock
//! block 1        checkpoint block (two alternating 2 KB slots)
//! block 2..      segments 0..nsegs, each seg_bytes long; the trailing
//!                partial segment is unusable (§6.3)
//! ```
//!
//! The authoritative segment-usage table and inode map live in core and
//! are serialized into the *ifile* (inode 1) at every checkpoint — the
//! 4.4BSD arrangement, where the in-core tables are current and the
//! on-disk ifile is as of the last checkpoint. Crash recovery re-reads
//! the ifile, rolls the log forward, and audits live-byte counts.

use std::collections::hash_map::{Entry, HashMap};
use std::rc::Rc;

use hl_sim::time::SimTime;
use hl_sim::Clock;
use hl_vdev::backing::BlockHashBuilder;
use hl_vdev::{Block, BlockDev, BLOCK_SIZE};

use crate::buffer::{Buf, BufCache, BUFFER_CACHE_BYTES};
use crate::config::{AddressMap, LfsConfig, TertiaryHooks};
use crate::error::{LfsError, Result};
use crate::ondisk::{Dinode, IfileEntry, SegUse, Superblock};
use crate::ptree::{self, Home};
use crate::stats::LfsStats;
use crate::types::{BlockAddr, FileKind, Ino, LBlock, SegNo, IFILE_INO, ROOT_INO, UNASSIGNED};
use crate::ufs::{Ufs, MAXCONTIG};

/// Device block holding the superblock.
pub const SUPERBLOCK_ADDR: BlockAddr = 0;
/// Device block holding the two checkpoint slots.
pub const CHECKPOINT_ADDR: BlockAddr = 1;
/// Blocks reserved ahead of segment 0 (the "boot blocks" of §6.3): the
/// devices' segment origin, where a disk's store starts its runs.
pub const BOOT_BLOCKS: u32 = hl_vdev::SEGMENT_ORIGIN;

/// An in-core inode.
#[derive(Clone, Debug)]
pub struct CachedInode {
    /// The on-disk image.
    pub d: Dinode,
    /// Must be rewritten by the segment writer.
    pub dirty: bool,
    /// Only times changed (deferred like BSD's `IN_ACCESS`); flushed at
    /// checkpoint without forcing a data write.
    pub atime_dirty: bool,
}

/// `stat(2)`-style file metadata.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stat {
    /// Inode number.
    pub ino: Ino,
    /// File kind.
    pub kind: FileKind,
    /// Size in bytes.
    pub size: u64,
    /// Link count.
    pub nlink: u16,
    /// Access time (simulated µs).
    pub atime: u64,
    /// Modification time (simulated µs).
    pub mtime: u64,
    /// Change time (simulated µs).
    pub ctime: u64,
    /// Blocks attributed (data + indirect).
    pub blocks: u32,
}

/// The log-structured filesystem.
pub struct Lfs {
    pub(crate) dev: Rc<dyn BlockDev>,
    pub(crate) cfg: LfsConfig,
    pub(crate) amap: Rc<dyn AddressMap>,
    pub(crate) hooks: Rc<dyn TertiaryHooks>,
    pub(crate) sb: Superblock,

    pub(crate) cache: BufCache,
    /// In-core inodes. Never iterated in an order that reaches an output
    /// (the writer sorts what it collects), so it hashes with the cheap
    /// fixed mixer the buffer cache uses.
    pub(crate) inodes: HashMap<Ino, CachedInode, BlockHashBuilder>,

    /// Authoritative segment usage table (serialized to the ifile at
    /// checkpoint).
    pub(crate) seguse: Vec<SegUse>,
    /// Authoritative inode map.
    pub(crate) imap: Vec<IfileEntry>,
    /// Head of the free-inode list (`UNASSIGNED` = none; the map grows).
    pub(crate) free_head: u32,

    /// Segment receiving the log tail.
    pub(crate) cur_seg: SegNo,
    /// Next free block offset within `cur_seg`.
    pub(crate) cur_off: u32,
    /// Pre-selected continuation segment (`ss_next` threading).
    pub(crate) next_seg: SegNo,

    /// Serial for the next partial segment.
    pub(crate) log_serial: u64,
    /// Serial for the next tertiary (migration) partial segment.
    pub(crate) tert_serial: u64,
    /// Serial of the last checkpoint.
    pub(crate) ckpt_serial: u64,
    /// Address of the inode block holding the ifile inode (persisted in
    /// the checkpoint record, like the 4.4BSD superblock field).
    pub(crate) ifile_inode_addr: BlockAddr,

    pub(crate) stats: LfsStats,
    /// Re-entrancy guard: the segment writer must not recurse.
    pub(crate) writing: bool,
    /// Per-file read-ahead hint: the logical block a sequential reader
    /// would touch next. Clustered read-ahead engages only when a miss
    /// matches the hint (real 4.4BSD clustering detects sequentiality).
    pub(crate) seq_hint: HashMap<Ino, u32, BlockHashBuilder>,
    /// One shared block of zeros: what a hole reads as, and the
    /// placeholder a handle array holds until a device lends it blocks.
    pub(crate) zero: Block,
}

impl Lfs {
    // -----------------------------------------------------------------
    // Construction.
    // -----------------------------------------------------------------

    /// Formats a fresh filesystem on `dev` and leaves a valid checkpoint.
    pub fn mkfs(
        dev: Rc<dyn BlockDev>,
        amap: Rc<dyn AddressMap>,
        hooks: Rc<dyn TertiaryHooks>,
        cfg: LfsConfig,
    ) -> Result<()> {
        let nsegs = amap.nsegs_secondary();
        if nsegs < 4 {
            return Err(LfsError::Invalid("device too small for an LFS"));
        }
        let sb = Superblock {
            block_size: BLOCK_SIZE as u32,
            seg_bytes: cfg.seg_bytes,
            nsegs,
            seg_start: amap.seg_base(0),
            summary_bytes: cfg.summary_bytes,
            cache_segs: cfg.cache_segs,
            nblocks: dev.nblocks(),
            created: cfg.clock.now(),
        };
        let mut fs = Lfs::fresh(dev, amap, hooks, cfg, sb);

        // Well-known inodes: 0 unused, 1 ifile, 2 root.
        fs.imap = vec![
            IfileEntry::free(UNASSIGNED),
            IfileEntry {
                version: 1,
                daddr: UNASSIGNED,
                free_next: UNASSIGNED,
            },
            IfileEntry {
                version: 1,
                daddr: UNASSIGNED,
                free_next: UNASSIGNED,
            },
        ];
        fs.free_head = UNASSIGNED;

        let now = fs.now();
        fs.inodes.insert(
            IFILE_INO,
            CachedInode {
                d: Dinode::new(FileKind::Regular, 0o600, IFILE_INO, 1, now),
                dirty: true,
                atime_dirty: false,
            },
        );

        let mut root = Dinode::new(FileKind::Directory, 0o755, ROOT_INO, 1, now);
        root.nlink = 2; // "." and the parent link from itself
        root.size = BLOCK_SIZE as u64;
        fs.inodes.insert(
            ROOT_INO,
            CachedInode {
                d: root,
                dirty: true,
                atime_dirty: false,
            },
        );

        // Root directory contents.
        let mut blk = Block::zeroed(BLOCK_SIZE);
        let bytes = blk.make_mut();
        crate::dir::init_block(bytes);
        crate::dir::add(bytes, ".", ROOT_INO, FileKind::Directory)?;
        crate::dir::add(bytes, "..", ROOT_INO, FileKind::Directory)?;
        fs.append(ROOT_INO, 0, blk)?;

        // Persist: superblock (setup, untimed), then data + checkpoint.
        let mut sb_block = vec![0u8; BLOCK_SIZE];
        fs.sb.encode(&mut sb_block);
        fs.dev.poke(SUPERBLOCK_ADDR as u64, &sb_block)?;
        // Zero the checkpoint block so stale checkpoints never resurface.
        fs.dev
            .poke(CHECKPOINT_ADDR as u64, &vec![0u8; BLOCK_SIZE])?;
        fs.checkpoint()?;
        Ok(())
    }

    /// Builds the volatile shell shared by `mkfs` and recovery.
    pub(crate) fn fresh(
        dev: Rc<dyn BlockDev>,
        amap: Rc<dyn AddressMap>,
        hooks: Rc<dyn TertiaryHooks>,
        cfg: LfsConfig,
        sb: Superblock,
    ) -> Lfs {
        let nsegs = sb.nsegs;
        Lfs {
            cache: BufCache::new(BUFFER_CACHE_BYTES, BLOCK_SIZE),
            dev,
            amap,
            hooks,
            sb,
            cfg,
            inodes: HashMap::default(),
            seguse: (0..nsegs).map(|_| SegUse::clean(sb.seg_bytes)).collect(),
            imap: Vec::new(),
            free_head: UNASSIGNED,
            cur_seg: 0,
            cur_off: 0,
            next_seg: 1,
            log_serial: 1,
            tert_serial: 1,
            ckpt_serial: 0,
            ifile_inode_addr: UNASSIGNED,
            stats: LfsStats::default(),
            writing: false,
            seq_hint: HashMap::default(),
            zero: Block::zeroed(BLOCK_SIZE),
        }
    }

    /// Mounts an existing filesystem: reads the superblock and newest
    /// checkpoint, then rolls the log forward (see [`crate::recovery`]).
    pub fn mount(
        dev: Rc<dyn BlockDev>,
        amap: Rc<dyn AddressMap>,
        hooks: Rc<dyn TertiaryHooks>,
        cfg: LfsConfig,
    ) -> Result<Lfs> {
        Ok(crate::recovery::mount_with_report(dev, amap, hooks, cfg)?.0)
    }

    // -----------------------------------------------------------------
    // Small helpers.
    // -----------------------------------------------------------------

    /// Charges CPU time to the virtual clock.
    pub(crate) fn charge_cpu(&self, us: SimTime) {
        if us > 0 {
            self.cfg.clock.advance_by(us);
        }
    }

    /// Blocks per segment.
    pub(crate) fn bps(&self) -> u32 {
        self.sb.seg_bytes / BLOCK_SIZE as u32
    }

    /// Snapshot of the operation counters.
    pub fn stats(&self) -> LfsStats {
        self.stats
    }

    /// The shared clock.
    pub fn clock(&self) -> hl_sim::Clock {
        self.cfg.clock.clone()
    }

    /// Segment usage entry (the cleaner's and migrator's view of the
    /// ifile's segment table).
    pub fn seg_usage(&self, seg: SegNo) -> SegUse {
        self.seguse[seg as usize]
    }

    /// Number of clean (claimable) segments.
    pub fn clean_segs(&self) -> u32 {
        self.seguse.iter().filter(|s| s.is_clean()).count() as u32
    }

    /// Number of secondary segments.
    pub fn nsegs(&self) -> u32 {
        self.sb.nsegs
    }

    /// The current log write serial (monotone per partial-segment write;
    /// the age clock for cost-benefit victim scoring).
    pub fn log_serial(&self) -> u64 {
        self.log_serial
    }

    /// Drops all clean buffers (§7.1: "the buffer cache is flushed before
    /// each operation in the benchmark").
    pub fn drop_caches(&mut self) {
        self.cache.drop_clean();
        self.inodes
            .retain(|&ino, i| ino == IFILE_INO || i.dirty || i.atime_dirty);
    }

    // -----------------------------------------------------------------
    // Raw, timed device access.
    // -----------------------------------------------------------------

    /// Timed read of `out.len()` device blocks at `addr`, one device
    /// call: each handle in `out` becomes one onto the device's block
    /// (no bytes move where the device holds [`Block`]s).
    pub(crate) fn read_run(&mut self, addr: BlockAddr, out: &mut [Block]) -> Result<()> {
        timed_read(&*self.dev, &self.cfg.clock, &mut self.stats, addr, out)
    }

    /// Timed read of the one device block at `addr`.
    pub(crate) fn read_block(&mut self, addr: BlockAddr) -> Result<Block> {
        let mut one = [self.zero.clone()];
        self.read_run(addr, &mut one)?;
        let [blk] = one;
        Ok(blk)
    }

    /// `count` consecutive device blocks at `addr` as handles, in one
    /// timed read: a whole segment for the cleaners, a partial's payload
    /// for roll-forward.
    pub(crate) fn read_blocks_vec(&mut self, addr: BlockAddr, count: u32) -> Result<Vec<Block>> {
        let mut blocks = vec![self.zero.clone(); count as usize];
        self.read_run(addr, &mut blocks)?;
        Ok(blocks)
    }

    /// Timed write of whole block handles at `addr`, one device call;
    /// the device keeps the handles where it holds [`Block`]s.
    pub(crate) fn write_run(&mut self, addr: BlockAddr, blocks: &[Block]) -> Result<()> {
        let slot = self
            .dev
            .write_blocks(self.cfg.clock.now(), addr as u64, blocks)?;
        self.cfg.clock.advance_to(slot.end);
        self.stats.dev_writes += 1;
        self.stats.blocks_written += blocks.len() as u64;
        Ok(())
    }

    // -----------------------------------------------------------------
    // Inode management.
    // -----------------------------------------------------------------

    /// Loads (if needed) and returns a reference to an in-core inode.
    pub(crate) fn iget(&mut self, ino: Ino) -> Result<&CachedInode> {
        self.iget_mut(ino).map(|i| &*i)
    }

    /// Mutable variant of [`Lfs::iget`]; the caller must set dirty flags.
    ///
    /// A hit probes the map once. A miss reads the inode's block while
    /// the map's vacant entry is held, so it reaches the device, clock
    /// and counters as fields rather than through `&mut self` methods.
    pub(crate) fn iget_mut(&mut self, ino: Ino) -> Result<&mut CachedInode> {
        let vacant = match self.inodes.entry(ino) {
            Entry::Occupied(hit) => return Ok(hit.into_mut()),
            Entry::Vacant(vacant) => vacant,
        };
        let daddr = home_of(&self.imap, self.ifile_inode_addr, ino).ok_or(LfsError::NotFound)?;
        // Read the inode block and locate our slot by inumber.
        let mut blk = [self.zero.clone()];
        timed_read(
            &*self.dev,
            &self.cfg.clock,
            &mut self.stats,
            daddr,
            &mut blk,
        )?;
        if self.cfg.cpu.read_block > 0 {
            self.cfg.clock.advance_by(self.cfg.cpu.read_block);
        }
        let d = crate::partial::find_inode(&blk[0], ino)
            .ok_or(LfsError::Corrupt("inode missing from its block"))?;
        Ok(vacant.insert(CachedInode {
            d,
            dirty: false,
            atime_dirty: false,
        }))
    }

    /// Returns an inode to the free list (all blocks must already be
    /// released).
    pub(crate) fn ifree(&mut self, ino: Ino) {
        let old_daddr = {
            let ent = &mut self.imap[ino as usize];
            let d = ent.daddr;
            ent.daddr = UNASSIGNED;
            ent.free_next = self.free_head;
            d
        };
        self.free_head = ino;
        self.inodes.remove(&ino);
        self.cache.remove_file(ino);
        // A recycled inode number must not inherit the read-ahead hint.
        self.seq_hint.remove(&ino);
        if old_daddr != UNASSIGNED {
            // The dead dinode's bytes stop being live.
            self.live_delta(old_daddr, -(crate::types::DINODE_SIZE as i64));
        }
    }

    // -----------------------------------------------------------------
    // Live-byte accounting.
    // -----------------------------------------------------------------

    /// Adjusts the live-byte count of the segment containing `addr`.
    /// Secondary segments are tracked in the in-core usage table;
    /// tertiary segments go through the HighLight hook.
    pub(crate) fn live_delta(&mut self, addr: BlockAddr, delta: i64) {
        let Some(seg) = self.amap.seg_of(addr) else {
            return;
        };
        if self.amap.is_secondary(seg) {
            let u = &mut self.seguse[seg as usize];
            let v = u.live_bytes as i64 + delta;
            debug_assert!(v >= 0, "segment {seg} live bytes went negative");
            u.live_bytes = v.max(0) as u32;
        } else {
            self.hooks.add_live(seg, delta);
        }
    }

    // -----------------------------------------------------------------
    // Block mapping (the tree's shape lives in `ptree.rs`).
    // -----------------------------------------------------------------

    /// Returns the device address of `(ino, lb)`, or `UNASSIGNED` for a
    /// hole. Reads intermediate indirect blocks (timed) as needed; absent
    /// intermediates make the whole range a hole.
    pub(crate) fn bmap(&mut self, ino: Ino, lb: LBlock) -> Result<BlockAddr> {
        match ptree::home(lb) {
            Home::Inode(i) => Ok(self.iget(ino)?.d.db[i]),
            Home::InodeIndirect(i) => Ok(self.iget(ino)?.d.ib[i]),
            Home::InBlock(parent, idx) => Ok(self
                .pointer_block(ino, parent)?
                .map_or(UNASSIGNED, |buf| crate::ondisk::get_u32(&buf.data, idx * 4))),
            Home::TooBig => Err(LfsError::FileTooBig),
        }
    }

    /// The buffer of indirect block `lb`, read in if needed; `None` if
    /// `lb` is a hole the cache does not hold. The half of [`Lfs::bmap`]
    /// that finds the block a pointer lives in.
    fn pointer_block(&mut self, ino: Ino, lb: LBlock) -> Result<Option<&mut Buf>> {
        let addr = self.bmap(ino, lb)?;
        if addr == UNASSIGNED && !self.cache.contains(ino, lb) {
            return Ok(None);
        }
        self.ensure_block(ino, lb).map(Some)
    }

    /// Updates the pointer for `(ino, lb)` to `addr`, dirtying the
    /// containing inode or indirect block. Creates missing indirect
    /// blocks on the way.
    pub(crate) fn set_bmap(&mut self, ino: Ino, lb: LBlock, addr: BlockAddr) -> Result<()> {
        match ptree::home(lb) {
            Home::Inode(i) => {
                let inode = self.iget_mut(ino)?;
                inode.d.db[i] = addr;
                inode.dirty = true;
                Ok(())
            }
            Home::InodeIndirect(i) => {
                let inode = self.iget_mut(ino)?;
                inode.d.ib[i] = addr;
                inode.dirty = true;
                Ok(())
            }
            Home::InBlock(parent, idx) => {
                let buf = self.ensure_indirect(ino, parent)?;
                crate::ondisk::put_u32(buf.data.make_mut(), idx * 4, addr);
                self.cache.mark_dirty(ino, parent);
                Ok(())
            }
            Home::TooBig => Err(LfsError::FileTooBig),
        }
    }

    /// An indirect block from the buffer cache, read in on a miss — or,
    /// for a hole, materialized all-`UNASSIGNED`.
    fn ensure_indirect(&mut self, ino: Ino, lb: LBlock) -> Result<&mut Buf> {
        if let Some(hit) = self.cache.slot(ino, lb) {
            return Ok(self.cache.refresh(hit));
        }
        let addr = match ptree::home(lb) {
            Home::InodeIndirect(i) => self.iget(ino)?.d.ib[i],
            Home::InBlock(parent, idx) => {
                crate::ondisk::get_u32(&self.ensure_indirect(ino, parent)?.data, idx * 4)
            }
            _ => unreachable!("indirect blocks only"),
        };
        if addr == UNASSIGNED {
            self.cache
                .insert(ino, lb, ptree::fresh_indirect(), true, UNASSIGNED);
            // A new metadata block joins the file's block count.
            let inode = self.iget_mut(ino)?;
            inode.d.blocks += 1;
            inode.dirty = true;
        } else {
            let blk = self.read_block(addr)?;
            self.charge_cpu(self.cfg.cpu.read_block);
            self.stats.cache_misses += 1;
            self.cache.insert(ino, lb, blk, false, addr);
        }
        Ok(self.cache.get_mut(ino, lb).expect("just inserted"))
    }

    /// `(ino, lb)` from the buffer cache, performing a clustered read on
    /// a miss (read clustering, §7: "LFS uses the same read-clustering
    /// code" as the clustered FFS). The block comes back refreshed after
    /// any read-ahead inserted behind it.
    pub(crate) fn ensure_block(&mut self, ino: Ino, lb: LBlock) -> Result<&mut Buf> {
        let slot = match (self.cache.slot(ino, lb), lb) {
            (Some(hit), _) => {
                self.stats.cache_hits += 1;
                hit
            }
            (None, LBlock::Data(l0)) => {
                self.read_cluster(ino, l0)?;
                self.cache.slot(ino, lb).expect("just read")
            }
            (None, _) => return self.ensure_indirect(ino, lb),
        };
        Ok(self.cache.refresh(slot))
    }

    /// The miss half of [`Lfs::ensure_block`] for data block `l0`.
    fn read_cluster(&mut self, ino: Ino, l0: u32) -> Result<()> {
        let lb = LBlock::Data(l0);
        self.stats.cache_misses += 1;
        let addr = self.bmap(ino, lb)?;
        if addr == UNASSIGNED {
            // A hole reads as zeros; do not bill the device.
            self.cache
                .insert(ino, lb, self.zero.clone(), false, UNASSIGNED);
            return Ok(());
        }

        // Clustered read: extend while the next logical blocks are
        // physically contiguous, uncached, and within the file — but
        // only for detected-sequential access; a random read fetches a
        // single block.
        let size_blocks = {
            let d = &self.iget(ino)?.d;
            d.size.div_ceil(BLOCK_SIZE as u64)
        };
        let sequential = l0 == 0 || self.seq_hint.get(&ino) == Some(&l0);
        let max_cluster = if sequential { MAXCONTIG } else { 1 };
        let limit = size_blocks.min(u32::MAX as u64) as u32;
        let run = self.cluster_len(ino, l0, addr, max_cluster.min(limit.saturating_sub(l0)))?;
        // The device lends the cluster's blocks into an array on the
        // stack, and the cache keeps the handles: no bytes move.
        let mut blocks: [Block; MAXCONTIG as usize] = std::array::from_fn(|_| self.zero.clone());
        self.read_run(addr, &mut blocks[..run as usize])?;
        self.charge_cpu(self.cfg.cpu.read_block * run as u64);
        for (l, blk) in (l0..l0 + run).zip(blocks) {
            self.cache
                .insert(ino, LBlock::Data(l), blk, false, addr + (l - l0));
        }
        if run > 1 {
            self.stats.cache_misses += (run - 1) as u64;
        }
        Ok(())
    }

    /// How many blocks from data block `l0` (at `addr`) one read can
    /// fetch, up to `max`: while the next block is uncached and
    /// physically next.
    fn cluster_len(&mut self, ino: Ino, l0: u32, addr: BlockAddr, max: u32) -> Result<u32> {
        let mut run = 1;
        // The indirect block the last candidate's pointer sat in, and the
        // cache hits a `bmap` through it counts. Once that walk has
        // refreshed the block (and the root above a double-indirect
        // child), repeating it would refresh the same buffers in the
        // same order and change nothing but the hit count, so later
        // pointers are read from the handle.
        let mut held: Option<(LBlock, Block, u64)> = None;
        while run < max {
            let next = LBlock::Data(l0 + run);
            if self.cache.get(ino, next).is_some() {
                break;
            }
            let ptr = match (ptree::home(next), &held) {
                (Home::InBlock(parent, idx), Some((p, blk, hits))) if *p == parent => {
                    self.stats.cache_hits += hits;
                    crate::ondisk::get_u32(blk, idx * 4)
                }
                (Home::InBlock(parent, idx), _) => {
                    // Read-ahead must never *fault in* metadata: if the
                    // next pointer lives in an indirect block that is not
                    // already resident, stop the cluster rather than
                    // synchronously fetching it (it could be on tertiary
                    // storage).
                    if !self.cache.contains(ino, parent) {
                        break;
                    }
                    let Some(buf) = self.pointer_block(ino, parent)? else {
                        break;
                    };
                    let blk = buf.data.clone();
                    // The walk hit `parent`, and under a double-indirect
                    // child the root too, which it has read in if needed.
                    let under_root = matches!(parent, LBlock::Ind2Child(_));
                    let hits = 1 + (under_root && self.cache.contains(ino, LBlock::Ind2)) as u64;
                    let ptr = crate::ondisk::get_u32(&blk, idx * 4);
                    held = Some((parent, blk, hits));
                    ptr
                }
                _ => self.bmap(ino, next)?,
            };
            if ptr != addr + run {
                break;
            }
            run += 1;
        }
        Ok(run)
    }

    // -----------------------------------------------------------------
    // Consistency checking (also used after recovery).
    // -----------------------------------------------------------------

    /// Recomputes every secondary segment's live bytes from reachable
    /// metadata, returning the audited table. Used by recovery (the
    /// on-disk ifile is as of the last checkpoint) and by tests as an
    /// invariant check.
    ///
    /// The walk uses untimed `peek` reads and never touches the buffer
    /// or segment caches: during recovery the tertiary cache pool does
    /// not exist yet, and an audit must not demand-fetch.
    pub fn audit_live_bytes(&mut self) -> Result<Vec<u32>> {
        Ok(self.audit_all_live()?.0)
    }

    /// Like [`Lfs::audit_live_bytes`], additionally returning the live
    /// bytes referenced in every *tertiary* segment — the evidence from
    /// which HighLight reconciles its (checkpoint-stale) tsegfile after
    /// a crash.
    pub fn audit_all_live(&mut self) -> Result<(Vec<u32>, std::collections::BTreeMap<SegNo, u64>)> {
        let nsegs = self.sb.nsegs as usize;
        let mut live = vec![0u64; nsegs];
        let mut tertiary: std::collections::BTreeMap<SegNo, u64> =
            std::collections::BTreeMap::new();

        let amap = self.amap.clone();
        for ino in 0..self.imap.len() as Ino {
            let Some(daddr) = self.inode_home(ino) else {
                continue;
            };
            let mut add = |addr: BlockAddr, bytes: u64| {
                if addr == UNASSIGNED {
                    return;
                }
                if let Some(seg) = amap.seg_of(addr) {
                    if amap.is_secondary(seg) {
                        live[seg as usize] += bytes;
                    } else {
                        *tertiary.entry(seg).or_insert(0) += bytes;
                    }
                }
            };
            add(daddr, crate::types::DINODE_SIZE as u64);

            // Prefer the in-core inode (it may be newer than media).
            let d = if let Some(ci) = self.inodes.get(&ino) {
                ci.d
            } else {
                let mut blk = vec![0u8; BLOCK_SIZE];
                self.dev.peek(daddr as u64, &mut blk)?;
                match crate::partial::find_inode(&blk, ino) {
                    Some(d) => d,
                    None => continue, // stale map entry; roll-forward owns it
                }
            };
            if d.nlink == 0 {
                continue;
            }
            let mut indirects = HashMap::new();
            for lb in ptree::blocks(0..d.size.div_ceil(BLOCK_SIZE as u64)) {
                add(self.audit_ptr(&d, lb, &mut indirects)?, BLOCK_SIZE as u64);
            }
        }
        Ok((
            live.into_iter()
                .map(|v| v.min(u32::MAX as u64) as u32)
                .collect(),
            tertiary,
        ))
    }

    /// The audit's `bmap`: the pointer to `lb` read from the inode image
    /// `d` or from the indirect block holding it — the dirty cached copy
    /// if present (freshest pointers), else an untimed media peek, each
    /// fetched once per file into `indirects`; under an absent indirect
    /// block everything is a hole.
    fn audit_ptr(
        &mut self,
        d: &Dinode,
        lb: LBlock,
        indirects: &mut HashMap<LBlock, Option<Vec<u8>>>,
    ) -> Result<BlockAddr> {
        match ptree::home(lb) {
            Home::Inode(i) => Ok(d.db[i]),
            Home::InodeIndirect(i) => Ok(d.ib[i]),
            Home::InBlock(parent, idx) => {
                if !indirects.contains_key(&parent) {
                    let addr = self.audit_ptr(d, parent, indirects)?;
                    let blk = match self.cache.get(d.inumber, parent) {
                        Some(b) if b.is_dirty() => Some(b.data.to_vec()),
                        _ if addr == UNASSIGNED => None,
                        _ => {
                            let mut blk = vec![0u8; BLOCK_SIZE];
                            self.dev.peek(addr as u64, &mut blk)?;
                            Some(blk)
                        }
                    };
                    indirects.insert(parent, blk);
                }
                Ok(indirects[&parent]
                    .as_ref()
                    .map_or(UNASSIGNED, |blk| crate::ondisk::get_u32(blk, idx * 4)))
            }
            Home::TooBig => Err(LfsError::FileTooBig),
        }
    }

    /// Authoritative inode-block address. The ifile's inode is located
    /// by the checkpoint record (like 4.4BSD's superblock field), not by
    /// its own map entry — the map entry is always one flush stale,
    /// because the inode moves *while* the map is being written.
    pub(crate) fn inode_home(&self, ino: Ino) -> Option<BlockAddr> {
        home_of(&self.imap, self.ifile_inode_addr, ino)
    }
}

/// [`Lfs::inode_home`] over the two fields it reads.
fn home_of(imap: &[IfileEntry], ifile_inode_addr: BlockAddr, ino: Ino) -> Option<BlockAddr> {
    if ino == IFILE_INO {
        return (ifile_inode_addr != UNASSIGNED).then_some(ifile_inode_addr);
    }
    imap.get(ino as usize)
        .map(|e| e.daddr)
        .filter(|&d| d != UNASSIGNED)
}

/// [`Lfs::read_run`] over the three fields it uses.
fn timed_read(
    dev: &dyn BlockDev,
    clock: &Clock,
    stats: &mut LfsStats,
    addr: BlockAddr,
    out: &mut [Block],
) -> Result<()> {
    let slot = dev.read_blocks(clock.now(), addr as u64, out)?;
    clock.advance_to(slot.end);
    stats.dev_reads += 1;
    stats.blocks_read += out.len() as u64;
    Ok(())
}
