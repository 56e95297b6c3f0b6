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

use std::collections::HashMap;
use std::rc::Rc;

use hl_sim::time::SimTime;
use hl_vdev::{BlockDev, BLOCK_SIZE};

use crate::buffer::{Buf, BufCache};
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
/// Blocks reserved ahead of segment 0 (the "boot blocks" of §6.3).
pub const BOOT_BLOCKS: u32 = 2;

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
    pub(crate) inodes: HashMap<Ino, CachedInode>,

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
    pub(crate) seq_hint: HashMap<Ino, u32>,
    /// Reusable cluster-read staging buffer: a read miss stages its
    /// (up to 16-block) cluster here instead of allocating a fresh
    /// vector per miss. Taken/restored around the device read, so the
    /// buffer never aliases a second reader.
    pub(crate) read_scratch: Vec<u8>,
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
        let mut blk = vec![0u8; BLOCK_SIZE];
        crate::dir::init_block(&mut blk);
        crate::dir::add(&mut blk, ".", ROOT_INO, FileKind::Directory)?;
        crate::dir::add(&mut blk, "..", ROOT_INO, FileKind::Directory)?;
        fs.append(ROOT_INO, 0, blk.into_boxed_slice())?;

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
            cache: BufCache::new(cfg.buffer_cache_bytes, BLOCK_SIZE),
            dev,
            amap,
            hooks,
            sb,
            cfg,
            inodes: HashMap::new(),
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
            seq_hint: HashMap::new(),
            read_scratch: Vec::new(),
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

    /// Timed read of whole device blocks at `addr` directly into `buf`
    /// (zero-copy staging: migration assembles its segment image in
    /// place instead of bouncing every block through a fresh vector).
    pub(crate) fn read_raw_into(&mut self, addr: BlockAddr, buf: &mut [u8]) -> Result<()> {
        debug_assert_eq!(buf.len() % BLOCK_SIZE, 0, "whole blocks only");
        let slot = self.dev.read(self.cfg.clock.now(), addr as u64, buf)?;
        self.cfg.clock.advance_to(slot.end);
        self.stats.dev_reads += 1;
        self.stats.blocks_read += (buf.len() / BLOCK_SIZE) as u64;
        Ok(())
    }

    /// Timed read of `count` device blocks at `addr`.
    pub(crate) fn read_raw(&mut self, addr: BlockAddr, count: u32) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; count as usize * BLOCK_SIZE];
        self.read_raw_into(addr, &mut buf)?;
        Ok(buf)
    }

    /// Timed write of whole blocks at `addr`.
    pub(crate) fn write_raw(&mut self, addr: BlockAddr, buf: &[u8]) -> Result<()> {
        let slot = self.dev.write(self.cfg.clock.now(), addr as u64, buf)?;
        self.cfg.clock.advance_to(slot.end);
        self.stats.dev_writes += 1;
        self.stats.blocks_written += (buf.len() / BLOCK_SIZE) as u64;
        Ok(())
    }

    // -----------------------------------------------------------------
    // Inode management.
    // -----------------------------------------------------------------

    /// Loads (if needed) and returns a reference to an in-core inode.
    pub(crate) fn iget(&mut self, ino: Ino) -> Result<&CachedInode> {
        self.ensure_inode(ino)?;
        Ok(self.inodes.get(&ino).expect("just ensured"))
    }

    /// Mutable variant of [`Lfs::iget`]; the caller must set dirty flags.
    pub(crate) fn iget_mut(&mut self, ino: Ino) -> Result<&mut CachedInode> {
        self.ensure_inode(ino)?;
        Ok(self.inodes.get_mut(&ino).expect("just ensured"))
    }

    fn ensure_inode(&mut self, ino: Ino) -> Result<()> {
        if self.inodes.contains_key(&ino) {
            return Ok(());
        }
        let daddr = self.inode_home(ino).ok_or(LfsError::NotFound)?;
        // Read the inode block and locate our slot by inumber.
        let blk = self.read_raw(daddr, 1)?;
        self.charge_cpu(self.cfg.cpu.read_block);
        let d = crate::partial::find_inode(&blk, ino)
            .ok_or(LfsError::Corrupt("inode missing from its block"))?;
        self.inodes.insert(
            ino,
            CachedInode {
                d,
                dirty: false,
                atime_dirty: false,
            },
        );
        Ok(())
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
            Home::InBlock(parent, idx) => {
                let paddr = self.bmap(ino, parent)?;
                if paddr == UNASSIGNED && !self.cache.contains(ino, parent) {
                    return Ok(UNASSIGNED);
                }
                let buf = self.ensure_block(ino, parent)?;
                Ok(crate::ondisk::get_u32(&buf.data, idx * 4))
            }
            Home::TooBig => Err(LfsError::FileTooBig),
        }
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
                crate::ondisk::put_u32(&mut buf.data, idx * 4, addr);
                self.cache.mark_dirty(ino, parent);
                Ok(())
            }
            Home::TooBig => Err(LfsError::FileTooBig),
        }
    }

    /// An indirect block from the buffer cache, read in on a miss — or,
    /// for a hole, materialized all-`UNASSIGNED`.
    fn ensure_indirect(&mut self, ino: Ino, lb: LBlock) -> Result<&mut Buf> {
        if !self.cache.contains(ino, lb) {
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
                let blk = self.read_raw(addr, 1)?;
                self.charge_cpu(self.cfg.cpu.read_block);
                self.stats.cache_misses += 1;
                self.cache
                    .insert(ino, lb, blk.into_boxed_slice(), false, addr);
            }
        }
        Ok(self.cache.get_mut(ino, lb).expect("just ensured"))
    }

    /// `(ino, lb)` from the buffer cache, performing a clustered read on
    /// a miss (read clustering, §7: "LFS uses the same read-clustering
    /// code" as the clustered FFS). The block comes back refreshed after
    /// any read-ahead inserted behind it.
    pub(crate) fn ensure_block(&mut self, ino: Ino, lb: LBlock) -> Result<&mut Buf> {
        if self.cache.contains(ino, lb) {
            self.stats.cache_hits += 1;
        } else if let LBlock::Data(l0) = lb {
            self.read_cluster(ino, l0)?;
        } else {
            return self.ensure_indirect(ino, lb);
        }
        Ok(self.cache.get_mut(ino, lb).expect("just ensured"))
    }

    /// The miss half of [`Lfs::ensure_block`] for data block `l0`.
    fn read_cluster(&mut self, ino: Ino, l0: u32) -> Result<()> {
        let lb = LBlock::Data(l0);
        self.stats.cache_misses += 1;
        let addr = self.bmap(ino, lb)?;
        if addr == UNASSIGNED {
            // A hole reads as zeros; do not bill the device.
            self.cache.insert(
                ino,
                lb,
                vec![0u8; BLOCK_SIZE].into_boxed_slice(),
                false,
                UNASSIGNED,
            );
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
        let mut run = 1u32;
        while run < max_cluster && (l0 + run) < size_blocks.min(u32::MAX as u64) as u32 {
            let next = LBlock::Data(l0 + run);
            if self.cache.get(ino, next).is_some() {
                break;
            }
            // Read-ahead must never *fault in* metadata: if the next
            // pointer lives in an indirect block that is not already
            // resident, stop the cluster rather than synchronously
            // fetching it (it could be on tertiary storage).
            if let Home::InBlock(parent, _) = ptree::home(next) {
                if self.cache.get(ino, parent).is_none() {
                    break;
                }
            }
            if self.bmap(ino, next)? != addr + run {
                break;
            }
            run += 1;
        }
        // Stage the cluster in the reusable scratch buffer (taken so the
        // device read can borrow `self`), then hand each block to the
        // cache; only the per-block cache copies remain.
        let mut buf = std::mem::take(&mut self.read_scratch);
        buf.resize(run as usize * BLOCK_SIZE, 0);
        if let Err(e) = self.read_raw_into(addr, &mut buf) {
            self.read_scratch = buf;
            return Err(e);
        }
        self.charge_cpu(self.cfg.cpu.read_block * run as u64);
        for i in 0..run {
            let start = i as usize * BLOCK_SIZE;
            self.cache.insert(
                ino,
                LBlock::Data(l0 + i),
                buf[start..start + BLOCK_SIZE].into(),
                false,
                addr + i,
            );
        }
        self.read_scratch = buf;
        if run > 1 {
            self.stats.cache_misses += (run - 1) as u64;
        }
        Ok(())
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
        indirects: &mut HashMap<LBlock, Option<Box<[u8]>>>,
    ) -> Result<BlockAddr> {
        match ptree::home(lb) {
            Home::Inode(i) => Ok(d.db[i]),
            Home::InodeIndirect(i) => Ok(d.ib[i]),
            Home::InBlock(parent, idx) => {
                if !indirects.contains_key(&parent) {
                    let addr = self.audit_ptr(d, parent, indirects)?;
                    let blk = match self.cache.get(d.inumber, parent) {
                        Some(b) if b.is_dirty() => Some(b.data.clone()),
                        _ if addr == UNASSIGNED => None,
                        _ => {
                            let mut blk = vec![0u8; BLOCK_SIZE].into_boxed_slice();
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

    /// Rewrites the superblock (after on-line reconfiguration, §10).
    fn write_superblock(&mut self) -> Result<()> {
        let mut blk = vec![0u8; BLOCK_SIZE];
        self.sb.encode(&mut blk);
        self.write_raw(SUPERBLOCK_ADDR, &blk)
    }

    /// Updates the static cache-segment allowance at runtime (§10:
    /// "different dynamic policies for allocating disk space between
    /// on-disk and cached segments"). Persisted in the superblock.
    pub fn set_cache_limit(&mut self, cache_segs: u32) -> Result<()> {
        self.sb.cache_segs = cache_segs;
        self.cfg.cache_segs = cache_segs;
        self.write_superblock()
    }

    /// Takes a segment out of service (§6.4: "its segments can all be
    /// cleaned (so that the data are copied to another disk) and marked
    /// as having no storage"). Dirty segments are cleaned first.
    pub fn retire_segment(&mut self, seg: SegNo) -> Result<()> {
        use crate::ondisk::seg_flags;
        let u = self.seguse[seg as usize];
        if u.flags & seg_flags::CACHE != 0 || seg == self.cur_seg || seg == self.next_seg {
            return Err(LfsError::Invalid("segment is busy"));
        }
        if u.flags & seg_flags::DIRTY != 0 {
            self.clean_segment(seg)?;
        }
        let u = &mut self.seguse[seg as usize];
        u.flags = seg_flags::NOSTORE;
        u.avail_bytes = 0;
        Ok(())
    }

    /// Returns a retired segment to service (a replaced disk came back).
    pub fn restore_segment(&mut self, seg: SegNo) {
        self.seguse[seg as usize] = crate::ondisk::SegUse::clean(self.sb.seg_bytes);
    }

    /// Grows the filesystem to `new_nsegs` secondary segments (§10
    /// on-line disk addition). The caller must already have grown the
    /// device and the address map (see
    /// [`crate::config::GrowableLinearMap`]); this extends the usage
    /// table and persists the new geometry. Returns segments added.
    pub fn extend_segments(&mut self, new_nsegs: u32) -> Result<u32> {
        if new_nsegs <= self.sb.nsegs {
            return Err(LfsError::Invalid("extension must grow the filesystem"));
        }
        if self.amap.nsegs_secondary() < new_nsegs {
            return Err(LfsError::Invalid("address map was not grown first"));
        }
        let added = new_nsegs - self.sb.nsegs;
        for _ in 0..added {
            self.seguse
                .push(crate::ondisk::SegUse::clean(self.sb.seg_bytes));
        }
        self.sb.nsegs = new_nsegs;
        self.write_superblock()?;
        Ok(added)
    }

    /// Authoritative inode-block address. The ifile's inode is located
    /// by the checkpoint record (like 4.4BSD's superblock field), not by
    /// its own map entry — the map entry is always one flush stale,
    /// because the inode moves *while* the map is being written.
    pub(crate) fn inode_home(&self, ino: Ino) -> Option<BlockAddr> {
        if ino == IFILE_INO {
            return (self.ifile_inode_addr != UNASSIGNED).then_some(self.ifile_inode_addr);
        }
        self.imap
            .get(ino as usize)
            .map(|e| e.daddr)
            .filter(|&d| d != UNASSIGNED)
    }
}
