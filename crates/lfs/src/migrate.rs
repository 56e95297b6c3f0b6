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

use std::rc::Rc;

use hl_vdev::{Block, BLOCK_SIZE};

use crate::error::{LfsError, Result};
use crate::fs::Lfs;
use crate::partial::{self, PartialBuilder};
use crate::ptree::{self, Home};
use crate::types::{BlockAddr, Ino, LBlock, SegNo, UNASSIGNED};

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
    /// (§7.1) — unless `allow_tertiary_src`: the tertiary cleaner
    /// re-migrates live data *between* tertiary segments (§10). Returns
    /// when the items are exhausted or the segment fills.
    pub fn migratev(
        &mut self,
        staging: &mut StagingSegment,
        items: &[MigrateItem],
        allow_tertiary_src: bool,
    ) -> Result<MigrateReport> {
        if self.amap.is_secondary(staging.seg) {
            return Err(LfsError::Invalid("staging segment must be tertiary"));
        }
        let bps = self.bps();
        let mut report = MigrateReport::default();
        // A staging segment never uses its last block.
        let mut partial = PartialBuilder::new(
            self.amap.seg_base(staging.seg) + staging.next_off,
            (bps - 1).saturating_sub(staging.next_off),
            UNASSIGNED,
            self.tert_serial,
        );
        // Tertiary, or unmappable (never a migration source either).
        let off_disk = |fs: &Lfs, addr: BlockAddr| {
            let seg = fs.amap.seg_of(addr);
            seg.is_none_or(|s| !fs.amap.is_secondary(s))
        };

        // Select the prefix that is migratable and fits.
        for item in items {
            let fitted = match *item {
                MigrateItem::Block(ino, lb) => {
                    // Only *data* dirtiness makes a block unstable; an
                    // indirect block dirtied by this very migration's
                    // pointer patches is still fair game (its serialized
                    // content is read post-patch from the cache).
                    if self.inode_home(ino).is_none()
                        || (!lb.is_indirect()
                            && self.cache.get(ino, lb).is_some_and(|b| b.is_dirty()))
                    {
                        true
                    } else {
                        let addr = self.bmap(ino, lb)?;
                        // A hole; or already tertiary, which only the
                        // tertiary cleaner may ask for (and never out of
                        // the segment being filled).
                        addr == UNASSIGNED
                            || (off_disk(self, addr)
                                && (!allow_tertiary_src
                                    || self.amap.seg_of(addr) == Some(staging.seg)))
                            || partial.try_add_block(self, ino, lb, addr)?.is_some()
                    }
                }
                MigrateItem::Inode(ino) => match self.inode_home(ino) {
                    None => true,
                    Some(_) if partial.has_inode(ino) => true,
                    Some(daddr) if off_disk(self, daddr) && !allow_tertiary_src => true,
                    Some(_) => partial.try_add_inode(self, ino),
                },
            };
            if !fitted {
                report.segment_full = true;
                break;
            }
            report.consumed += 1;
        }

        if partial.is_empty() {
            if report.consumed == 0 && !items.is_empty() {
                report.segment_full = true;
            }
            return Ok(report);
        }
        report.blocks_moved = partial.n_blocks();
        report.inodes_moved = partial.n_inodes();

        // Repoint metadata FIRST, so that an indirect block migrated in
        // this same partial is serialized with its children's tertiary
        // addresses already patched in (set_bmap pulls patched parents
        // into the cache). Then one large write at the tertiary address;
        // under HighLight the block-map driver lands it in the staging
        // cache line on disk.
        partial.repoint_blocks(self)?;
        staging.next_off += partial.write(self)?;
        self.tert_serial += 1;
        self.stats.blocks_migrated += report.blocks_moved as u64;
        if staging.next_off + 2 >= bps {
            report.segment_full = true;
        }
        Ok(report)
    }

    /// Collects every migratable piece of a file: data blocks, indirect
    /// blocks, and optionally the inode — whole-file migration (§5.1).
    pub fn whole_file_items(&mut self, ino: Ino, include_inode: bool) -> Result<Vec<MigrateItem>> {
        let d = self.iget(ino)?.d;
        // An indirect block is worth listing only once the inode pointer
        // it hangs from is assigned: nothing under an unwritten root has
        // reached the media.
        let rooted = |mut lb: LBlock| loop {
            match ptree::home(lb) {
                Home::InBlock(parent, _) => lb = parent,
                Home::InodeIndirect(i) => break d.ib[i] != UNASSIGNED,
                Home::Inode(_) | Home::TooBig => break true,
            }
        };
        // `ptree::blocks` order is the media order of a migrated file.
        let mut items: Vec<MigrateItem> = ptree::blocks(0..d.size.div_ceil(BLOCK_SIZE as u64))
            .filter(|&lb| !lb.is_indirect() || rooted(lb))
            .map(|lb| MigrateItem::Block(ino, lb))
            .collect();
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
    /// `image` is the segment as assembled at `old_seg`'s addresses; the
    /// caller has already re-keyed the cache line to `new_seg`. Every
    /// live pointer into the segment is moved from its old to its new
    /// address, each summary's absolute inode-block addresses are
    /// shifted and its serial refreshed, and the adjusted image is
    /// written at the new base.
    ///
    /// Returns the number of blocks and inodes whose pointers moved.
    pub fn relocate_tertiary_segment(
        &mut self,
        image: &mut [u8],
        old_seg: SegNo,
        new_seg: SegNo,
    ) -> Result<u32> {
        let geo = self.geometry();
        let old_base = self.amap.seg_base(old_seg);
        let new_base = self.amap.seg_base(new_seg);
        let mut moved = 0;
        let mut partials = Vec::new();
        let blocks: Vec<&[u8]> = image.chunks_exact(BLOCK_SIZE).collect();
        for parsed in partial::walk(&blocks, geo, old_base, 0) {
            let (mut p, payload) = parsed?;
            for (ino, version, lb, old) in p.file_blocks() {
                if self.block_is_live(ino, version, lb, old)? {
                    let new = old - old_base + new_base;
                    self.repoint_block(ino, lb, old, new)?;
                    self.cache.readdress(ino, lb, new);
                    moved += 1;
                }
            }
            for (iaddr, d) in p.inodes(payload) {
                if self.inode_is_live(&d, iaddr) {
                    self.repoint_inode(d.inumber, iaddr - old_base + new_base);
                    moved += 1;
                }
            }
            for iaddr in &mut p.summary.inode_addrs {
                *iaddr = *iaddr - old_base + new_base;
            }
            p.summary.serial = self.tert_serial;
            self.tert_serial += 1;
            partials.push(p);
        }
        let used = partials.last().map_or(1, |p| p.off + 1 + p.nblocks());
        for p in partials {
            p.rewrite_summary(image, geo);
        }
        // One large write of the adjusted image at the new location.
        let image = Rc::from(&image[..used as usize * BLOCK_SIZE]);
        let blocks: Vec<Block> = Block::split(image, BLOCK_SIZE).collect();
        self.write_run(new_base, &blocks)?;
        Ok(moved)
    }
}
