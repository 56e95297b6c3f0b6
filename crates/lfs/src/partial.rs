//! The partial-segment codec: the one builder that lays a partial
//! segment out and the one walker that parses it back (DESIGN.md,
//! "On-media format").
//!
//! "The same on-media format is used on disk and on tertiary storage":
//! a partial is one summary block, then the file blocks its FINFOs
//! describe in FINFO order, then inode blocks holding up to
//! [`INODES_PER_BLOCK`] dinodes each, whose addresses the summary lists.
//! The log writer and the migrator build partials with
//! [`PartialBuilder`]; both cleaners, end-of-medium relocation and
//! roll-forward read them back through [`walk`] / [`Partial::parse`] and
//! decide liveness with [`Lfs::block_is_live`] / [`Lfs::inode_is_live`].
//!
//! Stop rules, decided here once. A segment's partials end at the first
//! summary block that fails to decode (`ss_sumsum`) or whose serial does
//! not exceed its predecessor's — or, for its first partial, falls below
//! the caller's floor (a disk segment's `write_serial`: a reused log
//! segment still holds its previous occupancy's summaries; tertiary
//! media are erased before reuse and pass 0). A summary that *does*
//! verify but describes more blocks than the segment has left, or lists
//! an inode block anywhere but its packed position, is `Corrupt` on
//! every path: the three hand-written walkers this replaced indexed the
//! image with such addresses unchecked. Of their other differences the
//! codec keeps the strict forms: inode slots with `inumber == 0` are
//! never occupied (inode 0 does not exist; only the disk cleaner skipped
//! the test), and an inode is live only if the map's version matches
//! `di_gen` as well as its address (only the tertiary cleaner skipped
//! that). Only roll-forward verifies `ss_datasum`: it alone can meet a
//! torn partial; everything else walks segments that were synced whole.
//!
//! A partial moves as [`Block`] handles both ways: the builder hands the
//! device the summary block, the cached buffers' handles and the fresh
//! inode blocks in one `write_blocks`, and the walker reads a segment as
//! the handles a `read_blocks` lent. `ss_datasum` folds the payload
//! blocks' own sums, which their handles carry ([`Block::sum`]): a block
//! is summed once after it was last written, and a partial that moves it
//! unchanged reads its sum, not its bytes. No segment image is ever
//! assembled.

use std::borrow::Borrow;

use hl_vdev::{Block, BLOCK_SIZE};

use crate::error::{LfsError, Result};
use crate::fs::Lfs;
use crate::ondisk::{Dinode, Finfo, SegSummary, FINFO_FIXED};
use crate::types::{BlockAddr, Ino, LBlock, DINODE_SIZE, IFILE_INO, INODES_PER_BLOCK, UNASSIGNED};

/// The two superblock figures the format depends on.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Geometry {
    /// Blocks per segment.
    pub bps: u32,
    /// Usable bytes of a summary block.
    pub summary_bytes: usize,
}

// ---------------------------------------------------------------------------
// Building.
// ---------------------------------------------------------------------------

/// Accumulates one partial segment — reservations and their summary
/// description — then writes it as a single device write of block
/// handles.
///
/// Where the partial goes (log tail or staging segment), which serial
/// and `ss_next` it carries and how much of the segment it may use are
/// the creator's business; what to do after the write (advance the log,
/// bump a serial, seal a staging segment) likewise.
pub(crate) struct PartialBuilder {
    /// Device address of the summary block.
    base: BlockAddr,
    /// Blocks this partial may occupy, summary included.
    room: u32,
    summary: SegSummary,
    /// `(ino, lb, current address)` per file block, in media order.
    blocks: Vec<(Ino, LBlock, BlockAddr)>,
    /// Inodes packed behind the file blocks.
    inos: Vec<Ino>,
}

impl PartialBuilder {
    pub(crate) fn new(base: BlockAddr, room: u32, next: BlockAddr, serial: u64) -> Self {
        PartialBuilder {
            base,
            room,
            summary: SegSummary::new(next, serial),
            blocks: Vec::new(),
            inos: Vec::new(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.blocks.is_empty() && self.inos.is_empty()
    }

    pub(crate) fn n_blocks(&self) -> u32 {
        self.blocks.len() as u32
    }

    pub(crate) fn n_inodes(&self) -> u32 {
        self.inos.len() as u32
    }

    pub(crate) fn has_inode(&self, ino: Ino) -> bool {
        self.inos.contains(&ino)
    }

    /// `true` if the summary (grown by `extra` bytes) and the payload
    /// still fit with `blocks` file blocks and `inos` inodes.
    fn fits(&self, fs: &Lfs, extra: usize, blocks: usize, inos: usize) -> bool {
        let inode_blocks = inos.div_ceil(INODES_PER_BLOCK);
        self.summary.encoded_len() + extra + 4 * inode_blocks <= fs.sb.summary_bytes as usize
            && 1 + blocks + inode_blocks <= self.room as usize
    }

    /// Reserves and describes one file block whose current copy is at
    /// `old` (`UNASSIGNED` if it has never been written). Returns the
    /// block's address in this partial, or `None` if the partial is full
    /// (the caller writes it and starts another). The pointer is *not*
    /// moved: see [`Lfs::repoint_block`] / [`PartialBuilder::repoint_blocks`].
    pub(crate) fn try_add_block(
        &mut self,
        fs: &mut Lfs,
        ino: Ino,
        lb: LBlock,
        old: BlockAddr,
    ) -> Result<Option<BlockAddr>> {
        let new_file = self.summary.finfos.last().map(|f| f.ino) != Some(ino);
        let extra = 4 + if new_file { FINFO_FIXED } else { 0 };
        if !self.fits(fs, extra, self.blocks.len() + 1, self.inos.len()) {
            return Ok(None);
        }
        if new_file {
            self.summary.finfos.push(Finfo {
                ino,
                version: fs.imap[ino as usize].version,
                lastlength: BLOCK_SIZE as u32,
                blocks: Vec::new(),
            });
        }
        let fi = self
            .summary
            .finfos
            .last_mut()
            .expect("just pushed or existing");
        fi.blocks.push(lb.encode() as i32);
        if let LBlock::Data(l) = lb {
            // `fi_lastlength`: valid bytes of the file's final block.
            let size = fs.iget(ino)?.d.size;
            let last = size.saturating_sub(1) / BLOCK_SIZE as u64;
            if u64::from(l) == last && size > 0 {
                fi.lastlength = (size - last * BLOCK_SIZE as u64) as u32;
            }
        }
        self.blocks.push((ino, lb, old));
        Ok(Some(self.base + self.blocks.len() as u32))
    }

    /// Reserves a slot for `ino`'s dinode; `false` if the partial is full.
    pub(crate) fn try_add_inode(&mut self, fs: &Lfs, ino: Ino) -> bool {
        let fits = self.fits(fs, 0, self.blocks.len(), self.inos.len() + 1);
        if fits {
            self.inos.push(ino);
        }
        fits
    }

    /// Moves every reserved file block's pointer and accounting to its
    /// address in this partial — for callers that select first and
    /// repoint afterwards (the migrator: interleaving `set_bmap` with
    /// its `bmap` probes would reorder buffer-cache recency).
    pub(crate) fn repoint_blocks(&self, fs: &mut Lfs) -> Result<()> {
        for (i, &(ino, lb, old)) in self.blocks.iter().enumerate() {
            fs.repoint_block(ino, lb, old, self.base + 1 + i as u32)?;
        }
        Ok(())
    }

    /// Gathers the partial's blocks — file blocks as the buffer cache
    /// holds them when resident (dirty data; indirect blocks just patched
    /// by the repointing), else as the device lends them from their
    /// current address, one read each ("reads them directly from the
    /// disk device into memory", §6.7); dinodes encoded from the in-core
    /// inodes, whose map entries move here — encodes the summary over
    /// them and issues one large write of the handles. Returns the
    /// blocks written, summary included.
    pub(crate) fn write(mut self, fs: &mut Lfs) -> Result<u32> {
        let ndata = self.blocks.len();
        let nblocks = ndata + self.inos.len().div_ceil(INODES_PER_BLOCK);
        let mut handles = Vec::with_capacity(1 + nblocks);
        handles.push(Block::zeroed(BLOCK_SIZE));

        for &(ino, lb, old) in &self.blocks {
            let blk = if let Some(b) = fs.cache.get(ino, lb) {
                // Summed on the cache's own handle, so the memo outlives
                // this partial: the next partial to take the block — the
                // migrator's, a cleaner's — finds it summed.
                b.data.sum();
                b.data.clone()
            } else if old != UNASSIGNED {
                fs.read_block(old)?
            } else {
                return Err(LfsError::Corrupt("dirty block vanished from cache"));
            };
            handles.push(blk);
        }
        for (bi, chunk) in self.inos.chunks(INODES_PER_BLOCK).enumerate() {
            let addr = self.base + 1 + (ndata + bi) as u32;
            self.summary.inode_addrs.push(addr);
            let mut blk = Block::zeroed(BLOCK_SIZE);
            for (&ino, slot) in chunk
                .iter()
                .zip(blk.make_mut().chunks_exact_mut(DINODE_SIZE))
            {
                fs.iget(ino)?.d.encode(slot);
                fs.repoint_inode(ino, addr);
            }
            handles.push(blk);
        }
        let datasum = SegSummary::datasum_of_blocks(&handles[1..]);
        self.summary.encode(
            &mut handles[0].make_mut()[..fs.sb.summary_bytes as usize],
            datasum,
        );

        fs.write_run(self.base, &handles)?;
        fs.charge_cpu(fs.cfg.cpu.write_block * nblocks as u64);

        // Everything written is clean at its new address.
        for (i, &(ino, lb, _)) in self.blocks.iter().enumerate() {
            fs.cache.mark_clean(ino, lb, self.base + 1 + i as u32);
        }
        for ino in &self.inos {
            if let Some(i) = fs.inodes.get_mut(ino) {
                i.dirty = false;
                i.atime_dirty = false;
            }
        }
        Ok(1 + nblocks as u32)
    }
}

impl Lfs {
    pub(crate) fn geometry(&self) -> Geometry {
        Geometry {
            bps: self.bps(),
            summary_bytes: self.sb.summary_bytes as usize,
        }
    }

    /// Moves `(ino, lb)`'s pointer from `old` to `new`; live bytes move
    /// with it.
    pub(crate) fn repoint_block(
        &mut self,
        ino: Ino,
        lb: LBlock,
        old: BlockAddr,
        new: BlockAddr,
    ) -> Result<()> {
        if old != UNASSIGNED {
            self.live_delta(old, -(BLOCK_SIZE as i64));
        }
        self.live_delta(new, BLOCK_SIZE as i64);
        self.set_bmap(ino, lb, new)
    }

    /// Moves `ino`'s inode-map entry to the inode block at `new`.
    pub(crate) fn repoint_inode(&mut self, ino: Ino, new: BlockAddr) {
        if let Some(old) = self.inode_home(ino) {
            self.live_delta(old, -(DINODE_SIZE as i64));
        }
        self.live_delta(new, DINODE_SIZE as i64);
        self.imap[ino as usize].daddr = new;
        if ino == IFILE_INO {
            self.ifile_inode_addr = new;
        }
    }

    /// `true` if the copy of `(ino, lb)` at `addr`, written when the
    /// file's inode-map version was `version`, is still the current one
    /// (the `lfs_bmapv` test). A freed inode keeps its version until it
    /// is reallocated, so the home check comes before the `bmap`.
    pub(crate) fn block_is_live(
        &mut self,
        ino: Ino,
        version: u32,
        lb: LBlock,
        addr: BlockAddr,
    ) -> Result<bool> {
        Ok(
            self.imap.get(ino as usize).map(|e| e.version) == Some(version)
                && self.inode_home(ino).is_some()
                && self.bmap(ino, lb)? == addr,
        )
    }

    /// `true` if the dinode `d`, found in the inode block at `iaddr`, is
    /// its inode's current copy.
    pub(crate) fn inode_is_live(&self, d: &Dinode, iaddr: BlockAddr) -> bool {
        self.inode_home(d.inumber) == Some(iaddr) && self.imap[d.inumber as usize].version == d.gen
    }
}

// ---------------------------------------------------------------------------
// Walking.
// ---------------------------------------------------------------------------

/// One parsed partial segment: a summary that verified and whose
/// described layout fits its segment.
pub(crate) struct Partial {
    /// Block offset of the summary within its segment.
    pub off: u32,
    /// Device address of the summary block.
    pub addr: BlockAddr,
    pub summary: SegSummary,
    /// The stored `ss_datasum`.
    pub datasum: u32,
}

impl Partial {
    /// Parses the summary block found at `addr`, `off` blocks into its
    /// segment. `Corrupt` if the checksum fails or the layout does not
    /// fit.
    pub(crate) fn parse(block: &[u8], geo: Geometry, off: u32, addr: BlockAddr) -> Result<Partial> {
        let (summary, datasum) = SegSummary::decode(&block[..geo.summary_bytes])?;
        let partial = Partial {
            off,
            addr,
            summary,
            datasum,
        };
        partial.check(geo)?;
        Ok(partial)
    }

    fn check(&self, geo: Geometry) -> Result<()> {
        if u64::from(self.off) + 1 + u64::from(self.nblocks()) > u64::from(geo.bps) {
            return Err(LfsError::Corrupt("partial segment overruns its segment"));
        }
        let first = self.addr + 1 + self.summary.data_blocks() as u32;
        if !self
            .summary
            .inode_addrs
            .iter()
            .copied()
            .eq(first..self.end())
        {
            return Err(LfsError::Corrupt("inode address outside its partial"));
        }
        Ok(())
    }

    /// Payload blocks: file blocks plus inode blocks.
    pub(crate) fn nblocks(&self) -> u32 {
        (self.summary.data_blocks() + self.summary.inode_addrs.len()) as u32
    }

    /// Address one past the partial's last block.
    fn end(&self) -> BlockAddr {
        self.addr + 1 + self.nblocks()
    }

    /// `(ino, version, logical block, address)` of every file block, in
    /// media order.
    pub(crate) fn file_blocks(&self) -> impl Iterator<Item = (Ino, u32, LBlock, BlockAddr)> + '_ {
        self.summary
            .finfos
            .iter()
            .flat_map(|fi| fi.blocks.iter().map(move |&lbn| (fi.ino, fi.version, lbn)))
            .zip(self.addr + 1..)
            .map(|((ino, version, lbn), addr)| (ino, version, LBlock::decode(lbn as i64), addr))
    }

    /// `(inode-block address, dinode)` of every occupied slot of the
    /// partial's inode blocks; `payload` is every block after the summary.
    pub(crate) fn inodes<'a, B: Borrow<[u8]>>(
        &'a self,
        payload: &'a [B],
    ) -> impl Iterator<Item = (BlockAddr, Dinode)> + 'a {
        payload
            .iter()
            .skip(self.summary.data_blocks())
            .zip(&self.summary.inode_addrs)
            .flat_map(|(blk, &iaddr)| dinodes(blk.borrow()).map(move |d| (iaddr, d)))
    }

    /// `true` if the payload blocks checksum to the stored `ss_datasum`.
    pub(crate) fn datasum_matches(&self, payload: &[Block]) -> bool {
        SegSummary::datasum_of_blocks(payload) == self.datasum
    }

    /// Re-encodes the (edited) summary over its block of the segment
    /// `image`. The payload has not changed, so the datasum stands.
    pub(crate) fn rewrite_summary(&self, image: &mut [u8], geo: Geometry) {
        let block = &mut image[self.off as usize * BLOCK_SIZE..][..geo.summary_bytes];
        self.summary.encode(block, self.datasum);
    }
}

/// The occupied dinode slots of one inode block.
fn dinodes(blk: &[u8]) -> impl Iterator<Item = Dinode> + '_ {
    blk.chunks_exact(DINODE_SIZE)
        .map(Dinode::decode)
        .filter(|d| d.nlink != 0 && d.inumber != 0)
}

/// Finds `ino`'s dinode in an inode block.
pub(crate) fn find_inode(blk: &[u8], ino: Ino) -> Option<Dinode> {
    dinodes(blk).find(|d| d.inumber == ino)
}

/// Iterates over the partials of `segment` — its blocks, in order —
/// based at device address `base`, each with its payload blocks;
/// the first partial's serial must be at least `min_serial`. See the
/// module docs for where the walk ends and when it yields `Corrupt`
/// instead.
pub(crate) fn walk<B: Borrow<[u8]>>(
    segment: &[B],
    geo: Geometry,
    base: BlockAddr,
    min_serial: u64,
) -> Walk<'_, B> {
    Walk {
        segment,
        geo,
        base,
        off: 0,
        min_serial,
    }
}

pub(crate) struct Walk<'a, B> {
    segment: &'a [B],
    geo: Geometry,
    base: BlockAddr,
    off: u32,
    /// The next partial's serial must be at least this.
    min_serial: u64,
}

impl<'a, B: Borrow<[u8]>> Iterator for Walk<'a, B> {
    type Item = Result<(Partial, &'a [B])>;

    fn next(&mut self) -> Option<Self::Item> {
        let off = self.off;
        if off + 1 >= self.geo.bps {
            return None;
        }
        let rest = self.segment.get(off as usize..)?;
        let head: &[u8] = rest.first()?.borrow();
        let (summary, datasum) = SegSummary::decode(head.get(..self.geo.summary_bytes)?).ok()?;
        if summary.serial < self.min_serial {
            return None;
        }
        let partial = Partial {
            off,
            addr: self.base + off,
            summary,
            datasum,
        };
        let payload = partial.check(self.geo).and_then(|()| {
            rest.get(1..1 + partial.nblocks() as usize)
                .ok_or(LfsError::Corrupt("segment image shorter than its partials"))
        });
        Some(match payload {
            Ok(payload) => {
                self.min_serial = partial.summary.serial.saturating_add(1);
                self.off = off + 1 + partial.nblocks();
                Ok((partial, payload))
            }
            Err(e) => {
                self.off = self.geo.bps; // fused: nothing follows a corrupt partial
                Err(e)
            }
        })
    }
}
