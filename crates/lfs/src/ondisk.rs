//! On-media byte formats and checksums.
//!
//! Everything the filesystem persists is serialized explicitly
//! (little-endian, no unsafe transmutes): the superblock, the alternating
//! checkpoint records, packed dinodes, the partial-segment summary of
//! Table 1 (header + per-file FINFO records + inode block addresses), and
//! the ifile's segment-usage and inode-map entries. Crash recovery parses
//! these bytes straight off the simulated device, and migration copies
//! whole segments verbatim — "without needing any data format conversion
//! during the transfer" (§8.2).

use crate::error::{LfsError, Result};
use crate::types::{BlockAddr, FileKind, Ino, DINODE_SIZE, NDIRECT, UNASSIGNED};

/// Filesystem magic number: "HGLILFS" and, in the last byte, the format
/// generation — `'2'` since every sum became the word-wide [`cksum`].
/// [`Superblock::decode`] refuses any other generation by name; no code
/// reads format 1.
const SUPER_MAGIC: u64 = 0x4847_4c49_4c46_5332;

// ---------------------------------------------------------------------------
// Little-endian field helpers.
// ---------------------------------------------------------------------------

/// Reads a `u16` at `off`.
pub fn get_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes(buf[off..off + 2].try_into().expect("bounds"))
}

/// Reads a `u32` at `off`.
pub fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().expect("bounds"))
}

/// Reads a `u64` at `off`.
pub fn get_u64(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().expect("bounds"))
}

/// Writes a `u16` at `off`.
fn put_u16(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

/// Writes a `u32` at `off`.
pub fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// Writes a `u64` at `off`.
pub fn put_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

/// Accumulators of [`cksum`]: word `w` of the payload goes to lane
/// `w % CK_LANES`, so consecutive words never wait on each other.
const CK_LANES: usize = 4;
/// Lane `k` starts at `CK_SEED + k` ("lfs2").
const CK_SEED: u64 = 0x6c66_7332;
/// The odd 64-bit golden-ratio constant every step multiplies by.
const CK_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// One step of a [`cksum`] lane, and of the fold over the lanes.
fn ck_step(acc: u64, x: u64) -> u64 {
    acc.rotate_left(31).wrapping_add(x).wrapping_mul(CK_MUL)
}

/// The 32-bit checksum of the superblock, the checkpoint slots and both
/// summary sums (DESIGN.md §6a has the definition a reader is written
/// from). The payload is taken as little-endian 64-bit words, the last
/// one zero-padded; word `w` is stirred, with its own index added, into
/// lane `w % 4` by a rotate–add–multiply step that does not commute, so
/// each lane is sensitive to the order and the position of its words
/// and the four run in parallel. The lanes are folded, in lane order,
/// onto the payload length with the same step — swapping two lanes'
/// contents, or padding with zeros, changes the sum.
pub fn cksum(data: &[u8]) -> u32 {
    // Word `w` — up to eight little-endian bytes, zero-padded — into `lane`.
    let stir = |lane: &mut u64, bytes: &[u8], w: u64| {
        let mut le = [0u8; 8];
        le[..bytes.len()].copy_from_slice(bytes);
        *lane = ck_step(*lane, u64::from_le_bytes(le).wrapping_add(w));
    };
    let mut lanes: [u64; CK_LANES] = std::array::from_fn(|k| CK_SEED + k as u64);
    let mut w = 0;
    let mut strides = data.chunks_exact(8 * CK_LANES);
    for stride in &mut strides {
        for (k, lane) in lanes.iter_mut().enumerate() {
            stir(lane, &stride[8 * k..8 * k + 8], w + k as u64);
        }
        w += CK_LANES as u64;
    }
    // Fewer than four words are left: whole ones, then the padded one.
    for (k, bytes) in strides.remainder().chunks(8).enumerate() {
        stir(&mut lanes[k], bytes, w + k as u64);
    }
    let h = lanes
        .iter()
        .fold(data.len() as u64, |h, &lane| ck_step(h, lane));
    (h >> 32) as u32 ^ h as u32
}

// ---------------------------------------------------------------------------
// Superblock.
// ---------------------------------------------------------------------------

/// The filesystem superblock, stored in device block 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Superblock {
    /// Filesystem block size in bytes (4096).
    pub block_size: u32,
    /// Segment size in bytes (512 KB or 1 MB).
    pub seg_bytes: u32,
    /// Number of secondary (disk) segments managed by the ifile.
    pub nsegs: u32,
    /// First block of segment 0 (after the boot area, §6.3).
    pub seg_start: u32,
    /// Usable summary bytes per partial segment (512 for base LFS,
    /// 4096 for HighLight, §6.3).
    pub summary_bytes: u32,
    /// Upper limit on disk segments usable as tertiary cache lines
    /// (0 for the base LFS; static, set at mkfs — §6.4).
    pub cache_segs: u32,
    /// Total device blocks.
    pub nblocks: u64,
    /// Creation timestamp (simulated).
    pub created: u64,
}

impl Superblock {
    /// Serializes into a device block.
    pub fn encode(&self, buf: &mut [u8]) {
        buf.fill(0);
        put_u64(buf, 0, SUPER_MAGIC);
        put_u32(buf, 8, self.block_size);
        put_u32(buf, 12, self.seg_bytes);
        put_u32(buf, 16, self.nsegs);
        put_u32(buf, 20, self.seg_start);
        put_u32(buf, 24, self.summary_bytes);
        put_u32(buf, 28, self.cache_segs);
        put_u64(buf, 32, self.nblocks);
        put_u64(buf, 40, self.created);
        let c = cksum(&buf[..48]);
        put_u32(buf, 48, c);
    }

    /// Parses and verifies a superblock.
    pub fn decode(buf: &[u8]) -> Result<Superblock> {
        let magic = get_u64(buf, 0);
        if magic != SUPER_MAGIC {
            return Err(LfsError::Corrupt(if magic >> 8 == SUPER_MAGIC >> 8 {
                "unsupported format version"
            } else {
                "bad superblock magic"
            }));
        }
        if get_u32(buf, 48) != cksum(&buf[..48]) {
            return Err(LfsError::Corrupt("bad superblock checksum"));
        }
        Ok(Superblock {
            block_size: get_u32(buf, 8),
            seg_bytes: get_u32(buf, 12),
            nsegs: get_u32(buf, 16),
            seg_start: get_u32(buf, 20),
            summary_bytes: get_u32(buf, 24),
            cache_segs: get_u32(buf, 28),
            nblocks: get_u64(buf, 32),
            created: get_u64(buf, 40),
        })
    }
}

// ---------------------------------------------------------------------------
// Checkpoint records (two alternating slots in device block 1).
// ---------------------------------------------------------------------------

/// Size of one checkpoint slot within the checkpoint block.
pub const CHECKPOINT_SLOT: usize = 2048;

/// A checkpoint: the roll-forward starting point (§3).
///
/// "During a checkpoint the address of the most recent ifile inode is
/// stored in the superblock so that the recovery agent may find it."
/// We store it in an alternating two-slot checkpoint block instead, so a
/// torn checkpoint write can never destroy the previous one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Monotonic checkpoint serial; the newer valid slot wins.
    pub serial: u64,
    /// Serial the *next* partial segment will carry; roll-forward accepts
    /// only an exact serial chain, which cleanly rejects stale summaries
    /// left over from earlier passes over a reused segment.
    pub log_serial: u64,
    /// Disk address of the inode block holding the ifile's inode.
    pub ifile_inode_addr: BlockAddr,
    /// Segment that will receive the next partial segment.
    pub next_seg: u32,
    /// Block offset within that segment for the next partial.
    pub next_off: u32,
    /// Simulated time of the checkpoint.
    pub timestamp: u64,
    /// Serial for the next tertiary (migration) partial segment —
    /// HighLight's staging segments have their own serial space so they
    /// never perturb the roll-forward chain.
    pub tert_serial: u64,
}

impl Checkpoint {
    /// Serializes into one checkpoint slot.
    pub fn encode(&self, slot: &mut [u8]) {
        assert!(slot.len() >= 48);
        put_u64(slot, 0, self.serial);
        put_u64(slot, 8, self.log_serial);
        put_u32(slot, 16, self.ifile_inode_addr);
        put_u32(slot, 20, self.next_seg);
        put_u32(slot, 24, self.next_off);
        put_u64(slot, 28, self.timestamp);
        put_u64(slot, 36, self.tert_serial);
        let c = cksum(&slot[..44]);
        put_u32(slot, 44, c);
    }

    /// Parses one checkpoint slot; `None` if the slot is torn or empty.
    pub fn decode(slot: &[u8]) -> Option<Checkpoint> {
        if slot.len() < 48 || get_u32(slot, 44) != cksum(&slot[..44]) {
            return None;
        }
        Some(Checkpoint {
            serial: get_u64(slot, 0),
            log_serial: get_u64(slot, 8),
            ifile_inode_addr: get_u32(slot, 16),
            next_seg: get_u32(slot, 20),
            next_off: get_u32(slot, 24),
            timestamp: get_u64(slot, 28),
            tert_serial: get_u64(slot, 36),
        })
    }

    /// Picks the newest valid checkpoint out of the two slots in the
    /// checkpoint block.
    pub fn newest(block: &[u8]) -> Option<Checkpoint> {
        let a = Checkpoint::decode(&block[..CHECKPOINT_SLOT]);
        let b = Checkpoint::decode(&block[CHECKPOINT_SLOT..2 * CHECKPOINT_SLOT]);
        match (a, b) {
            (Some(x), Some(y)) => Some(if x.serial >= y.serial { x } else { y }),
            (x, y) => x.or(y),
        }
    }
}

// ---------------------------------------------------------------------------
// Dinode: the packed on-disk inode (32 per 4 KB block).
// ---------------------------------------------------------------------------

/// The on-disk inode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dinode {
    /// File type and permissions.
    pub mode: u16,
    /// Hard link count; 0 means the slot is free/deleted.
    pub nlink: u16,
    /// The inode's own number (slots are searched within a block).
    pub inumber: u32,
    /// File size in bytes.
    pub size: u64,
    /// Last access time (simulated µs) — the raw material of the
    /// space-time-product migration policy (§5.1).
    pub atime: u64,
    /// Last modification time.
    pub mtime: u64,
    /// Last status change time.
    pub ctime: u64,
    /// Inode version, bumped on every reuse; lets the cleaner and
    /// roll-forward reject stale FINFO records.
    pub gen: u32,
    /// Flag bits (unused placeholder, kept for format fidelity).
    pub flags: u32,
    /// Number of blocks attributed to the file (data + indirect).
    pub blocks: u32,
    /// Direct block pointers.
    pub db: [BlockAddr; NDIRECT],
    /// Indirect pointers: `ib[0]` single, `ib[1]` double.
    pub ib: [BlockAddr; 2],
}

impl Dinode {
    /// A zeroed, free inode slot.
    pub fn empty() -> Dinode {
        Dinode {
            mode: 0,
            nlink: 0,
            inumber: 0,
            size: 0,
            atime: 0,
            mtime: 0,
            ctime: 0,
            gen: 0,
            flags: 0,
            blocks: 0,
            db: [UNASSIGNED; NDIRECT],
            ib: [UNASSIGNED; 2],
        }
    }

    /// A fresh inode of `kind` with one link, no blocks and every time
    /// at `now`.
    pub fn new(kind: FileKind, perm: u16, ino: Ino, gen: u32, now: u64) -> Dinode {
        Dinode {
            mode: kind.mode() | perm,
            nlink: 1,
            inumber: ino,
            atime: now,
            mtime: now,
            ctime: now,
            gen,
            ..Dinode::empty()
        }
    }

    /// Serializes into a 128-byte slot.
    pub fn encode(&self, slot: &mut [u8]) {
        assert!(slot.len() >= DINODE_SIZE);
        slot[..DINODE_SIZE].fill(0);
        put_u16(slot, 0, self.mode);
        put_u16(slot, 2, self.nlink);
        put_u32(slot, 4, self.inumber);
        put_u64(slot, 8, self.size);
        put_u64(slot, 16, self.atime);
        put_u64(slot, 24, self.mtime);
        put_u64(slot, 32, self.ctime);
        put_u32(slot, 40, self.gen);
        put_u32(slot, 44, self.flags);
        put_u32(slot, 48, self.blocks);
        for (i, &d) in self.db.iter().enumerate() {
            put_u32(slot, 52 + 4 * i, d);
        }
        put_u32(slot, 100, self.ib[0]);
        put_u32(slot, 104, self.ib[1]);
    }

    /// Parses a 128-byte slot.
    pub fn decode(slot: &[u8]) -> Dinode {
        let mut db = [UNASSIGNED; NDIRECT];
        for (i, d) in db.iter_mut().enumerate() {
            *d = get_u32(slot, 52 + 4 * i);
        }
        Dinode {
            mode: get_u16(slot, 0),
            nlink: get_u16(slot, 2),
            inumber: get_u32(slot, 4),
            size: get_u64(slot, 8),
            atime: get_u64(slot, 16),
            mtime: get_u64(slot, 24),
            ctime: get_u64(slot, 32),
            gen: get_u32(slot, 40),
            flags: get_u32(slot, 44),
            blocks: get_u32(slot, 48),
            db,
            ib: [get_u32(slot, 100), get_u32(slot, 104)],
        }
    }
}

// ---------------------------------------------------------------------------
// Partial-segment summary (Table 1).
// ---------------------------------------------------------------------------

/// Fixed summary header size: ss_sumsum(4) ss_datasum(4) ss_next(4)
/// ss_create(8) ss_nfinfo(2) ss_ninos(2) ss_flags(2) ss_pad(2) = 28.
const SUMMARY_HEADER: usize = 28;

/// Per-FINFO fixed part: fi_nblocks(4) fi_version(4) fi_ino(4)
/// fi_lastlength(4); the paper's "12 per distinct file" plus our wider
/// version field.
pub const FINFO_FIXED: usize = 16;

/// Describes one file's blocks within a partial segment (Table 1: "file
/// block description information ... + 4 per file block").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finfo {
    /// Owning inode.
    pub ino: u32,
    /// Inode version at write time.
    pub version: u32,
    /// Valid bytes in the final block (4096 if full).
    pub lastlength: u32,
    /// Signed logical block numbers, in the order the blocks appear in
    /// the partial segment.
    pub blocks: Vec<i32>,
}

impl Finfo {
    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        FINFO_FIXED + 4 * self.blocks.len()
    }
}

/// A parsed (or to-be-written) partial-segment summary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegSummary {
    /// Disk address of the next segment in the threaded log (`ss_next`).
    pub next: BlockAddr,
    /// Write serial (`ss_create`; monotone, checked by roll-forward).
    pub serial: u64,
    /// Flag bits (`ss_flags`; directory-op batching in real LFS).
    pub flags: u16,
    /// Per-file block descriptions.
    pub finfos: Vec<Finfo>,
    /// Disk addresses of the inode blocks in this partial segment
    /// (Table 1: "4 per inode block").
    pub inode_addrs: Vec<BlockAddr>,
}

impl SegSummary {
    /// Creates an empty summary.
    pub fn new(next: BlockAddr, serial: u64) -> SegSummary {
        SegSummary {
            next,
            serial,
            flags: 0,
            finfos: Vec::new(),
            inode_addrs: Vec::new(),
        }
    }

    /// Total number of file blocks described.
    pub fn data_blocks(&self) -> usize {
        self.finfos.iter().map(|f| f.blocks.len()).sum()
    }

    /// Bytes this summary needs when encoded. FINFOs grow from the front,
    /// inode addresses from the back (the 4.4BSD layout).
    pub fn encoded_len(&self) -> usize {
        SUMMARY_HEADER
            + self.finfos.iter().map(Finfo::encoded_len).sum::<usize>()
            + 4 * self.inode_addrs.len()
    }

    /// `true` if the summary still fits in `summary_bytes`.
    pub fn fits(&self, summary_bytes: usize) -> bool {
        self.encoded_len() <= summary_bytes
    }

    /// Serializes into the summary block. `datasum` is the
    /// [`SegSummary::datasum_of`] checksum over the partial segment's
    /// entire data payload (every block after the summary, in disk
    /// order). 4.4BSD checked only one word per block; that misses a
    /// write torn *inside* a block (the first word lands, the tail does
    /// not), which the crash torture demonstrated corrupts roll-forward
    /// — so `ss_datasum` here covers every payload byte.
    pub fn encode(&self, buf: &mut [u8], datasum: u32) {
        buf.fill(0);
        put_u32(buf, 8, self.next);
        put_u64(buf, 12, self.serial);
        put_u16(buf, 20, self.finfos.len() as u16);
        put_u16(buf, 22, self.inode_addrs.len() as u16);
        put_u16(buf, 24, self.flags);
        put_u16(buf, 26, 0);
        let mut off = SUMMARY_HEADER;
        for fi in &self.finfos {
            put_u32(buf, off, fi.blocks.len() as u32);
            put_u32(buf, off + 4, fi.version);
            put_u32(buf, off + 8, fi.ino);
            put_u32(buf, off + 12, fi.lastlength);
            off += FINFO_FIXED;
            for &lbn in &fi.blocks {
                put_u32(buf, off, lbn as u32);
                off += 4;
            }
        }
        // Inode block addresses grow backwards from the end of the block.
        let mut back = buf.len();
        for &addr in &self.inode_addrs {
            back -= 4;
            put_u32(buf, back, addr);
        }
        put_u32(buf, 4, datasum);
        // ss_sumsum over everything after the checksum field itself.
        put_u32(buf, 0, cksum(&buf[4..]));
    }

    /// Parses and verifies `ss_sumsum`; returns the summary and the
    /// stored `ss_datasum` (the caller verifies it against the blocks).
    pub fn decode(buf: &[u8]) -> Result<(SegSummary, u32)> {
        if buf.len() < SUMMARY_HEADER {
            return Err(LfsError::Corrupt("summary block too small"));
        }
        if get_u32(buf, 0) != cksum(&buf[4..]) {
            return Err(LfsError::Corrupt("bad summary checksum"));
        }
        let datasum = get_u32(buf, 4);
        let next = get_u32(buf, 8);
        let serial = get_u64(buf, 12);
        let nfinfo = get_u16(buf, 20) as usize;
        let ninos = get_u16(buf, 22) as usize;
        let flags = get_u16(buf, 24);
        let mut finfos = Vec::with_capacity(nfinfo);
        let mut off = SUMMARY_HEADER;
        for _ in 0..nfinfo {
            if off + FINFO_FIXED > buf.len() {
                return Err(LfsError::Corrupt("truncated FINFO"));
            }
            let nblocks = get_u32(buf, off) as usize;
            let version = get_u32(buf, off + 4);
            let ino = get_u32(buf, off + 8);
            let lastlength = get_u32(buf, off + 12);
            off += FINFO_FIXED;
            if off + 4 * nblocks > buf.len() {
                return Err(LfsError::Corrupt("truncated FINFO block list"));
            }
            let mut blocks = Vec::with_capacity(nblocks);
            for i in 0..nblocks {
                blocks.push(get_u32(buf, off + 4 * i) as i32);
            }
            off += 4 * nblocks;
            finfos.push(Finfo {
                ino,
                version,
                lastlength,
                blocks,
            });
        }
        if off + 4 * ninos > buf.len() {
            return Err(LfsError::Corrupt("truncated inode address list"));
        }
        let mut inode_addrs = Vec::with_capacity(ninos);
        let mut back = buf.len();
        for _ in 0..ninos {
            back -= 4;
            inode_addrs.push(get_u32(buf, back));
        }
        Ok((
            SegSummary {
                next,
                serial,
                flags,
                finfos,
                inode_addrs,
            },
            datasum,
        ))
    }

    /// Computes `ss_datasum` over a partial segment's full data payload.
    pub fn datasum_of(payload: &[u8]) -> u32 {
        cksum(payload)
    }
}

// ---------------------------------------------------------------------------
// Ifile entries: segment usage table and inode map (§3).
// ---------------------------------------------------------------------------

/// Size of one segment-usage entry.
pub const SEGUSE_SIZE: usize = 32;

/// Segment state flags.
pub mod seg_flags {
    /// Segment is the current log tail.
    pub const ACTIVE: u32 = 0x1;
    /// Segment contains live data.
    pub const DIRTY: u32 = 0x2;
    /// Segment is a cache line holding a tertiary segment (HighLight's
    /// added flag, §6.4).
    pub const CACHE: u32 = 0x4;
    /// Segment had an I/O error and is out of service (disk removal,
    /// §6.4 "marked as having no storage").
    pub const NOSTORE: u32 = 0x8;
}

/// One entry of the segment usage table — the base LFS fields plus
/// HighLight's additions (§6.4): bytes available (for media of uncertain
/// capacity) and a cache-directory tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegUse {
    /// State flags (see [`seg_flags`]).
    pub flags: u32,
    /// Live (reachable) bytes in the segment.
    pub live_bytes: u32,
    /// Usable bytes of storage in the segment (normally the segment
    /// size; 0 for NOSTORE).
    pub avail_bytes: u32,
    /// When `CACHE` is set: which tertiary segment is cached here
    /// (`UNASSIGNED` otherwise).
    pub cache_tag: u32,
    /// Serial of the last write into this segment.
    pub write_serial: u64,
    /// Simulated time the cache line was fetched (ejection policy fuel,
    /// §5.4).
    pub fetch_time: u64,
}

impl SegUse {
    /// A clean, full-capacity segment entry.
    pub fn clean(avail_bytes: u32) -> SegUse {
        SegUse {
            flags: 0,
            live_bytes: 0,
            avail_bytes,
            cache_tag: UNASSIGNED,
            write_serial: 0,
            fetch_time: 0,
        }
    }

    /// `true` if the segment may be claimed by the log.
    pub fn is_clean(&self) -> bool {
        self.flags & (seg_flags::DIRTY | seg_flags::ACTIVE | seg_flags::CACHE | seg_flags::NOSTORE)
            == 0
    }

    /// Serializes into a 32-byte slot.
    pub fn encode(&self, slot: &mut [u8]) {
        put_u32(slot, 0, self.flags);
        put_u32(slot, 4, self.live_bytes);
        put_u32(slot, 8, self.avail_bytes);
        put_u32(slot, 12, self.cache_tag);
        put_u64(slot, 16, self.write_serial);
        put_u64(slot, 24, self.fetch_time);
    }

    /// Parses a 32-byte slot.
    pub fn decode(slot: &[u8]) -> SegUse {
        SegUse {
            flags: get_u32(slot, 0),
            live_bytes: get_u32(slot, 4),
            avail_bytes: get_u32(slot, 8),
            cache_tag: get_u32(slot, 12),
            write_serial: get_u64(slot, 16),
            fetch_time: get_u64(slot, 24),
        }
    }
}

/// Size of one inode-map entry.
pub const IFENT_SIZE: usize = 16;

/// One inode-map entry: "the current disk address of each file's inode,
/// as well as some auxiliary information" (§3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IfileEntry {
    /// Inode version (bumped on reuse).
    pub version: u32,
    /// Disk address of the inode block currently holding this inode;
    /// `UNASSIGNED` for free inodes.
    pub daddr: BlockAddr,
    /// Next inode number on the free list (`UNASSIGNED` = end).
    pub free_next: u32,
}

impl IfileEntry {
    /// A never-used entry at the head of nothing.
    pub fn free(free_next: u32) -> IfileEntry {
        IfileEntry {
            version: 0,
            daddr: UNASSIGNED,
            free_next,
        }
    }

    /// Serializes into a 16-byte slot.
    pub fn encode(&self, slot: &mut [u8]) {
        put_u32(slot, 0, self.version);
        put_u32(slot, 4, self.daddr);
        put_u32(slot, 8, self.free_next);
        put_u32(slot, 12, 0);
    }

    /// Parses a 16-byte slot.
    pub fn decode(slot: &[u8]) -> IfileEntry {
        IfileEntry {
            version: get_u32(slot, 0),
            daddr: get_u32(slot, 4),
            free_next: get_u32(slot, 8),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cksum_is_order_sensitive() {
        assert_ne!(cksum(&[1, 2, 3, 4]), cksum(&[4, 3, 2, 1]));
        assert_ne!(cksum(&[0, 0, 1]), cksum(&[0, 1, 0]));
        assert_eq!(cksum(b"abc"), cksum(b"abc"));
    }

    #[test]
    fn summary_with_a_forged_inode_count_is_corrupt_not_a_panic() {
        let mut buf = vec![0u8; 512];
        SegSummary::new(7, 9).encode(&mut buf, 0);
        put_u16(&mut buf, 22, u16::MAX); // ss_ninos: far more than fit
        let sumsum = cksum(&buf[4..]);
        put_u32(&mut buf, 0, sumsum);
        assert!(matches!(
            SegSummary::decode(&buf),
            Err(LfsError::Corrupt("truncated inode address list"))
        ));
    }

    #[test]
    fn superblock_round_trips() {
        let sb = Superblock {
            block_size: 4096,
            seg_bytes: 1 << 20,
            nsegs: 848,
            seg_start: 2,
            summary_bytes: 4096,
            cache_segs: 100,
            nblocks: 848 * 256 + 2,
            created: 42,
        };
        let mut buf = vec![0u8; 4096];
        sb.encode(&mut buf);
        assert_eq!(Superblock::decode(&buf).unwrap(), sb);
    }

    #[test]
    fn superblock_detects_corruption() {
        let sb = Superblock {
            block_size: 4096,
            seg_bytes: 1 << 20,
            nsegs: 1,
            seg_start: 2,
            summary_bytes: 4096,
            cache_segs: 0,
            nblocks: 258,
            created: 0,
        };
        let mut buf = vec![0u8; 4096];
        sb.encode(&mut buf);
        buf[17] ^= 0xff;
        assert!(Superblock::decode(&buf).is_err());
        // Another generation of this format, then another format.
        buf[0] = b'1';
        assert!(matches!(
            Superblock::decode(&buf),
            Err(LfsError::Corrupt("unsupported format version"))
        ));
        buf[7] = 0;
        assert!(matches!(
            Superblock::decode(&buf),
            Err(LfsError::Corrupt("bad superblock magic"))
        ));
    }

    #[test]
    fn checkpoint_slots_alternate_and_newest_wins() {
        let mut block = vec![0u8; 4096];
        let a = Checkpoint {
            serial: 1,
            log_serial: 10,
            ifile_inode_addr: 99,
            next_seg: 3,
            next_off: 4,
            timestamp: 100,
            tert_serial: 5,
        };
        let b = Checkpoint { serial: 2, ..a };
        a.encode(&mut block[..CHECKPOINT_SLOT]);
        b.encode(&mut block[CHECKPOINT_SLOT..2 * CHECKPOINT_SLOT]);
        assert_eq!(Checkpoint::newest(&block).unwrap().serial, 2);
        // Tear the newer slot: the older must be recovered.
        block[CHECKPOINT_SLOT + 5] ^= 0x55;
        assert_eq!(Checkpoint::newest(&block).unwrap().serial, 1);
    }

    #[test]
    fn empty_checkpoint_block_has_no_checkpoint() {
        let block = vec![0u8; 4096];
        assert!(Checkpoint::newest(&block).is_none());
    }

    #[test]
    fn dinode_round_trips() {
        let mut d = Dinode::empty();
        d.mode = 0o100644;
        d.nlink = 2;
        d.inumber = 77;
        d.size = 123456789;
        d.atime = 11;
        d.mtime = 22;
        d.ctime = 33;
        d.gen = 5;
        d.blocks = 42;
        d.db[0] = 1000;
        d.db[11] = 1011;
        d.ib = [2000, 3000];
        let mut slot = [0u8; DINODE_SIZE];
        d.encode(&mut slot);
        assert_eq!(Dinode::decode(&slot), d);
    }

    #[test]
    fn summary_round_trips_with_checksums() {
        let mut s = SegSummary::new(12345, 7);
        s.finfos.push(Finfo {
            ino: 4,
            version: 1,
            lastlength: 4096,
            blocks: vec![0, 1, 2, -1],
        });
        s.finfos.push(Finfo {
            ino: 9,
            version: 3,
            lastlength: 512,
            blocks: vec![7],
        });
        s.inode_addrs = vec![500, 600];
        let payload = vec![0xbeu8; 4096 * (s.data_blocks() + s.inode_addrs.len())];
        let mut buf = vec![0u8; 4096];
        s.encode(&mut buf, SegSummary::datasum_of(&payload));
        let (back, datasum) = SegSummary::decode(&buf).unwrap();
        assert_eq!(back, s);
        assert_eq!(datasum, SegSummary::datasum_of(&payload));
        // A single flipped byte anywhere in the payload must show.
        let mut torn = payload.clone();
        torn[4096 + 2000] ^= 1;
        assert_ne!(datasum, SegSummary::datasum_of(&torn));
    }

    #[test]
    fn summary_detects_bit_rot() {
        let s = SegSummary::new(1, 1);
        let mut buf = vec![0u8; 512];
        s.encode(&mut buf, 0);
        buf[20] ^= 1;
        assert!(SegSummary::decode(&buf).is_err());
    }

    #[test]
    fn summary_capacity_model_matches_paper_table1() {
        // Table 1: 12 bytes per distinct file + 4 per file block +
        // 4 per inode block (we use 16 per file; the shape is identical).
        let mut s = SegSummary::new(0, 0);
        assert_eq!(s.encoded_len(), SUMMARY_HEADER);
        s.finfos.push(Finfo {
            ino: 1,
            version: 1,
            lastlength: 4096,
            blocks: vec![0; 10],
        });
        assert_eq!(s.encoded_len(), SUMMARY_HEADER + FINFO_FIXED + 40);
        s.inode_addrs.push(5);
        assert_eq!(s.encoded_len(), SUMMARY_HEADER + FINFO_FIXED + 44);
        assert!(s.fits(512));
        // A 512-byte summary (base LFS) fills up quickly: ~115 single
        // block files exceed it, while a 4 KB HighLight summary holds it.
        let mut big = SegSummary::new(0, 0);
        for i in 0..115 {
            big.finfos.push(Finfo {
                ino: i,
                version: 1,
                lastlength: 4096,
                blocks: vec![0],
            });
        }
        assert!(!big.fits(512));
        assert!(big.fits(4096));
    }

    #[test]
    fn seguse_round_trips_and_classifies() {
        let mut u = SegUse::clean(1 << 20);
        assert!(u.is_clean());
        u.flags = seg_flags::DIRTY;
        u.live_bytes = 77;
        u.write_serial = 9;
        u.fetch_time = 100;
        u.cache_tag = 3;
        let mut slot = [0u8; SEGUSE_SIZE];
        u.encode(&mut slot);
        assert_eq!(SegUse::decode(&slot), u);
        assert!(!u.is_clean());
        let cached = SegUse {
            flags: seg_flags::CACHE,
            ..SegUse::clean(1 << 20)
        };
        assert!(!cached.is_clean());
    }

    #[test]
    fn ifile_entry_round_trips() {
        let e = IfileEntry {
            version: 3,
            daddr: 777,
            free_next: 12,
        };
        let mut slot = [0u8; IFENT_SIZE];
        e.encode(&mut slot);
        assert_eq!(IfileEntry::decode(&slot), e);
        assert_eq!(IfileEntry::free(5).daddr, UNASSIGNED);
    }
}
