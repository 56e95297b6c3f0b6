//! The rotating-disk model.
//!
//! A [`Disk`] combines a [`SparseStore`] for contents with a timing model:
//! per-operation command overhead, a square-root seek curve over the arm's
//! travel distance, half-revolution rotational latency when the arm moved,
//! and calibrated sequential transfer rates (see
//! [`DiskProfile`]). The arm is a shared
//! [`Resource`], so when two actors (say, the migrator and the I/O server
//! of §7.3) interleave requests, each request both *waits* for the arm and
//! *moves* it — which is exactly the disk-arm contention the paper
//! measures in Table 6.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use hl_sim::time::SimTime;
use hl_sim::Resource;

use crate::backing::{Block, Segment, SparseStore};
use crate::blockdev::{check_io, run_bytes, BlockDev, IoSlot};
use crate::bus::ScsiBus;
use crate::error::DevError;
use crate::profile::DiskProfile;

/// Cumulative per-disk counters, used by the benchmark harnesses to
/// attribute time (e.g. how much of a migration run was seek time).
#[derive(Clone, Copy, Debug, Default)]
pub struct DiskStats {
    /// Completed read operations.
    pub reads: u64,
    /// Completed write operations.
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Operations that required arm movement.
    pub seeks: u64,
    /// Total time spent seeking (including rotational latency), µs.
    pub seek_time: SimTime,
    /// Total time spent transferring data, µs.
    pub transfer_time: SimTime,
}

#[derive(Debug)]
struct Inner {
    profile: DiskProfile,
    nblocks: u64,
    /// Geometry constant, duplicated out of the store so the per-I/O
    /// validation path does not borrow the `RefCell` to read it.
    block_size: usize,
    store: RefCell<SparseStore>,
    arm: Resource,
    arm_pos: Cell<u64>,
    bus: Option<ScsiBus>,
    stats: RefCell<DiskStats>,
}

/// A simulated disk (or an optical platter loaded in a drive).
///
/// Cloning yields another handle to the same disk.
///
/// # Examples
///
/// ```
/// use hl_vdev::{Disk, DiskProfile, BlockDev, BLOCK_SIZE};
///
/// let disk = Disk::new(DiskProfile::RZ57, 1024, None);
/// let data = vec![7u8; BLOCK_SIZE];
/// let slot = disk.write(0, 100, &data).unwrap();
/// let mut back = vec![0u8; BLOCK_SIZE];
/// let slot2 = disk.read(slot.end, 100, &mut back).unwrap();
/// assert_eq!(back, data);
/// assert!(slot2.end > slot.end);
/// ```
#[derive(Clone, Debug)]
pub struct Disk {
    inner: Rc<Inner>,
}

impl Disk {
    /// Creates a disk of `nblocks` 4 KB blocks, optionally attached to a
    /// shared [`ScsiBus`].
    pub fn new(profile: DiskProfile, nblocks: u64, bus: Option<ScsiBus>) -> Self {
        Self {
            inner: Rc::new(Inner {
                profile,
                nblocks,
                block_size: crate::BLOCK_SIZE,
                store: RefCell::new(SparseStore::new(crate::BLOCK_SIZE)),
                arm: Resource::new(profile.name),
                arm_pos: Cell::new(0),
                bus,
                stats: RefCell::new(DiskStats::default()),
            }),
        }
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> DiskStats {
        *self.inner.stats.borrow()
    }

    /// Validates a `len`-byte transfer at `block` and books its time: the
    /// one timing path under the byte and the block-handle forms alike.
    fn timed_io(
        &self,
        at: SimTime,
        block: u64,
        len: usize,
        write: bool,
    ) -> Result<IoSlot, DevError> {
        let count = check_io(self.nblocks(), self.block_size(), block, len)?;
        let bytes = len as u64;
        let inner = &self.inner;
        let pos = inner.arm_pos.get();
        let dist = pos.abs_diff(block);
        let seek = inner.profile.seek_time(dist, inner.nblocks);
        // Every operation pays (on average) half a revolution: by the
        // time the host issues the next command, the target sector has
        // spun past. Large transfers amortize this; small clustered I/O
        // does not — which is exactly why the paper's FFS reads 10 MB at
        // 1002 KB/s on a 1417 KB/s disk (Table 2 vs Table 5).
        let rot = inner.profile.rot_latency();
        let position = inner.profile.per_io_overhead + seek + rot;
        let (start, positioned) = inner.arm.acquire(at, position);
        let xfer = inner.profile.transfer(bytes, write);
        // The bus carries the bytes at bus speed (in bursts); the device
        // needs its own (possibly slower) transfer time. Completion waits
        // for both.
        let end = match &inner.bus {
            Some(bus) => {
                let (_, bus_end) = bus.transfer(positioned, bytes);
                bus_end.max(positioned + xfer)
            }
            None => positioned + xfer,
        };
        // The arm stays busy through the (possibly bus-delayed) transfer.
        if end > positioned {
            inner.arm.acquire(positioned, end - positioned);
        }
        inner.arm_pos.set(block + count);

        let mut stats = inner.stats.borrow_mut();
        if write {
            stats.writes += 1;
            stats.bytes_written += bytes;
        } else {
            stats.reads += 1;
            stats.bytes_read += bytes;
        }
        if dist != 0 {
            stats.seeks += 1;
        }
        stats.seek_time += seek + rot;
        stats.transfer_time += xfer;
        Ok(IoSlot { start, end })
    }
}

impl BlockDev for Disk {
    fn nblocks(&self) -> u64 {
        self.inner.nblocks
    }

    fn block_size(&self) -> usize {
        // Cached copy: `block_size()` sits on the per-I/O validation
        // path, and borrowing the store `RefCell` for an immutable
        // geometry constant costs real nanoseconds there.
        self.inner.block_size
    }

    fn read(&self, at: SimTime, block: u64, buf: &mut [u8]) -> Result<IoSlot, DevError> {
        let slot = self.timed_io(at, block, buf.len(), false)?;
        self.inner.store.borrow().read(block, buf);
        Ok(slot)
    }

    fn write(&self, at: SimTime, block: u64, buf: &[u8]) -> Result<IoSlot, DevError> {
        let slot = self.timed_io(at, block, buf.len(), true)?;
        self.inner.store.borrow_mut().write(block, buf);
        Ok(slot)
    }

    fn peek(&self, block: u64, buf: &mut [u8]) -> Result<(), DevError> {
        check_io(self.nblocks(), self.block_size(), block, buf.len())?;
        self.inner.store.borrow().read(block, buf);
        Ok(())
    }

    fn poke(&self, block: u64, buf: &[u8]) -> Result<(), DevError> {
        check_io(self.nblocks(), self.block_size(), block, buf.len())?;
        self.inner.store.borrow_mut().write(block, buf);
        Ok(())
    }

    fn read_blocks(&self, at: SimTime, block: u64, out: &mut [Block]) -> Result<IoSlot, DevError> {
        let slot = self.timed_io(at, block, out.len() * self.block_size(), false)?;
        self.inner.store.borrow().lend(block, out);
        Ok(slot)
    }

    fn write_blocks(&self, at: SimTime, block: u64, blocks: &[Block]) -> Result<IoSlot, DevError> {
        let slot = self.timed_io(at, block, run_bytes(blocks, self.block_size())?, true)?;
        self.inner.store.borrow_mut().put(block, blocks);
        Ok(slot)
    }

    fn read_seg(&self, at: SimTime, block: u64, n: usize) -> Result<(IoSlot, Segment), DevError> {
        let slot = self.timed_io(at, block, n * self.block_size(), false)?;
        Ok((slot, self.inner.store.borrow().lend_segment(block, n)))
    }

    fn write_seg(&self, at: SimTime, block: u64, seg: &Segment) -> Result<IoSlot, DevError> {
        let slot = self.timed_io(at, block, seg.bytes(self.block_size())?, true)?;
        self.inner.store.borrow_mut().put_segment(block, seg);
        Ok(slot)
    }

    fn poke_seg(&self, block: u64, seg: &Segment) -> Result<(), DevError> {
        let len = seg.bytes(self.block_size())?;
        check_io(self.nblocks(), self.block_size(), block, len)?;
        self.inner.store.borrow_mut().put_segment(block, seg);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_sim::time::{throughput_kbs, SEC};

    fn rz57(nblocks: u64) -> Disk {
        Disk::new(DiskProfile::RZ57, nblocks, None)
    }

    #[test]
    fn sequential_io_approaches_rated_speed() {
        // Table 5 methodology: sequential 1 MB transfers.
        let d = rz57(1 << 20);
        let buf = vec![0u8; 1024 * 1024];
        let mut t = 0;
        let mut bytes = 0u64;
        for i in 0..10 {
            let slot = d.write(t, i * 256, &buf).unwrap();
            t = slot.end;
            bytes += buf.len() as u64;
        }
        let kbs = throughput_kbs(bytes, t);
        assert!((kbs - 993.0).abs() < 20.0, "raw write {kbs} KB/s");
    }

    #[test]
    fn random_io_pays_seeks() {
        let d = rz57(1 << 20);
        let buf = vec![0u8; 4096];
        // Alternate between far-apart blocks.
        let mut t = 0;
        for i in 0..100u64 {
            let blk = if i % 2 == 0 { 0 } else { 900_000 };
            t = d.write(t, blk, &buf).unwrap().end;
        }
        let stats = d.stats();
        assert!(stats.seeks >= 99);
        // Seek-bound: throughput collapses well below the rated speed.
        let kbs = throughput_kbs(stats.bytes_written, t);
        assert!(kbs < 200.0, "random write {kbs} KB/s");
    }

    #[test]
    fn interleaved_streams_contend_for_the_arm() {
        // Two sequential streams, interleaved request-by-request, must be
        // slower than one stream of double length: that is arm contention.
        let solo = rz57(1 << 20);
        let buf = vec![0u8; 64 * 1024];
        let mut t = 0;
        for i in 0..64 {
            t = solo.write(t, i * 16, &buf).unwrap().end;
        }
        let solo_time = t;

        let shared = rz57(1 << 20);
        let mut t = 0;
        for i in 0..32 {
            t = shared.write(t, i * 16, &buf).unwrap().end;
            t = shared.write(t, 500_000 + i * 16, &buf).unwrap().end;
        }
        // Each interleaved pair pays two long seeks the solo stream never
        // makes; demand at least a 25% slowdown.
        assert!(
            t > solo_time + solo_time / 4,
            "contended {t} vs solo {solo_time}"
        );
    }

    #[test]
    fn bus_carries_bursts_not_whole_device_transfers() {
        // §7: "SCSI bandwidth was not the limiting factor" — a slow MO
        // write must NOT monopolize the bus for its full 5 s duration.
        let bus = ScsiBus::new("scsi0");
        let a = Disk::new(DiskProfile::RZ57, 4096, Some(bus.clone()));
        let b = Disk::new(DiskProfile::HP6300_MO, 4096, Some(bus.clone()));
        let buf = vec![0u8; 1024 * 1024];
        let mo = b.write(0, 0, &buf).unwrap();
        assert!(mo.end > 5 * SEC, "MO device transfer still ~5 s");
        // A concurrent disk read waits only for the MO's ~0.68 s bus
        // slot, not for the device to finish.
        let mut back = vec![0u8; 1024 * 1024];
        let rd = a.read(0, 0, &mut back).unwrap();
        assert!(rd.end < 3 * SEC, "disk read over-serialized: {}", rd.end);
        assert!(rd.end > SEC, "bus contention unaccounted: {}", rd.end);
    }

    #[test]
    fn peek_and_poke_take_no_time() {
        let d = rz57(4096);
        d.poke(5, &vec![9u8; 4096]).unwrap();
        let mut buf = vec![0u8; 4096];
        d.peek(5, &mut buf).unwrap();
        assert_eq!(buf[0], 9);
        assert_eq!(d.stats().reads, 0);
    }

    #[test]
    fn block_forms_time_like_byte_forms_and_share_the_buffers() {
        let (bytes, refs) = (rz57(4096), rz57(4096));
        let seg: Vec<Block> = Block::split(Rc::from(vec![3u8; 8 * 4096]), 4096).collect();
        let w = bytes.write(0, 100, &seg.concat()).unwrap();
        assert_eq!(refs.write_blocks(0, 100, &seg).unwrap(), w);
        let mut back = vec![0u8; 8 * 4096];
        let mut out = vec![Block::zeroed(4096); 9];
        let r = bytes.read(w.end, 100, &mut back).unwrap();
        assert_eq!(refs.read_blocks(w.end, 100, &mut out[..8]).unwrap(), r);
        assert_eq!(out[..8].concat(), back);
        assert_eq!(
            format!("{:?}", refs.stats()),
            format!("{:?}", bytes.stats())
        );
        // The disk holds the caller's buffer and lends it back: no copy.
        assert!(out.iter().zip(&seg).all(|(o, s)| o.as_ptr() == s.as_ptr()));
        // A block that is not one block long is refused, untimed or not.
        let short = Segment::split(Rc::from(vec![0u8; 100]), 100);
        assert!(matches!(
            refs.poke_seg(0, &short),
            Err(DevError::BadBuffer { .. })
        ));
        assert_eq!(refs.stats().writes, 1);
    }

    /// The work a whole-segment crossing does, counted: a 256-block
    /// segment written onto a disk at a run boundary and read back clones
    /// no block handle (the store keeps and lends the array itself). The
    /// same write + read through the `_blocks` forms clones one handle
    /// per block each way: 512, what a fill and a copy-out cost before
    /// segments were one array.
    #[test]
    fn a_whole_segment_write_and_read_at_a_run_boundary_clone_no_handle() {
        use crate::backing::BLOCK_CLONES;
        let clones = || BLOCK_CLONES.with(Cell::get);
        let base = crate::SEGMENT_ORIGIN as u64;
        let disk = rz57(base + 256);
        let seg = Segment::split(Rc::from(vec![5u8; 1 << 20]), 4096);
        let before = clones();
        let w = disk.write_seg(0, base, &seg).unwrap();
        let (r, back) = disk.read_seg(w.end, base, 256).unwrap();
        assert_eq!(clones() - before, 0);
        assert!(std::ptr::eq(&back[0], &seg[0]), "the same array");
        // Timed as the byte forms time it.
        let bytes = rz57(base + 256);
        let bw = bytes.write(0, base, &vec![5u8; 1 << 20]).unwrap();
        let mut buf = vec![0u8; 1 << 20];
        assert_eq!((w, r), (bw, bytes.read(bw.end, base, &mut buf).unwrap()));
        // The handle forms, on the disk whose run nothing else holds: one
        // clone per block in each direction. (On `disk` the write would
        // first copy the run it shares with `seg`: 256 more.)
        let mut out = vec![Block::zeroed(4096); 256];
        let before = clones();
        bytes.write_blocks(0, base, &seg).unwrap();
        bytes.read_blocks(0, base, &mut out).unwrap();
        assert_eq!(clones() - before, 512);
    }

    #[test]
    fn out_of_range_is_rejected() {
        let d = rz57(16);
        let buf = vec![0u8; 4096 * 2];
        assert!(matches!(
            d.write(0, 15, &buf),
            Err(DevError::OutOfRange { .. })
        ));
    }

    #[test]
    fn clones_share_contents_and_arm() {
        let a = rz57(64);
        let b = a.clone();
        a.poke(1, &vec![3u8; 4096]).unwrap();
        let mut buf = vec![0u8; 4096];
        b.peek(1, &mut buf).unwrap();
        assert_eq!(buf[0], 3);
        // The second handle queues behind the first one's write.
        let slot = a.write(0, 50, &vec![0u8; 4096]).unwrap();
        assert!(b.write(0, 50, &vec![0u8; 4096]).unwrap().start >= slot.end);
    }
}
