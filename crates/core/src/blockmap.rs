//! The block-map pseudo-device (§6.6, Figure 5).
//!
//! "A block cache driver that sends disk requests down to the striping
//! disk pseudo driver and tertiary storage requests to either the cache
//! (which then uses the striping driver) or the tertiary storage pseudo
//! driver." The LFS above issues plain block I/O; this driver "simply
//! compares the address with a table of component sizes and dispatches to
//! the underlying device holding the desired block" — a disk, an on-disk
//! cached copy, or (after a blocking demand fetch) a tertiary volume.

use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

use hl_lfs::config::AddressMap;
use hl_lfs::types::SegNo;
use hl_sim::time::SimTime;
use hl_vdev::{BlockDev, DevError, IoSlot, BLOCK_SIZE};

use crate::addr::UniformMap;
use crate::fault::HlError;
use crate::segcache::{LineState, SegCache};
use crate::service::TertiaryIo;

/// The block-map device the HighLight LFS mounts on.
///
/// Routing is fully inlined (DESIGN.md §6j): the boot area and the
/// secondary segments form one contiguous low region `[0, disk_limit)`
/// and the tertiary segments one contiguous high region
/// `[tert_base_blk, tert_end_blk)`, so the map's per-call derivation
/// chain (`seg_of` → `is_secondary`/`is_tertiary` → `tertiary_base` →
/// `total_segs`, several 64-bit divisions deep) collapses to two
/// precomputed range compares — plus one shift (or division) to name
/// the tertiary segment when the high region is hit.
pub struct BlockMapDev {
    disks: Rc<dyn BlockDev>,
    map: UniformMap,
    tio: Rc<TertiaryIo>,
    cache: Rc<RefCell<SegCache>>,
    /// First block past the secondary region: `[0, disk_limit)` routes
    /// straight to the disks.
    disk_limit: u64,
    /// First tertiary block (`seg_base(tertiary_base)`).
    tert_base_blk: u64,
    /// One past the last tertiary block (`seg_base(total_segs)`; the
    /// discarded top partial segment and `0xffff_ffff` lie above it).
    tert_end_blk: u64,
    /// `map.seg_start`, widened once.
    seg_start: u64,
    /// `map.blocks_per_seg`, widened once.
    bps: u64,
    /// `log2(blocks_per_seg)` when it is a power of two (it always is
    /// in practice): block→segment becomes a shift, not a division.
    bps_shift: Option<u32>,
}

impl BlockMapDev {
    /// Stacks the driver over the disks and the tertiary engine.
    pub fn new(disks: Rc<dyn BlockDev>, map: UniformMap, tio: Rc<TertiaryIo>) -> BlockMapDev {
        let seg_start = map.seg_start as u64;
        let bps = map.blocks_per_seg as u64;
        BlockMapDev {
            cache: tio.cache(),
            disks,
            tio,
            disk_limit: seg_start + map.nsegs_disk as u64 * bps,
            tert_base_blk: seg_start + map.tertiary_base() as u64 * bps,
            tert_end_blk: seg_start + map.total_segs() as u64 * bps,
            seg_start,
            bps,
            bps_shift: bps.is_power_of_two().then(|| bps.trailing_zeros()),
            map,
        }
    }

    /// The tertiary segment holding `block`, which lies at or above
    /// `disk_limit` (everything below routes straight to the disks).
    #[inline]
    fn tert_seg(&self, block: u64) -> Result<SegNo, DevError> {
        if block >= self.tert_base_blk && block < self.tert_end_blk {
            let off = block - self.seg_start;
            return Ok(match self.bps_shift {
                Some(sh) => (off >> sh) as SegNo,
                None => (off / self.bps) as SegNo,
            });
        }
        // "Attempts to access these blocks results in an error." — the
        // dead zone, the discarded top partial segment, and everything
        // past the 32-bit space.
        Err(DevError::OutOfRange {
            block,
            count: 1,
            capacity: 1 << 32,
        })
    }

    /// Splits a request of `len` bytes starting at `block` — above the
    /// disk region, so wholly tertiary or an error — into one run per
    /// tertiary segment it touches (each maps to its own cache line):
    /// `(segment, first block, the run's bytes of the request buffer)`.
    /// A span reaching an unmapped block is refused whole, before any
    /// of it is served.
    fn tert_runs(
        &self,
        block: u64,
        len: usize,
    ) -> Result<impl Iterator<Item = (SegNo, u64, Range<usize>)> + '_, DevError> {
        let end = block + (len / BLOCK_SIZE) as u64;
        // The tertiary region is contiguous: its first unmapped block
        // is `block` itself or the region's end.
        let probe = if block < self.tert_end_blk && end > self.tert_end_blk {
            self.tert_end_blk
        } else {
            block
        };
        self.tert_seg(probe)?;
        let mut b = block;
        Ok(std::iter::from_fn(move || {
            if b >= end {
                return None;
            }
            let seg = self.tert_seg(b).expect("span checked above");
            let run_end = (self.map.seg_base(seg) as u64 + self.bps).min(end);
            let bytes = (b - block) as usize * BLOCK_SIZE..(run_end - block) as usize * BLOCK_SIZE;
            let run = (seg, b, bytes);
            b = run_end;
            Some(run)
        }))
    }

    /// Translates a tertiary block to its cache-line disk block, demand
    /// fetching if needed. Returns `(disk block, ready time)`.
    fn cache_translate(
        &self,
        at: SimTime,
        seg: SegNo,
        block: u64,
        for_write: bool,
    ) -> Result<(u64, SimTime), DevError> {
        let line = self.cache.borrow_mut().lookup(seg, at);
        let (disk_seg, ready) = match line {
            Some(line) => {
                if for_write && matches!(line.state, LineState::Clean | LineState::Filling) {
                    // "Data in cached tertiary-resident segments are not
                    // modified in place" (§4). Staging and sealed
                    // (DirtyWait) lines are still being assembled or
                    // relocated and do accept writes.
                    return Err(DevError::WriteOnceViolation { block });
                }
                if line.state == LineState::Filling {
                    // An in-flight fetch owns the line: join it (the
                    // request coalesces onto the pending ticket) rather
                    // than reading a half-filled line.
                    self.tio.demand_fetch(at, seg).map_err(HlError::into_dev)?
                } else {
                    // A prefetched line may still be filling in the
                    // background; `ready_at` covers it.
                    (line.disk_seg, at.max(line.ready_at))
                }
            }
            None if for_write => {
                // Writes land only in staging lines the migrator set up.
                return Err(DevError::Offline);
            }
            // The BlockDev boundary speaks DevError; an exhausted
            // recovery collapses to Offline (the full fault trail stays
            // in the service's FaultLog).
            None => self.tio.demand_fetch(at, seg).map_err(HlError::into_dev)?,
        };
        let off = block - self.map.seg_base(seg) as u64;
        Ok((self.map.seg_base(disk_seg) as u64 + off, ready))
    }
}

impl BlockDev for BlockMapDev {
    fn nblocks(&self) -> u64 {
        1 << 32
    }

    fn block_size(&self) -> usize {
        BLOCK_SIZE
    }

    fn read(&self, at: SimTime, block: u64, buf: &mut [u8]) -> Result<IoSlot, DevError> {
        // Fast path: a request starting in the low disk region goes to
        // the disks whole — this is every resident-file I/O.
        if block < self.disk_limit {
            return self.disks.read(at, block, buf);
        }
        let mut t = at;
        for (seg, b, bytes) in self.tert_runs(block, buf.len())? {
            let (disk_block, ready) = self.cache_translate(t, seg, b, false)?;
            t = self.disks.read(ready, disk_block, &mut buf[bytes])?.end;
        }
        Ok(IoSlot { start: at, end: t })
    }

    fn write(&self, at: SimTime, block: u64, buf: &[u8]) -> Result<IoSlot, DevError> {
        if block < self.disk_limit {
            return self.disks.write(at, block, buf);
        }
        let mut t = at;
        for (seg, b, bytes) in self.tert_runs(block, buf.len())? {
            let (disk_block, ready) = self.cache_translate(t, seg, b, true)?;
            t = self.disks.write(ready, disk_block, &buf[bytes])?.end;
        }
        Ok(IoSlot { start: at, end: t })
    }

    fn peek(&self, block: u64, buf: &mut [u8]) -> Result<(), DevError> {
        if block < self.disk_limit {
            return self.disks.peek(block, buf);
        }
        for (seg, b, bytes) in self.tert_runs(block, buf.len())? {
            // Cached copy if present, else straight off the medium
            // (recovery tooling; untimed).
            let off = b - self.map.seg_base(seg) as u64;
            let line = self.cache.borrow().peek(seg).copied();
            if let Some(line) = line {
                self.disks.peek(
                    self.map.seg_base(line.disk_seg) as u64 + off,
                    &mut buf[bytes],
                )?;
            } else {
                let (vol, slot) = self.map.vol_slot(seg).ok_or(DevError::Offline)?;
                let mut seg_buf = vec![0u8; self.map.blocks_per_seg as usize * BLOCK_SIZE];
                self.tio.jukebox().peek_segment(vol, slot, &mut seg_buf)?;
                let src = &seg_buf[off as usize * BLOCK_SIZE..][..bytes.len()];
                buf[bytes].copy_from_slice(src);
            }
        }
        Ok(())
    }

    fn poke(&self, block: u64, buf: &[u8]) -> Result<(), DevError> {
        if block < self.disk_limit {
            return self.disks.poke(block, buf);
        }
        for (seg, b, bytes) in self.tert_runs(block, buf.len())? {
            let line = self.cache.borrow().peek(seg).copied();
            let line = line.ok_or(DevError::Offline)?;
            let off = b - self.map.seg_base(seg) as u64;
            self.disks
                .poke(self.map.seg_base(line.disk_seg) as u64 + off, &buf[bytes])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::RigSpec;
    use hl_footprint::{Footprint, Jukebox};

    fn rig() -> (BlockMapDev, Jukebox, UniformMap, Rc<TertiaryIo>) {
        // Cache pool: disk segments 50..54.
        let (tio, jb, map) = RigSpec::with_lines(50..54).build();
        let dev = BlockMapDev::new(tio.disks_handle(), map, tio.clone());
        (dev, jb, map, tio)
    }

    #[test]
    fn secondary_blocks_pass_through() {
        let (dev, _, _, tio) = rig();
        let data = vec![9u8; BLOCK_SIZE];
        dev.write(0, 100, &data).unwrap();
        let mut back = vec![0u8; BLOCK_SIZE];
        tio.disks_handle().peek(100, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn dead_zone_errors() {
        let (dev, _, map, _) = rig();
        let dead = map.seg_base(64 + 100) as u64; // past the disks
        let mut buf = vec![0u8; BLOCK_SIZE];
        assert!(matches!(
            dev.read(0, dead, &mut buf),
            Err(DevError::OutOfRange { .. })
        ));
    }

    #[test]
    fn tertiary_read_demand_fetches_once() {
        let (dev, jb, map, tio) = rig();
        // Plant a recognizable segment on volume 1, slot 2.
        let mut seg = vec![0u8; 1 << 20];
        seg[4096] = 0xcd;
        jb.poke_segment(1, 2, &seg).unwrap();
        let tseg = map.tert_seg(1, 2);
        let addr = map.seg_base(tseg) as u64 + 1;

        let mut buf = vec![0u8; BLOCK_SIZE];
        let s1 = dev.read(0, addr, &mut buf).unwrap();
        assert_eq!(buf[0], 0xcd);
        // Volume swap + MO read + disk write: takes tens of seconds.
        assert!(s1.end > hl_sim::time::secs(13.5));
        assert_eq!(tio.stats().demand_fetches, 1);

        // Second read hits the cache: just a disk access.
        let s2 = dev.read(s1.end, addr, &mut buf).unwrap();
        assert!(s2.duration() < hl_sim::time::secs(1.0));
        assert_eq!(tio.stats().demand_fetches, 1);
        assert_eq!(buf[0], 0xcd);
    }

    #[test]
    fn writes_to_non_staging_tertiary_are_rejected() {
        let (dev, jb, map, _) = rig();
        let seg = vec![0u8; 1 << 20];
        jb.poke_segment(0, 0, &seg).unwrap();
        let tseg = map.tert_seg(0, 0);
        let addr = map.seg_base(tseg) as u64;
        let data = vec![1u8; BLOCK_SIZE];
        // Uncached: no staging line exists.
        assert!(dev.write(0, addr, &data).is_err());
        // Cached read-only copy: still rejected (no overwrite in place).
        let mut buf = vec![0u8; BLOCK_SIZE];
        dev.read(0, addr, &mut buf).unwrap();
        assert!(matches!(
            dev.write(0, addr, &data),
            Err(DevError::WriteOnceViolation { .. })
        ));
    }

    #[test]
    fn staging_line_accepts_writes_and_reads_back() {
        let (dev, _, map, tio) = rig();
        let tseg = map.tert_seg(2, 0);
        tio.cache()
            .borrow_mut()
            .allocate(tseg, LineState::Staging, 0)
            .unwrap();
        let addr = map.seg_base(tseg) as u64;
        let data = vec![0x7eu8; 4 * BLOCK_SIZE];
        dev.write(0, addr, &data).unwrap();
        let mut back = vec![0u8; 4 * BLOCK_SIZE];
        dev.read(1, addr, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(tio.stats().demand_fetches, 0, "no fetch for a staging hit");
    }

    #[test]
    fn reads_spanning_two_tertiary_segments_split() {
        let (dev, jb, map, tio) = rig();
        let mut seg_a = vec![0u8; 1 << 20];
        let mut seg_b = vec![0u8; 1 << 20];
        seg_a[(1 << 20) - BLOCK_SIZE] = 0xaa; // last block of slot 3
        seg_b[0] = 0xbb; // first block of slot 4
        jb.poke_segment(1, 3, &seg_a).unwrap();
        jb.poke_segment(1, 4, &seg_b).unwrap();
        let last_of_a = map.seg_base(map.tert_seg(1, 3)) as u64 + 255;

        let mut buf = vec![0u8; 2 * BLOCK_SIZE];
        dev.read(0, last_of_a, &mut buf).unwrap();
        assert_eq!(buf[0], 0xaa);
        assert_eq!(buf[BLOCK_SIZE], 0xbb);
        assert_eq!(tio.stats().demand_fetches, 2);
    }

    #[test]
    fn runs_tile_a_span_one_tertiary_segment_at_a_time() {
        let (dev, _, map, _) = rig();
        // Volume numbering descends from the top of the address space:
        // the last volume's slot 0 is the lowest tertiary segment.
        let first = map.tert_seg(3, 0);
        let base = map.seg_base(first) as u64;
        let bps = map.blocks_per_seg as u64;
        // Ten segments and a bit, starting mid-segment.
        let (start, len) = (base + 7, (10 * bps as usize + 3) * BLOCK_SIZE);
        let runs: Vec<_> = dev.tert_runs(start, len).unwrap().collect();
        assert_eq!(runs.len(), 11);
        let (mut b, mut byte) = (start, 0);
        for (i, (seg, rb, bytes)) in runs.into_iter().enumerate() {
            assert_eq!((seg, rb, bytes.start), (first + i as u32, b, byte));
            assert_eq!(map.seg_of(rb as u32), Some(seg));
            b += (bytes.len() / BLOCK_SIZE) as u64;
            byte = bytes.end;
            assert!(b <= map.seg_base(seg) as u64 + bps, "run crosses a segment");
        }
        assert_eq!(byte, len);
        // A span running off the top of the tertiary region is refused
        // whole, naming the first unmapped block.
        let top = dev.tert_end_blk;
        assert!(matches!(
            dev.tert_runs(top - 2, 4 * BLOCK_SIZE).map(|_| ()),
            Err(DevError::OutOfRange { block, .. }) if block == top
        ));
    }

    #[test]
    fn inlined_route_agrees_with_the_address_map_everywhere() {
        #[derive(Debug, PartialEq)]
        enum Route {
            Disk,
            Tertiary(SegNo),
        }
        let (dev, _, map, _) = rig();
        let route = |block: u64| -> Option<Route> {
            if block < dev.disk_limit {
                return Some(Route::Disk);
            }
            dev.tert_seg(block).ok().map(Route::Tertiary)
        };
        // Reference implementation: the pre-inlining derivation chain.
        let reference = |block: u64| -> Option<Route> {
            if block < map.seg_start as u64 {
                return Some(Route::Disk);
            }
            if block > u32::MAX as u64 {
                return None;
            }
            match map.seg_of(block as u32) {
                Some(seg) if map.is_secondary(seg) => Some(Route::Disk),
                Some(seg) => Some(Route::Tertiary(seg)),
                None => None,
            }
        };
        let tb = map.tertiary_base();
        let probes: Vec<u64> = vec![
            0,
            1,
            map.seg_start as u64,          // first secondary block
            map.seg_base(63) as u64 + 255, // last secondary block
            map.seg_base(64) as u64,       // dead zone start
            map.seg_base(tb) as u64 - 1,   // dead zone end
            map.seg_base(tb) as u64,       // first tertiary block
            map.seg_base(map.total_segs() - 1) as u64 + 255, // last tertiary block
            map.seg_base(map.total_segs() - 1) as u64 + 256, // top partial segment
            u32::MAX as u64,
            1 << 32,
            u64::MAX,
        ];
        for b in probes {
            assert_eq!(route(b), reference(b), "route({b:#x}) diverged");
        }
        // And a dense sweep across each boundary.
        for base in [
            map.seg_start as u64,
            dev.disk_limit,
            dev.tert_base_blk,
            dev.tert_end_blk,
        ] {
            for d in -2i64..=2 {
                let b = base.wrapping_add_signed(d);
                assert_eq!(route(b), reference(b), "route({b:#x}) diverged");
            }
        }
    }

    #[test]
    fn peek_reads_through_without_time_or_caching() {
        let (dev, jb, map, tio) = rig();
        let mut seg = vec![0u8; 1 << 20];
        seg[0] = 0x42;
        jb.poke_segment(3, 1, &seg).unwrap();
        let addr = map.seg_base(map.tert_seg(3, 1)) as u64;
        let mut buf = vec![0u8; BLOCK_SIZE];
        dev.peek(addr, &mut buf).unwrap();
        assert_eq!(buf[0], 0x42);
        assert_eq!(tio.stats().demand_fetches, 0);
        assert!(tio.cache().borrow().is_empty());
    }
}
