//! The jukebox: drives + volumes + a robot arm.
//!
//! Models the paper's HP 6300 configuration faithfully (§7): two drives
//! and 32 cartridges, with "one drive allocated for the currently-active
//! writing segment, and the other for reading other platters (the writing
//! drive also fulfilled any read requests for its platter)". The device
//! only keeps the last clause: a loaded volume is served where it sits.
//! Which drive a swap goes into is the caller's choice — the engine's
//! I/O-server lanes make it. Media swaps take the measured 13.5 s and,
//! when a SCSI bus is attached, hog it for the whole swap.

use std::cell::RefCell;
use std::rc::Rc;

use hl_sim::time::{SimTime, MS};
use hl_sim::Resource;
use hl_vdev::{
    Block, DevError, DiskProfile, DriveFault, FaultPlan, IoSlot, MediaFault, ScsiBus, Segment,
    SwapFault, BLOCK_SIZE,
};

use crate::stats::FpStats;
use crate::{Footprint, VolumeId};

/// Eject-command-to-ready media change time (Table 5: 13.5 s).
const VOLUME_CHANGE_TIME: SimTime = 13_500 * MS;

/// Jukebox construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct JukeboxConfig {
    /// Number of reader/writer drives (the HP 6300 had 2).
    pub drives: usize,
    /// Number of media volumes (the HP 6300 had 32).
    pub volumes: u32,
    /// Segment slots per volume. The paper constrained each platter to
    /// 40 MB (40 slots) to force frequent volume changes.
    pub segments_per_volume: u32,
    /// Segment size in bytes (1 MB in the paper's configuration).
    pub segment_bytes: usize,
}

impl JukeboxConfig {
    /// The paper's HP 6300 test configuration: 2 drives, 32 platters
    /// constrained to 40 × 1 MB segments each.
    pub fn hp6300_paper() -> Self {
        Self {
            drives: 2,
            volumes: 32,
            segments_per_volume: 40,
            segment_bytes: 1024 * 1024,
        }
    }
}

struct VolumeState {
    /// One entry per segment slot: the segment last written there, `None`
    /// for a slot not written since the volume was made or erased.
    slots: Vec<Option<Segment>>,
    /// Effective capacity in segments; may be < nominal for compressing
    /// media with a poor compression outcome.
    effective_segments: u32,
    failed: bool,
}

struct DriveState {
    loaded: Option<VolumeId>,
    /// Head position, in segment index (for seek distances).
    head: u32,
    res: Resource,
}

struct Inner {
    cfg: JukeboxConfig,
    volumes: Vec<VolumeState>,
    drives: Vec<DriveState>,
    robot: Resource,
    bus: Option<ScsiBus>,
    stats: FpStats,
    /// Seeded fault schedule consulted on every read, write, and swap
    /// (§10 reliability experiments). `None` injects nothing.
    fault: Option<FaultPlan>,
    /// Lent for every unwritten slot: one zero block, once per block.
    zero: Segment,
}

/// A robotic media changer implementing [`Footprint`].
///
/// Cloning shares state (one physical device, many handles).
///
/// A written slot holds its [`Segment`]: a byte write makes one buffer
/// under a window per block; [`Footprint::write_segment_on`] keeps the
/// caller's segment, so a copied-out cache line shares its array, and
/// [`Footprint::read_segment_on`] lends it back.
///
/// # Examples
///
/// ```
/// use std::rc::Rc;
/// use hl_footprint::{Footprint, Jukebox, JukeboxConfig};
/// use hl_vdev::{Segment, BLOCK_SIZE};
///
/// let jb = Jukebox::new(JukeboxConfig::hp6300_paper(), None);
/// let bytes = vec![7u8; jb.segment_bytes()];
/// let seg = Segment::split(Rc::from(bytes.clone()), BLOCK_SIZE);
/// // Volume 0 is swapped into drive 0 for the write...
/// let (w, _) = jb.write_segment_on(0, 0, 0, 0, &seg).unwrap();
/// // ...and a read of it asked of drive 1 is served where it sits.
/// let (_, drive, back) = jb.read_segment_on(w.end, 1, 0, 0).unwrap();
/// assert_eq!(drive, 0);
/// assert_eq!(back.concat(), bytes);
/// ```
#[derive(Clone)]
pub struct Jukebox {
    inner: Rc<RefCell<Inner>>,
}

impl Jukebox {
    /// Builds a jukebox; all volumes start in their slots, all drives
    /// empty. An attached [`ScsiBus`] is hogged during swaps and held
    /// during transfers (the paper's non-disconnecting driver).
    /// Segments must be whole [`BLOCK_SIZE`] blocks.
    pub fn new(cfg: JukeboxConfig, bus: Option<ScsiBus>) -> Self {
        assert!(cfg.segment_bytes.is_multiple_of(BLOCK_SIZE), "whole blocks");
        let volumes = (0..cfg.volumes)
            .map(|_| VolumeState {
                slots: vec![None; cfg.segments_per_volume as usize],
                effective_segments: cfg.segments_per_volume,
                failed: false,
            })
            .collect();
        let drives = (0..cfg.drives)
            .map(|_| DriveState {
                loaded: None,
                head: 0,
                res: Resource::new(DiskProfile::HP6300_MO.name),
            })
            .collect();
        Self {
            inner: Rc::new(RefCell::new(Inner {
                cfg,
                volumes,
                drives,
                robot: Resource::new("robot"),
                bus,
                stats: FpStats::default(),
                fault: None,
                zero: Segment::repeat(&Block::zeroed(BLOCK_SIZE), cfg.segment_bytes / BLOCK_SIZE),
            })),
        }
    }

    /// Installs a fault-injection plan. Every subsequent segment read,
    /// write, and robot swap consults it; callers above the [`Footprint`]
    /// trait are untouched.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.inner.borrow_mut().fault = Some(plan);
    }

    /// Reduces a volume's effective capacity, simulating a compression
    /// shortfall: writes beyond `segments` report end-of-medium (§6.3).
    pub fn set_effective_segments(&self, vol: VolumeId, segments: u32) {
        let mut inner = self.inner.borrow_mut();
        inner.volumes[vol as usize].effective_segments = segments;
    }

    /// Returns `true` if the given segment slot has been written.
    pub fn segment_written(&self, vol: VolumeId, seg: u32) -> bool {
        self.inner.borrow().volumes[vol as usize]
            .slots
            .get(seg as usize)
            .is_some_and(Option::is_some)
    }

    /// Untimed write by reference, for formatting and tests: slot `seg`
    /// of `vol` keeps `blocks`, one handle. The handle form of
    /// [`Footprint::poke_segment`], as `BlockDev::poke_seg` is of
    /// `BlockDev::poke`.
    pub fn poke_segment_blocks(
        &self,
        vol: VolumeId,
        seg: u32,
        blocks: &Segment,
    ) -> Result<(), DevError> {
        self.check(blocks.bytes(BLOCK_SIZE)?, vol, seg)?;
        self.store(vol, seg, blocks.clone());
        Ok(())
    }

    /// Ensures `vol` is loaded in a drive, swapping it into `target` if
    /// needed. Returns `(drive index, time the volume is ready)`.
    ///
    /// An already-loaded volume is always served where it sits (so two
    /// lanes never move the same platter). The robot `Resource`
    /// serializes concurrent swaps from different lanes — its busy
    /// horizon *is* the reserve/release protocol, so no explicit locking
    /// is needed.
    fn ensure_loaded(
        inner: &mut Inner,
        at: SimTime,
        vol: VolumeId,
        target: usize,
    ) -> Result<(usize, SimTime), DevError> {
        if vol >= inner.cfg.volumes {
            return Err(DevError::Offline);
        }
        // Already loaded? Served where it sits — but only if that drive
        // is still answering. A dead drive holding the platter fails the
        // op; the caller abandons the drive so the platter frees up.
        if let Some(d) = inner.drives.iter().position(|d| d.loaded == Some(vol)) {
            Self::check_drive(inner, at, d)?;
            return Ok((d, at));
        }
        let d = target.min(inner.drives.len() - 1);
        // A dead or hung target drive fails before any robot time is paid.
        Self::check_drive(inner, at, d)?;
        // The swap needs the robot, the target drive, and (if attached)
        // hogs the bus for its whole duration. A fault plan may fail the
        // swap outright or jam the arm for extra stuck time.
        let mut swap = VOLUME_CHANGE_TIME;
        if let Some(plan) = &inner.fault {
            match plan.on_swap(at, vol) {
                Some(SwapFault::Failed) => return Err(DevError::Offline),
                Some(SwapFault::Jam { stuck }) => swap += stuck,
                None => {}
            }
        }
        let mut earliest = at.max(inner.drives[d].res.free_at());
        // A scripted robot jam stalls the arm: no swap may start inside
        // the jam window, so the earliest start slides to its end.
        if let Some(plan) = &inner.fault {
            if let Some(until) = plan.robot_jam_until(earliest) {
                earliest = earliest.max(until);
            }
        }
        let (start, _) = inner.robot.acquire(earliest, swap);
        let end = if let Some(bus) = &inner.bus {
            bus.hog_for_swap(start, swap).1
        } else {
            start + swap
        };
        inner.drives[d].res.acquire(start, end - start);
        inner.drives[d].loaded = Some(vol);
        inner.drives[d].head = 0;
        inner.stats.swaps += 1;
        inner.stats.swap_time += end - start;
        Ok((d, end))
    }

    /// Consults the fault plan for a drive-scoped fault on the drive
    /// about to execute an operation. Dead and hung drives fail fast —
    /// before any robot or media time is charged — so the I/O server's
    /// lane can mark itself down and re-dispatch the orphaned op.
    fn check_drive(inner: &Inner, at: SimTime, d: usize) -> Result<(), DevError> {
        if let Some(plan) = &inner.fault {
            match plan.on_drive_op(at, d as u32) {
                Some(DriveFault::Dead) => return Err(DevError::DriveDead { drive: d as u32 }),
                Some(DriveFault::Hang) => return Err(DevError::DriveHung { drive: d as u32 }),
                None => {}
            }
        }
        Ok(())
    }

    /// Computes positioning + transfer time on a loaded MO platter.
    fn media_io_time(inner: &Inner, drive: usize, seg: u32, writing: bool) -> (SimTime, SimTime) {
        let p = DiskProfile::HP6300_MO;
        let seg_bytes = inner.cfg.segment_bytes as u64;
        let head = inner.drives[drive].head;
        let dist = head.abs_diff(seg) as u64;
        let span = inner.cfg.segments_per_volume as u64;
        let seek = if dist == 0 {
            0
        } else {
            p.seek_time(dist, span) + p.rot_latency()
        };
        (p.per_io_overhead + seek, p.transfer(seg_bytes, writing))
    }

    /// One timed whole-segment transfer of `bytes` bytes, all but moving
    /// them: validation, the end-of-medium and failure refusals, then
    /// robot, drive and media time, on drive `drive` unless `vol` is
    /// already loaded elsewhere.
    fn segment_io(
        &self,
        at: SimTime,
        drive: usize,
        vol: VolumeId,
        seg: u32,
        bytes: usize,
        writing: bool,
    ) -> Result<(IoSlot, usize), DevError> {
        self.check(bytes, vol, seg)?;
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let v = &inner.volumes[vol as usize];
        if writing && seg >= v.effective_segments {
            // Compression shortfall: the medium reported end-of-medium
            // before this slot; the volume must be marked full.
            return Err(DevError::EndOfMedium { written: 0 });
        }
        if v.failed {
            return Err(DevError::MediaFailure);
        }
        let decision = match &inner.fault {
            Some(plan) if writing => plan.on_write(at, vol, seg),
            Some(plan) => plan.on_read(at, vol, seg),
            None => None,
        };
        match decision {
            Some(MediaFault::Transient) => return Err(DevError::ReadError { block: seg as u64 }),
            Some(MediaFault::Permanent) => {
                inner.volumes[vol as usize].failed = true;
                return Err(DevError::MediaFailure);
            }
            Some(MediaFault::EarlyEom) => return Err(DevError::EndOfMedium { written: 0 }),
            None => {}
        }
        let (d, ready) = Self::ensure_loaded(inner, at, vol, drive)?;
        let (position, mut transfer) = Self::media_io_time(inner, d, seg, writing);
        // A degraded (slow) drive stretches its media transfers; it still
        // completes work, so no watchdog fires for it.
        if let Some(plan) = &inner.fault {
            let factor = plan.drive_slow_factor(ready, d as u32);
            if factor != 1.0 {
                transfer = (transfer as f64 * factor).round() as SimTime;
            }
        }
        let (start, positioned) = inner.drives[d].res.acquire(ready, position);
        let seg_bytes = inner.cfg.segment_bytes as u64;
        let end = if let Some(bus) = &inner.bus {
            let (_, bus_end) = bus.transfer(positioned, seg_bytes);
            bus_end.max(positioned + transfer)
        } else {
            positioned + transfer
        };
        if end > positioned {
            inner.drives[d].res.acquire(positioned, end - positioned);
        }
        inner.drives[d].head = seg + 1;
        inner.stats.seek_time += position;
        inner.stats.transfer_time += transfer;
        if writing {
            inner.stats.writes += 1;
            inner.stats.bytes_written += inner.cfg.segment_bytes as u64;
        } else {
            inner.stats.reads += 1;
            inner.stats.bytes_read += inner.cfg.segment_bytes as u64;
        }
        Ok((IoSlot { start, end }, d))
    }

    /// Refuses a transfer that is not one segment's bytes, or a slot the
    /// jukebox does not have.
    fn check(&self, bytes: usize, vol: VolumeId, seg: u32) -> Result<(), DevError> {
        let cfg = self.inner.borrow().cfg;
        if bytes != cfg.segment_bytes {
            return Err(DevError::BadBuffer {
                expected: cfg.segment_bytes,
                got: bytes,
            });
        }
        if vol >= cfg.volumes {
            return Err(DevError::Offline);
        }
        if seg >= cfg.segments_per_volume {
            return Err(DevError::OutOfRange {
                block: seg as u64,
                count: 1,
                capacity: cfg.segments_per_volume as u64,
            });
        }
        Ok(())
    }

    /// Copies slot `seg` of `vol` into `buf` (zeros if never written).
    fn copy_out(&self, vol: VolumeId, seg: u32, buf: &mut [u8]) {
        match &self.inner.borrow().volumes[vol as usize].slots[seg as usize] {
            Some(blocks) => {
                for (dst, b) in buf.chunks_exact_mut(BLOCK_SIZE).zip(blocks.iter()) {
                    dst.copy_from_slice(b);
                }
            }
            None => buf.fill(0),
        }
    }

    /// Makes `blocks` slot `seg` of `vol`.
    fn store(&self, vol: VolumeId, seg: u32, blocks: Segment) {
        self.inner.borrow_mut().volumes[vol as usize].slots[seg as usize] = Some(blocks);
    }
}

impl Footprint for Jukebox {
    fn volumes(&self) -> u32 {
        self.inner.borrow().cfg.volumes
    }

    fn segment_bytes(&self) -> usize {
        self.inner.borrow().cfg.segment_bytes
    }

    fn segments_per_volume(&self) -> u32 {
        self.inner.borrow().cfg.segments_per_volume
    }

    fn read_segment_on(
        &self,
        at: SimTime,
        drive: usize,
        vol: VolumeId,
        seg: u32,
    ) -> Result<(IoSlot, usize, Segment), DevError> {
        let bytes = self.segment_bytes();
        let (slot, used) = self.segment_io(at, drive, vol, seg, bytes, false)?;
        let inner = self.inner.borrow();
        let blocks = inner.volumes[vol as usize].slots[seg as usize].as_ref();
        Ok((slot, used, blocks.unwrap_or(&inner.zero).clone()))
    }

    fn write_segment_on(
        &self,
        at: SimTime,
        drive: usize,
        vol: VolumeId,
        seg: u32,
        blocks: &Segment,
    ) -> Result<(IoSlot, usize), DevError> {
        let done = self.segment_io(at, drive, vol, seg, blocks.bytes(BLOCK_SIZE)?, true)?;
        self.store(vol, seg, blocks.clone());
        Ok(done)
    }

    fn peek_segment(&self, vol: VolumeId, seg: u32, buf: &mut [u8]) -> Result<(), DevError> {
        self.check(buf.len(), vol, seg)?;
        if self.inner.borrow().volumes[vol as usize].failed {
            return Err(DevError::MediaFailure);
        }
        self.copy_out(vol, seg, buf);
        Ok(())
    }

    fn poke_segment(&self, vol: VolumeId, seg: u32, buf: &[u8]) -> Result<(), DevError> {
        self.check(buf.len(), vol, seg)?;
        self.store(vol, seg, Segment::split(Rc::from(buf), BLOCK_SIZE));
        Ok(())
    }

    fn fail_volume(&self, vol: VolumeId) {
        self.inner.borrow_mut().volumes[vol as usize].failed = true;
    }

    fn stats(&self) -> FpStats {
        self.inner.borrow().stats
    }

    fn loaded_volumes_into(&self, out: &mut Vec<Option<VolumeId>>) {
        out.clear();
        out.extend(self.inner.borrow().drives.iter().map(|d| d.loaded));
    }

    fn drives(&self) -> usize {
        self.inner.borrow().drives.len()
    }

    fn erase_volume(&self, vol: VolumeId) -> Result<(), DevError> {
        let mut inner = self.inner.borrow_mut();
        let v = &mut inner.volumes[vol as usize];
        if v.failed {
            return Err(DevError::MediaFailure);
        }
        v.slots.fill(None);
        Ok(())
    }

    fn nominal_segment_io(&self, writing: bool) -> SimTime {
        let p = DiskProfile::HP6300_MO;
        let inner = self.inner.borrow();
        let seg_bytes = inner.cfg.segment_bytes as u64;
        let span = inner.cfg.segments_per_volume as u64;
        VOLUME_CHANGE_TIME
            + p.per_io_overhead
            + p.seek_time(span, span)
            + p.rot_latency()
            + p.transfer(seg_bytes, writing)
    }

    fn abandon_drive(&self, drive: usize) {
        let mut inner = self.inner.borrow_mut();
        if let Some(d) = inner.drives.get_mut(drive) {
            d.loaded = None;
            d.head = 0;
        }
    }

    fn probe_drive(&self, at: SimTime, drive: usize) -> bool {
        let inner = self.inner.borrow();
        if drive >= inner.drives.len() {
            return false;
        }
        match &inner.fault {
            Some(plan) => plan.drive_healthy(at, drive as u32),
            None => true,
        }
    }

    fn drive_busy_until(&self, drive: usize) -> SimTime {
        let inner = self.inner.borrow();
        inner.drives.get(drive).map_or(0, |d| d.res.free_at())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_sim::time::{secs, SEC};

    fn hp6300() -> Jukebox {
        Jukebox::new(JukeboxConfig::hp6300_paper(), None)
    }

    /// The volume in each drive.
    fn loaded_volumes(jb: &Jukebox) -> Vec<Option<VolumeId>> {
        let mut out = Vec::new();
        jb.loaded_volumes_into(&mut out);
        out
    }

    /// A 1 MB segment of `byte`, as handles to write.
    fn filled(byte: u8) -> Segment {
        Segment::split(Rc::from(vec![byte; 1 << 20]), BLOCK_SIZE)
    }

    #[test]
    fn targeted_reads_load_the_named_drive_unless_already_loaded() {
        let jb = hp6300();
        jb.poke_segment(1, 0, &vec![7u8; 1 << 20]).unwrap();
        jb.poke_segment(1, 1, &vec![8u8; 1 << 20]).unwrap();
        // An explicit lane swaps the volume into that drive.
        let (r1, d1, _) = jb.read_segment_on(0, 1, 1, 0).unwrap();
        assert_eq!(d1, 1);
        assert_eq!(loaded_volumes(&jb)[1], Some(1));
        // A different lane asking for the same volume is routed to the
        // drive that already holds it: no second swap, no platter fight.
        let (_, d2, _) = jb.read_segment_on(r1.end, 0, 1, 1).unwrap();
        assert_eq!(d2, 1);
        assert_eq!(jb.stats().swaps, 1);
    }

    #[test]
    fn by_reference_transfers_move_handles_not_bytes() {
        let jb = hp6300();
        let seg = filled(4);
        let w = jb.write_segment_on(0, 0, 0, 0, &seg).unwrap().0;
        let (_, _, back) = jb.read_segment_on(w.end, 0, 0, 0).unwrap();
        assert!(
            std::ptr::eq(&back[0], &seg[0]),
            "the slot lends the array it kept"
        );
        // An unwritten slot lends zeros; erasing unwrites.
        let (_, _, back) = jb.read_segment_on(w.end, 0, 0, 1).unwrap();
        assert!(back.iter().all(|b| b.iter().all(|&x| x == 0)));
        jb.erase_volume(0).unwrap();
        assert!(!jb.segment_written(0, 0));
        // A segment that is not one segment's bytes — too few blocks, or
        // blocks of another size — is refused before any time is charged.
        let short = Segment::split(Rc::from(vec![4u8; (1 << 20) - BLOCK_SIZE]), BLOCK_SIZE);
        assert!(matches!(
            jb.write_segment_on(0, 0, 0, 0, &short),
            Err(DevError::BadBuffer { .. })
        ));
        let halves = Segment::split(Rc::from(vec![4u8; 1 << 20]), BLOCK_SIZE / 2);
        assert!(matches!(
            jb.write_segment_on(0, 0, 0, 0, &halves),
            Err(DevError::BadBuffer { .. })
        ));
        assert!(matches!(
            jb.poke_segment_blocks(0, 0, &halves),
            Err(DevError::BadBuffer { .. })
        ));
        assert_eq!(jb.stats().reads + jb.stats().writes, 3);
    }

    #[test]
    fn concurrent_lane_swaps_serialize_on_the_robot() {
        let jb = hp6300();
        let seg = vec![1u8; jb.segment_bytes()];
        jb.poke_segment(2, 0, &seg).unwrap();
        // Two lanes demand swaps at the same instant: the robot arm is a
        // single serialized resource, so the second swap starts only
        // after the first finishes.
        let (w, dw) = jb.write_segment_on(0, 0, 1, 0, &filled(0)).unwrap();
        let (r, dr, _) = jb.read_segment_on(0, 1, 2, 0).unwrap();
        assert_eq!((dw, dr), (0, 1));
        assert_eq!(jb.stats().swaps, 2);
        let swap = VOLUME_CHANGE_TIME;
        // Both ops carry their own swap; the later one also waited for
        // the robot to release the first platter.
        assert!(w.end >= swap);
        assert!(
            r.end >= 2 * swap,
            "robot not serialized: {} < {}",
            r.end,
            2 * swap
        );
    }

    /// Table 5's volume-change sequence (`benches/table5.rs`), pinned to
    /// the microsecond: the bench prints one decimal and gates ±0.5 s, so
    /// it would not notice the reads moving to another drive.
    #[test]
    fn table5_volume_change_is_pinned() {
        let jb = hp6300();
        let seg = vec![0u8; jb.segment_bytes()];
        jb.poke_segment(0, 0, &seg).unwrap();
        jb.poke_segment(1, 0, &seg).unwrap();
        let t0 = jb.read_segment_on(0, 1, 0, 0).unwrap().0.end;
        let (s1, _, _) = jb.read_segment_on(t0, 1, 1, 0).unwrap();
        assert_eq!(s1.end - t0, 15_772_510);
        assert_eq!(loaded_volumes(&jb), [None, Some(1)]);
        assert_eq!(jb.stats().swaps, 2);
    }

    /// The media model, pinned to the microsecond: the nominal op (which
    /// sets the watchdog deadline) in both directions, and a write then a
    /// read on one drive with a seek between them.
    #[test]
    fn media_timing_is_pinned() {
        let jb = hp6300();
        assert_eq!(jb.nominal_segment_io(false), 15_905_010);
        assert_eq!(jb.nominal_segment_io(true), 18_654_108);
        let (w, _) = jb.write_segment_on(0, 0, 0, 0, &filled(1)).unwrap();
        assert_eq!((w.start, w.end), (13_500_000, 18_521_608));
        // Slot 5 is four slots past the head: overhead, seek and half a
        // turn, then the read.
        let (r, _, _) = jb.read_segment_on(w.end, 0, 0, 5).unwrap();
        assert_eq!((r.start, r.end), (18_521_608, 20_858_241));
        assert_eq!(jb.stats().seek_time, 2_000 + 66_123);
    }

    #[test]
    fn first_access_pays_a_volume_swap() {
        let jb = hp6300();
        let (slot, _) = jb.write_segment_on(0, 0, 3, 0, &filled(1)).unwrap();
        // 13.5 s swap + ~5 s MO write of 1 MB.
        assert!(slot.end > secs(13.5));
        assert!(slot.end < secs(25.0));
        assert_eq!(jb.stats().swaps, 1);
        assert_eq!(loaded_volumes(&jb)[0], Some(3));
    }

    #[test]
    fn loaded_volume_needs_no_swap() {
        let jb = hp6300();
        let seg = filled(1);
        let (w1, _) = jb.write_segment_on(0, 0, 0, 0, &seg).unwrap();
        let (w2, _) = jb.write_segment_on(w1.end, 0, 0, 1, &seg).unwrap();
        assert_eq!(jb.stats().swaps, 1);
        // Sequential continuation: the second write is just transfer time.
        let mo_write_1mb = DiskProfile::HP6300_MO.transfer(1024 * 1024, true);
        assert!((w2.end - w2.start) >= mo_write_1mb);
        assert!((w2.end - w2.start) < mo_write_1mb + SEC);
    }

    #[test]
    fn reads_of_writing_volume_use_the_writer_drive() {
        let jb = hp6300();
        let (w, _) = jb.write_segment_on(0, 0, 5, 0, &filled(1)).unwrap();
        let (_, d, _) = jb.read_segment_on(w.end, 1, 5, 0).unwrap();
        // No extra swap: the writing drive serves its own platter's reads.
        assert_eq!(d, 0);
        assert_eq!(jb.stats().swaps, 1);
        assert_eq!(loaded_volumes(&jb)[1], None);
    }

    #[test]
    fn end_of_medium_on_compression_shortfall() {
        let jb = hp6300();
        jb.set_effective_segments(0, 2);
        let seg = filled(1);
        let (w, _) = jb.write_segment_on(0, 0, 0, 0, &seg).unwrap();
        jb.write_segment_on(w.end, 0, 0, 1, &seg).unwrap();
        assert!(matches!(
            jb.write_segment_on(w.end, 0, 0, 2, &seg),
            Err(DevError::EndOfMedium { .. })
        ));
    }

    #[test]
    fn erase_volume_reclaims_slots() {
        let jb = hp6300();
        jb.write_segment_on(0, 0, 0, 0, &filled(9)).unwrap();
        assert!(jb.segment_written(0, 0));
        jb.erase_volume(0).unwrap();
        assert!(!jb.segment_written(0, 0));
        let mut back = vec![1u8; jb.segment_bytes()];
        jb.peek_segment(0, 0, &mut back).unwrap();
        assert!(back.iter().all(|&b| b == 0));
    }

    #[test]
    fn swaps_hog_an_attached_bus() {
        let bus = ScsiBus::new("scsi0");
        let jb = Jukebox::new(JukeboxConfig::hp6300_paper(), Some(bus.clone()));
        jb.write_segment_on(0, 0, 0, 0, &filled(1)).unwrap();
        // The bus was held for the 13.5 s swap plus the ~5 s transfer.
        assert!(bus.busy_total() >= secs(13.5));
    }

    #[test]
    fn failed_volume_errors_all_io() {
        let jb = hp6300();
        let seg = vec![1u8; jb.segment_bytes()];
        jb.poke_segment(7, 0, &seg).unwrap();
        jb.fail_volume(7);
        assert_eq!(
            jb.read_segment_on(0, 1, 7, 0).err(),
            Some(DevError::MediaFailure)
        );
        let mut back = vec![0u8; jb.segment_bytes()];
        assert_eq!(
            jb.peek_segment(7, 0, &mut back),
            Err(DevError::MediaFailure)
        );
    }

    #[test]
    fn scripted_media_failure_kills_the_volume() {
        use hl_vdev::{FaultConfig, FaultPlan};
        let jb = hp6300();
        let seg = vec![1u8; jb.segment_bytes()];
        jb.poke_segment(2, 0, &seg).unwrap();
        let plan = FaultPlan::new(FaultConfig::none(1));
        plan.fail_volume_at(2, secs(100.0));
        jb.set_fault_plan(plan);
        // Before the scripted time: reads succeed.
        let (_, _, back) = jb.read_segment_on(0, 1, 2, 0).unwrap();
        assert_eq!(back.concat(), seg);
        // At the scripted time the volume dies, and stays dead.
        assert_eq!(
            jb.read_segment_on(secs(100.0), 1, 2, 0).err(),
            Some(DevError::MediaFailure)
        );
        assert_eq!(
            jb.read_segment_on(secs(200.0), 1, 2, 0).err(),
            Some(DevError::MediaFailure)
        );
    }

    #[test]
    fn transient_read_errors_are_retryable() {
        use hl_vdev::{FaultConfig, FaultPlan};
        let jb = hp6300();
        let seg = vec![5u8; jb.segment_bytes()];
        jb.poke_segment(0, 3, &seg).unwrap();
        // 50% transient errors: with seed 11, some read in the first few
        // attempts fails and a later retry succeeds.
        let plan = FaultPlan::new(FaultConfig {
            transient_read_p: 0.5,
            ..FaultConfig::none(11)
        });
        jb.set_fault_plan(plan);
        let mut errors = 0;
        let mut successes = 0;
        for i in 0..32u64 {
            match jb.read_segment_on(secs(i as f64), 1, 0, 3) {
                Ok((_, _, back)) => {
                    assert_eq!(back.concat(), seg, "data intact after transient errors");
                    successes += 1;
                }
                Err(DevError::ReadError { .. }) => errors += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        // At 50% the binomial tails make all-32-one-way vanishingly
        // unlikely for any seed; both outcomes must appear.
        assert!(errors > 0, "no transient errors injected");
        assert!(successes > 0, "no read ever succeeded");
    }

    #[test]
    fn swap_jam_adds_stuck_time() {
        use hl_vdev::{FaultConfig, FaultPlan};
        let jb = hp6300();
        let plan = FaultPlan::new(FaultConfig {
            swap_jam_p: 1.0,
            ..FaultConfig::none(3)
        });
        jb.set_fault_plan(plan);
        let (w, _) = jb.write_segment_on(0, 0, 0, 0, &filled(1)).unwrap();
        // 13.5 s swap + 60 s jam + ~5 s write.
        assert!(w.end > secs(73.5), "jam time missing: {}", w.end);
    }

    #[test]
    fn swap_failure_reports_offline_without_loading() {
        use hl_vdev::{FaultConfig, FaultPlan};
        let jb = hp6300();
        let seg = vec![1u8; jb.segment_bytes()];
        jb.poke_segment(1, 0, &seg).unwrap();
        let plan = FaultPlan::new(FaultConfig {
            swap_fail_p: 1.0,
            ..FaultConfig::none(9)
        });
        jb.set_fault_plan(plan);
        assert_eq!(
            jb.read_segment_on(0, 1, 1, 0).err(),
            Some(DevError::Offline)
        );
        assert!(loaded_volumes(&jb).iter().all(|v| v.is_none()));
    }

    #[test]
    fn injected_early_eom_reports_end_of_medium() {
        use hl_vdev::{FaultConfig, FaultPlan};
        let jb = hp6300();
        let plan = FaultPlan::new(FaultConfig {
            early_eom_p: 1.0,
            ..FaultConfig::none(2)
        });
        jb.set_fault_plan(plan);
        assert!(matches!(
            jb.write_segment_on(0, 0, 0, 0, &filled(1)),
            Err(DevError::EndOfMedium { .. })
        ));
        // Reads are unaffected by the write-fault rate.
        jb.read_segment_on(0, 1, 0, 0).unwrap();
    }

    #[test]
    fn dead_drive_fails_ops_and_abandon_frees_the_platter() {
        use hl_vdev::FaultConfig;
        let jb = hp6300();
        let plan = FaultPlan::new(FaultConfig::none(7));
        plan.fail_drive_at(1, secs(10.0));
        jb.set_fault_plan(plan);
        let seg = vec![3u8; jb.segment_bytes()];
        jb.poke_segment(1, 0, &seg).unwrap();
        // Before the death the targeted read works and loads drive 1.
        let (r, d, _) = jb.read_segment_on(0, 1, 1, 0).unwrap();
        assert_eq!(d, 1);
        // After the death, ops routed to drive 1 fail fast — even via the
        // already-loaded path — and no robot or media time is charged.
        let swaps = jb.stats().swaps;
        assert!(matches!(
            jb.read_segment_on(r.end, 1, 1, 0),
            Err(DevError::DriveDead { drive: 1 })
        ));
        assert_eq!(jb.stats().swaps, swaps);
        assert!(!jb.probe_drive(r.end, 1));
        assert!(jb.probe_drive(r.end, 0));
        // Abandoning the drive drops the platter so a surviving lane can
        // swap it into its own drive.
        jb.abandon_drive(1);
        assert_eq!(loaded_volumes(&jb)[1], None);
        let (_, d0, back) = jb.read_segment_on(r.end, 0, 1, 0).unwrap();
        assert_eq!(d0, 0);
        assert_eq!(back.concat(), seg);
    }

    #[test]
    fn hung_drive_recovers_after_its_window() {
        use hl_vdev::FaultConfig;
        let jb = hp6300();
        let plan = FaultPlan::new(FaultConfig::none(7));
        plan.hang_drive_at(0, secs(5.0), secs(10.0));
        jb.set_fault_plan(plan);
        let seg = filled(4);
        assert!(matches!(
            jb.write_segment_on(secs(6.0), 0, 0, 0, &seg),
            Err(DevError::DriveHung { drive: 0 })
        ));
        assert!(!jb.probe_drive(secs(6.0), 0));
        // Outside the window the drive services ops again: hot spare.
        assert!(jb.probe_drive(secs(20.0), 0));
        assert!(jb.write_segment_on(secs(20.0), 0, 0, 0, &seg).is_ok());
    }

    #[test]
    fn robot_jam_stalls_swaps_until_the_window_ends() {
        use hl_vdev::FaultConfig;
        let jb = hp6300();
        let plan = FaultPlan::new(FaultConfig::none(7));
        plan.jam_robot_during(0, secs(30.0));
        jb.set_fault_plan(plan);
        let (w, _) = jb.write_segment_on(0, 0, 0, 0, &filled(5)).unwrap();
        // The platter could not be loaded before the jam cleared, so the
        // transfer starts after jam end + swap.
        assert!(
            w.start >= secs(30.0) + VOLUME_CHANGE_TIME,
            "swap ran during jam: start {}",
            w.start
        );
    }

    #[test]
    fn slow_drive_stretches_transfers_without_erroring() {
        use hl_vdev::FaultConfig;
        let jb = hp6300();
        let plan = FaultPlan::new(FaultConfig::none(7));
        plan.slow_drive_from(0, 3.0, 0);
        jb.set_fault_plan(plan);
        let seg = filled(6);
        let (w1, _) = jb.write_segment_on(0, 0, 0, 0, &seg).unwrap();
        let (w2, _) = jb.write_segment_on(w1.end, 0, 0, 1, &seg).unwrap();
        let nominal = DiskProfile::HP6300_MO.transfer(1024 * 1024, true);
        assert!(
            (w2.end - w2.start) >= 3 * nominal,
            "slow factor not applied: {} < {}",
            (w2.end - w2.start),
            3 * nominal
        );
    }

    #[test]
    fn nominal_segment_io_bounds_one_op() {
        let jb = hp6300();
        // Swap + worst-case position + transfer: more than a bare swap,
        // less than a minute for the HP 6300.
        let n = jb.nominal_segment_io(false);
        assert!(n > VOLUME_CHANGE_TIME);
        assert!(n < secs(60.0));
        // Writes are slower than reads on MO media.
        assert!(jb.nominal_segment_io(true) > n);
    }

    #[test]
    fn out_of_range_segment_rejected() {
        let jb = hp6300();
        let seg = filled(1);
        assert!(matches!(
            jb.write_segment_on(0, 0, 0, 40, &seg),
            Err(DevError::OutOfRange { .. })
        ));
        assert!(matches!(
            jb.write_segment_on(0, 0, 0, 0, &Segment::repeat(&seg[0], 1)),
            Err(DevError::BadBuffer { .. })
        ));
    }
}
