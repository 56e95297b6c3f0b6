//! Footprint: the abstract robotic-storage interface (§2, §6.5).
//!
//! Sequoia's variety of robots — a 600-cartridge Metrum VHS unit, an HP
//! 6300 magneto-optical changer, a Sony WORM jukebox — led to a uniform
//! interface that "unburdens HighLight from needing to understand the
//! details of a particular device". This crate is that interface:
//! tertiary storage is *an array of devices each holding an array of media
//! volumes, each of which contains an array of segments* (§6.5), and
//! HighLight moves whole segments through it.
//!
//! The [`Footprint`] trait exposes segment-granularity reads and writes
//! with full timing: robot swap latency (13.5 s measured in Table 5, and
//! the swap *hogs the SCSI bus* because the autochanger driver never
//! disconnects, §7), per-medium seeks, and calibrated transfer rates.
//! [`Jukebox`] implements it for magneto-optical, tape, and write-once
//! media.

pub mod jukebox;
pub mod stats;

pub use jukebox::{Jukebox, JukeboxConfig, MediaKind};
pub use stats::FpStats;

use hl_sim::time::SimTime;
use hl_vdev::{Block, DevError, IoSlot};

/// Identifies a media volume (tape cartridge or optical platter) within a
/// tertiary device.
pub type VolumeId = u32;

/// The abstract robotic-device interface HighLight is written against.
///
/// All data movement is in whole segments: "HighLight uses the same data
/// format on both secondary and tertiary storage, transferring entire LFS
/// segments between the levels of the storage hierarchy" (§1).
pub trait Footprint {
    /// Number of media volumes in the device.
    fn volumes(&self) -> u32;

    /// Segment size in bytes (uniform across the filesystem).
    fn segment_bytes(&self) -> usize;

    /// Number of segment slots allocated to a volume. This is the
    /// *maximum expected* count (§6.3); compressing media may fill early.
    fn segments_per_volume(&self) -> u32;

    /// Timed whole-segment read.
    fn read_segment(
        &self,
        at: SimTime,
        vol: VolumeId,
        seg: u32,
        buf: &mut [u8],
    ) -> Result<IoSlot, DevError>;

    /// Timed whole-segment write. Returns
    /// [`DevError::EndOfMedium`] if the volume filled early (compression
    /// shortfall); the caller marks the volume full and re-writes the
    /// segment on the next volume (§6.3).
    fn write_segment(
        &self,
        at: SimTime,
        vol: VolumeId,
        seg: u32,
        buf: &[u8],
    ) -> Result<IoSlot, DevError>;

    /// Untimed read, for recovery tooling and tests.
    fn peek_segment(&self, vol: VolumeId, seg: u32, buf: &mut [u8]) -> Result<(), DevError>;

    /// Untimed write, for formatting and tests.
    fn poke_segment(&self, vol: VolumeId, seg: u32, buf: &[u8]) -> Result<(), DevError>;

    /// Marks a volume as failed media (§10 reliability experiments).
    fn fail_volume(&self, vol: VolumeId);

    /// Cumulative timing/operation counters.
    fn stats(&self) -> FpStats;

    /// Returns the volume currently loaded in each drive (`None` = empty).
    fn loaded_volumes(&self) -> Vec<Option<VolumeId>>;

    /// Number of drives in the device (the I/O-server pool spawns one
    /// actor per drive).
    fn drives(&self) -> usize;

    /// Timed whole-segment read targeted at a drive, by reference: each
    /// of `out`'s handles (one per block of the segment) is replaced by
    /// one onto the medium's block — no bytes move. If `vol` is already
    /// loaded somewhere the loaded drive serves the read (no media
    /// movement); otherwise the robot swaps it into `drive`. Returns the
    /// slot and the drive that actually performed the transfer.
    fn read_segment_on(
        &self,
        at: SimTime,
        drive: usize,
        vol: VolumeId,
        seg: u32,
        out: &mut [Block],
    ) -> Result<(IoSlot, usize), DevError>;

    /// Timed whole-segment write targeted at a drive, by reference: the
    /// medium keeps handles onto `blocks`. Same drive-routing rule and
    /// return convention as [`Footprint::read_segment_on`].
    fn write_segment_on(
        &self,
        at: SimTime,
        drive: usize,
        vol: VolumeId,
        seg: u32,
        blocks: &[Block],
    ) -> Result<(IoSlot, usize), DevError>;

    /// Erases a volume so its slots may be rewritten (tertiary cleaning,
    /// §10). Fails on write-once media.
    fn erase_volume(&self, vol: VolumeId) -> Result<(), DevError>;

    /// Nominal duration of one whole-segment operation on a healthy
    /// drive: a volume change plus the media transfer. The I/O server's
    /// watchdog deadline is this times a slack factor.
    fn nominal_segment_io(&self, writing: bool) -> SimTime;

    /// Abandons whatever platter `drive` holds (the lane marked it down):
    /// the volume is unloaded without robot involvement so surviving
    /// drives can swap it in.
    fn abandon_drive(&self, at: SimTime, drive: usize);

    /// Health probe: `true` when `drive` would service an operation
    /// started at `at`. Quarantined lanes poll this through their backoff
    /// ladder before rejoining the pool.
    fn probe_drive(&self, at: SimTime, drive: usize) -> bool;

    /// The drive's busy horizon: when its current media transfer ends
    /// (0 if idle or unknown). A drive-down event is stamped no earlier
    /// than this, so an already in-flight transfer on the victim drive
    /// never appears to run on a downed lane.
    fn drive_busy_until(&self, drive: usize) -> SimTime;
}
