//! The block-device interface the filesystems are written against.
//!
//! HighLight's layering (§6.6, Figure 5) stacks pseudo-device drivers: a
//! concatenating driver under the LFS, and above it the block-map driver
//! that dispatches to disk, cache, or tertiary storage. [`BlockDev`] is the
//! interface every layer exposes, so the filesystems need not know what
//! they are mounted on.

use hl_sim::time::SimTime;

use crate::backing::Block;
use crate::error::DevError;

/// The time slot granted to an I/O operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoSlot {
    /// When the operation began service.
    pub start: SimTime,
    /// When the operation completed; the caller's clock should advance to
    /// this point for synchronous I/O.
    pub end: SimTime,
}

impl IoSlot {
    /// An instantaneous slot at `t` (used for cache hits and zero-length
    /// operations).
    fn instant(t: SimTime) -> Self {
        Self { start: t, end: t }
    }

    /// The slot's duration.
    pub fn duration(&self) -> SimTime {
        self.end - self.start
    }
}

/// A (possibly pseudo-) block device with timed and untimed access.
///
/// Timed operations (`read`, `write`) account seek, rotation, transfer,
/// and bus time against the device's resources and return the granted
/// [`IoSlot`]. Untimed operations (`peek`, `poke`) access the backing
/// store without touching the simulation clock — they exist for
/// formatting, for test setup, and for the migrator's raw-device reads
/// whose timing the caller accounts explicitly.
///
/// The `_blocks` forms move [`Block`] handles, one per device block: the
/// tertiary engine's whole-segment transfers. By default they go through
/// the byte forms, so a wrapper that tears, counts or routes bytes does
/// the same to them; a device holding `Block`s moves no bytes at all.
pub trait BlockDev {
    /// Device capacity in blocks.
    fn nblocks(&self) -> u64;

    /// Block size in bytes.
    fn block_size(&self) -> usize;

    /// Timed read of `buf.len() / block_size` consecutive blocks.
    fn read(&self, at: SimTime, block: u64, buf: &mut [u8]) -> Result<IoSlot, DevError>;

    /// Timed write of `buf.len() / block_size` consecutive blocks.
    fn write(&self, at: SimTime, block: u64, buf: &[u8]) -> Result<IoSlot, DevError>;

    /// Untimed read (no simulated time passes).
    fn peek(&self, block: u64, buf: &mut [u8]) -> Result<(), DevError>;

    /// Untimed write (no simulated time passes).
    fn poke(&self, block: u64, buf: &[u8]) -> Result<(), DevError>;

    /// Timed read of `out.len()` consecutive blocks: each handle in `out`
    /// is replaced by one onto the device's block. Same timing as
    /// [`BlockDev::read`] of as many bytes.
    fn read_blocks(&self, at: SimTime, block: u64, out: &mut [Block]) -> Result<IoSlot, DevError> {
        let bs = self.block_size();
        let mut buf = vec![0; out.len() * bs];
        let slot = self.read(at, block, &mut buf)?;
        for (o, b) in out.iter_mut().zip(Block::split(buf.into(), bs)) {
            *o = b;
        }
        Ok(slot)
    }

    /// Timed write of `blocks.len()` consecutive blocks, each handle one
    /// block long. Same timing as [`BlockDev::write`] of as many bytes.
    fn write_blocks(&self, at: SimTime, block: u64, blocks: &[Block]) -> Result<IoSlot, DevError> {
        self.write(at, block, &blocks.concat())
    }

    /// Untimed write of `blocks.len()` consecutive blocks.
    fn poke_blocks(&self, block: u64, blocks: &[Block]) -> Result<(), DevError> {
        self.poke(block, &blocks.concat())
    }

    /// Flushes any device write-behind state. The simulated devices are
    /// write-through, so the default is a no-op; pseudo-devices that
    /// buffer (e.g. the block-map driver) override it.
    fn flush(&self, at: SimTime) -> Result<IoSlot, DevError> {
        Ok(IoSlot::instant(at))
    }
}

/// Validates an I/O request against a device's geometry and returns the
/// block count.
pub(crate) fn check_io(
    nblocks: u64,
    block_size: usize,
    block: u64,
    buf_len: usize,
) -> Result<u64, DevError> {
    // Block sizes are powers of two in practice; mask-and-shift keeps
    // the runtime `div`/`mod` (20+ cycles each) off the per-I/O path.
    let (misaligned, count) = if block_size.is_power_of_two() {
        (
            buf_len & (block_size - 1) != 0,
            (buf_len >> block_size.trailing_zeros()) as u64,
        )
    } else {
        (
            !buf_len.is_multiple_of(block_size),
            (buf_len / block_size) as u64,
        )
    };
    if buf_len == 0 || misaligned {
        return Err(DevError::BadBuffer {
            expected: block_size.max(buf_len.next_multiple_of(block_size.max(1))),
            got: buf_len,
        });
    }
    if block.checked_add(count).is_none() || block + count > nblocks {
        return Err(DevError::OutOfRange {
            block,
            count,
            capacity: nblocks,
        });
    }
    Ok(count)
}

/// The byte length of a run of block handles to be written, refusing a
/// handle that is not exactly one `block_size` block (a short handle
/// must not hide behind a long one in a right-sized total).
pub fn run_bytes(blocks: &[Block], block_size: usize) -> Result<usize, DevError> {
    match blocks.iter().find(|b| b.len() != block_size) {
        Some(b) => Err(DevError::BadBuffer {
            expected: block_size,
            got: b.len(),
        }),
        None => Ok(blocks.len() * block_size),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_slot_duration() {
        let s = IoSlot { start: 5, end: 12 };
        assert_eq!(s.duration(), 7);
        assert_eq!(IoSlot::instant(3).duration(), 0);
    }

    #[test]
    fn check_io_accepts_whole_blocks_in_range() {
        assert_eq!(check_io(100, 8, 0, 16), Ok(2));
        assert_eq!(check_io(100, 8, 98, 16), Ok(2));
    }

    #[test]
    fn check_io_rejects_partial_blocks() {
        assert!(matches!(
            check_io(100, 8, 0, 12),
            Err(DevError::BadBuffer { .. })
        ));
        assert!(matches!(
            check_io(100, 8, 0, 0),
            Err(DevError::BadBuffer { .. })
        ));
    }

    #[test]
    fn check_io_rejects_out_of_range() {
        assert!(matches!(
            check_io(100, 8, 99, 16),
            Err(DevError::OutOfRange { .. })
        ));
        assert!(matches!(
            check_io(100, 8, u64::MAX, 8),
            Err(DevError::OutOfRange { .. })
        ));
    }
}
