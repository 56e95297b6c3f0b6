//! Device-level errors.

use std::fmt;

/// Errors a simulated device can report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DevError {
    /// The requested block range lies outside the device.
    OutOfRange {
        /// First block requested.
        block: u64,
        /// Number of blocks requested.
        count: u64,
        /// Device capacity in blocks.
        capacity: u64,
    },
    /// An injected unrecoverable read error.
    ReadError {
        /// The failing block.
        block: u64,
    },
    /// The whole medium has failed (injected; §10 reliability discussion).
    MediaFailure,
    /// A sequential medium reported end-of-medium before the write
    /// completed (§6.3: compression shortfall handling).
    EndOfMedium {
        /// Bytes actually written before the medium filled.
        written: u64,
    },
    /// The device (or its volume) is not loaded/online.
    Offline,
    /// An attempt to overwrite a block that is read-only at this level
    /// (a block held in a tertiary cache line).
    WriteOnceViolation {
        /// The block that already holds data.
        block: u64,
    },
    /// Buffer length does not match the block count requested.
    BadBuffer {
        /// Expected length in bytes.
        expected: usize,
        /// Provided length in bytes.
        got: usize,
    },
    /// The jukebox drive that would execute this operation has failed
    /// hard (injected; it stays dead until replaced).
    DriveDead {
        /// The failed drive.
        drive: u32,
    },
    /// The jukebox drive hung mid-operation: the op never completes and
    /// the caller's watchdog must fire. The drive may heal later.
    DriveHung {
        /// The hung drive.
        drive: u32,
    },
}

impl fmt::Display for DevError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DevError::OutOfRange {
                block,
                count,
                capacity,
            } => write!(
                f,
                "block range {block}..{} outside device capacity {capacity}",
                block + count
            ),
            DevError::ReadError { block } => write!(f, "unrecoverable read error at block {block}"),
            DevError::MediaFailure => write!(f, "media failure"),
            DevError::EndOfMedium { written } => {
                write!(f, "end of medium after {written} bytes")
            }
            DevError::Offline => write!(f, "device offline"),
            DevError::WriteOnceViolation { block } => {
                write!(f, "write-once violation: block {block} already written")
            }
            DevError::BadBuffer { expected, got } => {
                write!(f, "buffer length {got} does not match I/O size {expected}")
            }
            DevError::DriveDead { drive } => write!(f, "drive d{drive} is dead"),
            DevError::DriveHung { drive } => write!(f, "drive d{drive} hung mid-operation"),
        }
    }
}

impl std::error::Error for DevError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DevError::OutOfRange {
            block: 10,
            count: 5,
            capacity: 12,
        };
        assert_eq!(
            e.to_string(),
            "block range 10..15 outside device capacity 12"
        );
        assert!(DevError::MediaFailure.to_string().contains("media"));
    }
}
