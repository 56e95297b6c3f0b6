//! Typed errors for the tertiary I/O path (§10).
//!
//! The paper's answer to tertiary media failures is replication plus
//! whole-segment re-fetch; what it leaves implicit is what the system
//! tells its callers when even that fails. A failed demand fetch says
//! which segment is gone ([`HlError::SegmentUnavailable`]); what the
//! recovery policy tried on the way — each read fault, retry, failover,
//! quarantine and the final loss — is in the engine's trace, as that
//! segment's `rcv` lines (`hl_trace::EventKind::Recovery`), beside the
//! injected faults' own `fault` lines. The engine's fault counters are
//! read off the same events.

use hl_lfs::types::SegNo;
use hl_vdev::DevError;
use std::fmt;

/// Errors surfaced by the tertiary I/O engine: either a plain device
/// error, or an exhausted recovery.
#[derive(Clone, Debug, PartialEq)]
pub enum HlError {
    /// A device error the recovery layer does not handle (bad buffer,
    /// out of range, cache exhaustion, end-of-medium, ...).
    Dev(DevError),
    /// Every copy of a tertiary segment was tried and none could be
    /// read. Degraded mode: cached lines keep serving, but this segment
    /// is gone until an operator restores a copy. The steps tried are
    /// the trace's recovery lines for `seg`.
    SegmentUnavailable {
        /// The unreachable logical tertiary segment.
        seg: SegNo,
    },
}

impl HlError {
    /// Collapses to a [`DevError`] for the `BlockDev` boundary (the
    /// block-map pseudo-device must speak the device vocabulary; the
    /// recovery steps stay in the engine's trace).
    pub fn into_dev(self) -> DevError {
        match self {
            HlError::Dev(e) => e,
            HlError::SegmentUnavailable { .. } => DevError::Offline,
        }
    }
}

impl From<DevError> for HlError {
    fn from(e: DevError) -> HlError {
        HlError::Dev(e)
    }
}

impl fmt::Display for HlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HlError::Dev(e) => e.fmt(f),
            HlError::SegmentUnavailable { seg } => {
                write!(f, "tertiary segment {seg} unavailable")
            }
        }
    }
}

impl std::error::Error for HlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn into_dev_collapses_unavailable_to_offline() {
        let e = HlError::SegmentUnavailable { seg: 1 };
        assert_eq!(e.to_string(), "tertiary segment 1 unavailable");
        assert_eq!(e.into_dev(), DevError::Offline);
        assert_eq!(
            HlError::Dev(DevError::MediaFailure).into_dev(),
            DevError::MediaFailure
        );
    }
}
