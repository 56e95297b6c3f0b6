//! Footprint operation counters: swap, seek and transfer time apart.
//!
//! Table 4's Footprint row is read off the engine trace's drive lanes,
//! whose intervals start after the robot's media exchange: it holds seek
//! and transfer time here but not `swap_time` (EXPERIMENTS.md, Table 4).

use hl_sim::time::SimTime;

/// Cumulative counters for one tertiary device.
#[derive(Clone, Copy, Debug, Default)]
pub struct FpStats {
    /// Whole-segment reads completed.
    pub reads: u64,
    /// Whole-segment writes completed (including partial end-of-medium
    /// writes).
    pub writes: u64,
    /// Bytes read from tertiary media.
    pub bytes_read: u64,
    /// Bytes written to tertiary media.
    pub bytes_written: u64,
    /// Media swaps performed by the robot.
    pub swaps: u64,
    /// Total robot swap time, µs.
    pub swap_time: SimTime,
    /// Total intra-volume positioning time, µs.
    pub seek_time: SimTime,
    /// Total media transfer time, µs.
    pub transfer_time: SimTime,
}

impl FpStats {
    /// Total device-busy time across all phases.
    pub fn busy_total(&self) -> SimTime {
        self.swap_time + self.seek_time + self.transfer_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_total_sums_phases() {
        let s = FpStats {
            swap_time: 10,
            seek_time: 20,
            transfer_time: 30,
            ..Default::default()
        };
        assert_eq!(s.busy_total(), 60);
    }
}
