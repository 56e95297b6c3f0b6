//! The shared SCSI bus.
//!
//! The paper's magnetic and magneto-optical disks shared one SCSI-I bus.
//! Two facts from §7 shape the model:
//!
//! - "This suggests that SCSI bandwidth was not the limiting factor": a
//!   slow device does not occupy the bus for its whole transfer — data
//!   move across the bus at *bus* speed in bursts, so a 204 KB/s MO write
//!   uses only ~14% of a 1.5 MB/s SCSI-I bus. Bus occupancy here is
//!   therefore `bytes / bus_rate`.
//! - "Any media swap transactions 'hog' the SCSI bus until the robot has
//!   finished moving the cartridges": the autochanger driver never
//!   disconnects, so a swap occupies the bus for its entire (many-second)
//!   duration.

use hl_sim::time::{transfer_time, SimTime};
use hl_sim::Resource;

/// SCSI-I bus bandwidth in KB/s.
const SCSI1_KBS: f64 = 1500.0;

/// A shared bus; cloning shares state.
#[derive(Clone, Debug)]
pub struct ScsiBus {
    res: Resource,
}

impl ScsiBus {
    /// Creates an idle SCSI-I bus.
    pub fn new(name: &'static str) -> Self {
        Self {
            res: Resource::new(name),
        }
    }

    /// Occupies the bus to move `bytes`, starting no earlier than `at`.
    /// Returns the granted `(start, end)` slot.
    pub fn transfer(&self, at: SimTime, bytes: u64) -> (SimTime, SimTime) {
        self.res.acquire(at, transfer_time(bytes, SCSI1_KBS))
    }

    /// Occupies the bus for a media-swap transaction of `duration` (the
    /// non-disconnecting autochanger driver).
    pub fn hog_for_swap(&self, at: SimTime, duration: SimTime) -> (SimTime, SimTime) {
        self.res.acquire(at, duration)
    }

    /// Time at which the bus next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.res.free_at()
    }

    /// Total time the bus has been occupied.
    pub fn busy_total(&self) -> SimTime {
        self.res.busy_total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfers_occupy_at_bus_rate() {
        let bus = ScsiBus::new("scsi0");
        // 1500 KB at 1500 KB/s = exactly one second of bus time.
        let (s, e) = bus.transfer(0, 1500 * 1024);
        assert_eq!(s, 0);
        assert_eq!(e, 1_000_000);
    }

    #[test]
    fn slow_devices_leave_bus_headroom() {
        // An MO write of 1 MB takes ~5 s at the device but only ~0.7 s of
        // bus; a concurrent disk transfer is barely delayed.
        let bus = ScsiBus::new("scsi0");
        let (_, mo_bus_end) = bus.transfer(0, 1 << 20);
        assert!(mo_bus_end < 1_000_000);
        let (s2, _) = bus.transfer(0, 1 << 20);
        assert_eq!(s2, mo_bus_end);
    }

    #[test]
    fn swaps_delay_transfers() {
        let bus = ScsiBus::new("scsi0");
        bus.hog_for_swap(0, 13_500_000);
        let (start, _) = bus.transfer(1_000_000, 4096);
        assert_eq!(start, 13_500_000);
    }

    #[test]
    fn clones_share_the_bus() {
        let a = ScsiBus::new("scsi0");
        let b = a.clone();
        a.hog_for_swap(0, 100);
        assert_eq!(b.free_at(), 100);
        assert_eq!(b.busy_total(), 100);
    }
}
