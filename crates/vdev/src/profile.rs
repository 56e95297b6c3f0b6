//! Device performance profiles, calibrated against the paper's Table 5.
//!
//! Table 5 gives measured sequential throughput for the devices in the
//! testbed: raw MO read 451 KB/s, raw MO write 204 KB/s, RZ57 1417/993,
//! RZ58 1491/1261, and a 13.5 s volume change. The profiles below take
//! those rates directly; seek and rotation figures come from the devices'
//! published specifications (they were not reported in the paper and only
//! influence the random-access phases of Table 2, where the *shape* —
//! seek-bound ≈ 150 KB/s — is what must reproduce).

use hl_sim::time::{transfer_time, SimTime, MS};

/// Performance model of a rotating random-access device (magnetic disk or
/// magneto-optical platter in a drive).
#[derive(Clone, Copy, Debug)]
pub struct DiskProfile {
    /// Human-readable model name.
    pub name: &'static str,
    /// Sequential read throughput in KB/s (Table 5 calibration).
    pub seq_read_kbs: f64,
    /// Sequential write throughput in KB/s (Table 5 calibration).
    pub seq_write_kbs: f64,
    /// Track-to-track seek, microseconds.
    pub min_seek: SimTime,
    /// Full-stroke seek, microseconds.
    pub max_seek: SimTime,
    /// Spindle speed, revolutions per minute (rotational latency = half a
    /// revolution).
    pub rpm: u32,
    /// Fixed per-operation command overhead, microseconds.
    pub per_io_overhead: SimTime,
}

impl DiskProfile {
    /// DEC RZ57 — the paper's primary 848 MB filesystem disk.
    pub const RZ57: DiskProfile = DiskProfile {
        name: "DEC RZ57",
        seq_read_kbs: 1417.0,
        seq_write_kbs: 993.0,
        min_seek: 4 * MS,
        max_seek: 29 * MS,
        rpm: 3600,
        per_io_overhead: 700,
    };

    /// DEC RZ58 — the faster SCSI disk used as an alternate staging area
    /// in Table 6. (The paper notes its read figure may be SCSI-I limited.)
    pub const RZ58: DiskProfile = DiskProfile {
        name: "DEC RZ58",
        seq_read_kbs: 1491.0,
        seq_write_kbs: 1261.0,
        min_seek: 3 * MS,
        max_seek: 24 * MS,
        rpm: 4400,
        per_io_overhead: 600,
    };

    /// HP 7958A — the slow HPIB-connected disk of Table 6. Throughput is
    /// back-computed from the paper's no-contention migration figure
    /// (145 KB/s through a 204 KB/s MO write implies ≈500 KB/s reads).
    pub const HP7958A: DiskProfile = DiskProfile {
        name: "HP 7958A (HPIB)",
        seq_read_kbs: 500.0,
        seq_write_kbs: 420.0,
        min_seek: 6 * MS,
        max_seek: 45 * MS,
        rpm: 3600,
        per_io_overhead: 2500,
    };

    /// One side of an HP 6300 magneto-optical cartridge in a drive
    /// (Table 5: 451 KB/s read, 204 KB/s write — MO writes need an erase
    /// pass, hence the asymmetry).
    pub const HP6300_MO: DiskProfile = DiskProfile {
        name: "HP 6300 MO drive",
        seq_read_kbs: 451.0,
        seq_write_kbs: 204.0,
        min_seek: 20 * MS,
        max_seek: 120 * MS,
        rpm: 2400,
        per_io_overhead: 2000,
    };

    /// A platter of the Sony write-once optical jukebox (§2; ~327 GB
    /// total). Rates estimated from contemporary WORM drives.
    pub const SONY_WORM: DiskProfile = DiskProfile {
        name: "Sony WORM platter",
        seq_read_kbs: 600.0,
        seq_write_kbs: 300.0,
        min_seek: 25 * MS,
        max_seek: 150 * MS,
        rpm: 1800,
        per_io_overhead: 2500,
    };

    /// Rotational latency: half a revolution.
    pub fn rot_latency(&self) -> SimTime {
        // Full revolution in µs = 60e6 / rpm.
        (60_000_000 / self.rpm as u64) / 2
    }

    /// Seek time for a head movement spanning `dist` of `span` blocks.
    ///
    /// Zero distance costs nothing (the head is already there); otherwise
    /// the classic square-root seek curve between track-to-track and
    /// full-stroke times.
    pub fn seek_time(&self, dist: u64, span: u64) -> SimTime {
        if dist == 0 || span == 0 {
            return 0;
        }
        let frac = (dist.min(span) as f64 / span as f64).sqrt();
        self.min_seek + ((self.max_seek - self.min_seek) as f64 * frac).round() as SimTime
    }

    /// Pure media transfer time for `bytes` in the given direction.
    pub fn transfer(&self, bytes: u64, write: bool) -> SimTime {
        let rate = if write {
            self.seq_write_kbs
        } else {
            self.seq_read_kbs
        };
        transfer_time(bytes, rate)
    }
}

/// Performance model of a sequential tape transport.
#[derive(Clone, Copy, Debug)]
pub struct TapeProfile {
    /// Human-readable model name.
    pub name: &'static str,
    /// Streaming throughput, KB/s (reads and writes stream alike).
    pub stream_kbs: f64,
    /// Time to position over `1 MB` of tape distance, microseconds.
    pub seek_per_mb: SimTime,
    /// Full rewind, microseconds.
    pub rewind: SimTime,
    /// Nominal cartridge capacity in bytes.
    pub capacity: u64,
}

impl TapeProfile {
    /// Metrum RSS-48/RSS-600 VHS cartridge: 14.5 GB, ~1 MB/s class
    /// transport (§2: 600 cartridges ≈ 9 TB).
    pub const METRUM: TapeProfile = TapeProfile {
        name: "Metrum VHS cartridge",
        stream_kbs: 1100.0,
        seek_per_mb: 6 * MS,
        rewind: 90_000_000,
        capacity: 14_500 * 1024 * 1024,
    };

    /// Streaming transfer time for `bytes`.
    pub fn transfer(&self, bytes: u64) -> SimTime {
        transfer_time(bytes, self.stream_kbs)
    }

    /// Positioning time for a move of `bytes` of tape distance.
    pub fn seek_time(&self, bytes: u64) -> SimTime {
        (bytes / (1024 * 1024)) * self.seek_per_mb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_sim::time::{throughput_kbs, SEC};

    #[test]
    fn table5_sequential_rates_reproduce() {
        // A 1 MB raw transfer at the calibrated rate must land on the
        // paper's Table 5 figures to within rounding.
        let mb = 1024 * 1024;
        for (profile, rate, write) in [
            (DiskProfile::HP6300_MO, 451.0, false),
            (DiskProfile::HP6300_MO, 204.0, true),
            (DiskProfile::RZ57, 1417.0, false),
            (DiskProfile::RZ57, 993.0, true),
            (DiskProfile::RZ58, 1491.0, false),
            (DiskProfile::RZ58, 1261.0, true),
        ] {
            let t = profile.transfer(mb, write);
            let kbs = throughput_kbs(mb, t);
            assert!(
                (kbs - rate).abs() < 1.0,
                "{}: {kbs} vs {rate}",
                profile.name
            );
        }
    }

    #[test]
    fn seek_curve_is_monotonic_and_bounded() {
        let p = DiskProfile::RZ57;
        let span = 1_000_000;
        assert_eq!(p.seek_time(0, span), 0);
        let mut last = 0;
        for d in [1, 10, 1_000, 100_000, span] {
            let s = p.seek_time(d, span);
            assert!(s >= last);
            last = s;
        }
        assert!(p.seek_time(span, span) <= p.max_seek);
        assert!(p.seek_time(1, span) >= p.min_seek);
        // Distances beyond the span clamp to a full stroke.
        assert_eq!(p.seek_time(span * 2, span), p.seek_time(span, span));
    }

    #[test]
    fn rotational_latency_is_half_a_revolution() {
        assert_eq!(DiskProfile::RZ57.rot_latency(), 8_333);
        assert_eq!(DiskProfile::RZ58.rot_latency(), 6_818);
    }

    #[test]
    fn tape_streams_at_rated_speed() {
        let p = TapeProfile::METRUM;
        let t = p.transfer(p.stream_kbs as u64 * 1024);
        assert!((t as i64 - SEC as i64).abs() < 2);
        assert_eq!(p.seek_time(10 * 1024 * 1024), 10 * p.seek_per_mb);
    }
}
