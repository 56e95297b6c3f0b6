//! The host clocks: process CPU time, wall time beside it, and peak RSS.
//!
//! Host metrics are CPU time, not wall time, so a run that is descheduled
//! by a neighbour does not read as slow code. The CPU clock is the first
//! field of `/proc/self/schedstat` (nanoseconds this task has spent on a
//! CPU); the kernel advances it at scheduler ticks, so it is ~4 ms coarse
//! and only phases a hundred times longer than that are timed with it.
//! Spans, which bracket single calls, use the wall clock.

use std::time::Instant;

/// On-CPU nanoseconds from the text of `/proc/<pid>/schedstat`
/// (`run_ns wait_ns timeslices`).
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_ascii_whitespace().next()?.parse().ok()
}

/// Peak resident set in MB from the text of `/proc/<pid>/status`
/// (`VmHWM:    123456 kB`).
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Reads both clocks; falls back to wall time where the kernel does not
/// expose scheduler statistics.
pub struct HostClock {
    origin: Instant,
    /// `false` once `/proc/self/schedstat` turned out to be unreadable.
    pub has_cpu_clock: bool,
}

/// One reading of both clocks, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Stamp {
    /// Process CPU time (wall time where there is no CPU clock).
    pub cpu_ns: u64,
    /// Monotonic wall time since the clock was made.
    pub wall_ns: u64,
}

/// Host seconds on both clocks.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HostTime {
    pub cpu_s: f64,
    pub wall_s: f64,
}

impl HostClock {
    pub fn new() -> HostClock {
        let has_cpu_clock = read_cpu_ns().is_some();
        HostClock {
            origin: Instant::now(),
            has_cpu_clock,
        }
    }

    /// Wall nanoseconds since the clock was made (cheap; used by spans).
    pub fn wall_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time spent since an earlier stamp.
    pub fn since(&self, earlier: Stamp) -> HostTime {
        let now = self.stamp();
        HostTime {
            cpu_s: (now.cpu_ns - earlier.cpu_ns) as f64 / 1e9,
            wall_s: (now.wall_ns - earlier.wall_ns) as f64 / 1e9,
        }
    }

    pub fn stamp(&self) -> Stamp {
        let wall_ns = self.wall_ns();
        let cpu_ns = if self.has_cpu_clock {
            read_cpu_ns().unwrap_or(wall_ns)
        } else {
            wall_ns
        };
        Stamp { cpu_ns, wall_ns }
    }
}

fn read_cpu_ns() -> Option<u64> {
    parse_schedstat(&std::fs::read_to_string("/proc/self/schedstat").ok()?)
}

/// `VmHWM` of this process, MB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_first_field_is_cpu_time() {
        assert_eq!(parse_schedstat("494352059 80037 133\n"), Some(494_352_059));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("not-a-number 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_mb() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn falls_back_to_wall_time_without_a_cpu_clock() {
        let clock = HostClock {
            origin: Instant::now(),
            has_cpu_clock: false,
        };
        let a = clock.stamp();
        assert_eq!(a.cpu_ns, a.wall_ns);
        let mut b = clock.stamp();
        while b.wall_ns == a.wall_ns {
            b = clock.stamp();
        }
        let spent = clock.since(a);
        assert!(spent.cpu_s > 0.0 && spent.cpu_s == spent.wall_s);
        assert!(b.cpu_ns > a.cpu_ns);
    }
}
