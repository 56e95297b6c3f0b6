//! What a workload is to the runner: something that can be repeated.

use crate::clock::{HostClock, HostTime};
use crate::report::Metric;
use crate::span::{aggregate, Recorder, Span};
use crate::stats::median;

/// The exact simulated results of one rep. Two reps of one run see the
/// same inputs, so these must be equal bit for bit; the runner fails the
/// run otherwise.
#[derive(Clone, Debug, PartialEq)]
pub struct SimOutcome {
    /// Median simulated latency of the sampled ops, µs.
    pub lat_p50_us: u64,
    /// 99th percentile of the same sample, µs.
    pub lat_p99_us: u64,
    /// Ops in the latency sample.
    pub lat_samples: u64,
    /// User bytes moved by the measured phase.
    pub user_bytes: u64,
    /// Simulated length of the measured phase, µs.
    pub makespan_us: u64,
    /// `io_amp` is `amp_moved / amp_per`: device bytes per user byte on
    /// the file-system workloads, media reads per answered get on fleets.
    pub amp_moved: u64,
    pub amp_per: u64,
    /// Trace digest of the engine(s) the rep drove.
    pub digest: u64,
    /// Simulated per-layer counters (exact, so part of the identity
    /// check).
    pub counters: Vec<Counter>,
}

/// A per-layer figure on the simulated clock, kept as the exact integers
/// it is made of so that reps can be compared bit for bit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Counter {
    pub name: &'static str,
    pub num: u64,
    /// 1 for plain counts; the base of a ratio or unit conversion
    /// otherwise.
    pub den: u64,
    pub unit: &'static str,
}

impl Counter {
    pub fn count(name: &'static str, n: u64) -> Counter {
        Counter::ratio(name, n, 1, "count")
    }

    pub fn ratio(name: &'static str, num: u64, den: u64, unit: &'static str) -> Counter {
        Counter {
            name,
            num,
            den,
            unit,
        }
    }

    /// `num / den`; 0 where the base is 0 (nothing happened).
    pub fn value(&self) -> f64 {
        if self.den == 0 {
            0.0
        } else {
            self.num as f64 / self.den as f64
        }
    }
}

/// One repetition: set up, run the measured phase, verify.
pub struct Rep {
    /// Ops the measured phase attempted.
    pub ops: u64,
    /// Ops that returned an error or failed the oracle.
    pub failed: u64,
    /// Building the rig.
    pub setup: HostTime,
    /// The measured phase.
    pub run: HostTime,
    pub sim: SimOutcome,
    /// Spans of the measured phase and the set-up (traced reps only).
    pub spans: Vec<Span>,
}

pub trait Workload {
    fn name(&self) -> &'static str;

    /// Runs one rep. The same call on the same workload value yields the
    /// same simulated outcome every time.
    fn rep(&self, host: &HostClock, rec: &mut Recorder) -> Rep;

    /// Host-clock per-layer metrics from the traced reps (span
    /// aggregates) plus this workload's isolated layer drives; `common`
    /// holds the drives every workload reports. Simulated
    /// per-layer counters travel in [`SimOutcome::counters`] instead.
    fn layer_metrics(&self, traced: &[&Rep], common: &[Metric]) -> Vec<Metric>;

    /// Traced-run checks of the ledger and the bypass predictions; each
    /// returned line is a violation and fails the run.
    fn ledger_violations(&self, traced: &[&Rep]) -> Vec<String>;
}

/// How a span total becomes a metric.
pub enum Per {
    /// Host time in ms.
    Ms,
    /// Simulated time in ms.
    SimMs,
    /// Calls.
    Calls,
    /// Host ns per KB of the given bytes.
    NsPerKb(u64),
}

/// Host-clock per-layer metrics from span totals: for each `(metric,
/// span name, how)`, the median over the traced reps.
pub fn span_metrics(traced: &[&Rep], table: &[(&'static str, &'static str, Per)]) -> Vec<Metric> {
    let aggs: Vec<_> = traced.iter().map(|r| aggregate(&r.spans)).collect();
    table
        .iter()
        .map(|(metric, span, per)| {
            let mut xs: Vec<f64> = aggs
                .iter()
                .map(|a| {
                    let g = a.get(span).copied().unwrap_or_default();
                    match per {
                        Per::Ms => g.host_ns as f64 / 1e6,
                        Per::SimMs => g.sim_us as f64 / 1e3,
                        Per::Calls => g.calls as f64,
                        Per::NsPerKb(bytes) => g.host_ns as f64 / (*bytes as f64 / 1024.0),
                    }
                })
                .collect();
            let unit = match per {
                Per::Ms | Per::SimMs => "ms",
                Per::Calls => "count",
                Per::NsPerKb(_) => "ns/KB",
            };
            Metric::new(metric, median(&mut xs), unit)
        })
        .collect()
}
