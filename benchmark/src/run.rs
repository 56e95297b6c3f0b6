//! The rep loop: anchor, rep, anchor, rep, … until the time is used,
//! then the identity check, the medians and the metric lists.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::anchor;
use crate::clock::{peak_rss_mb, HostClock};
use crate::layers;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::report::{Metric, RunResult};
use crate::span::{Recorder, Span};
use crate::stats::{median, quartile_spread, supported_tail};
use crate::workload::{Rep, Workload};

pub struct Options {
    /// How long to keep starting reps, seconds.
    pub seconds: f64,
    /// Traced run: every other rep records spans, and the isolated layer
    /// drives run afterwards.
    pub trace: bool,
}

/// Reps a run makes however short `seconds` is: enough for a median
/// and, traced, for two reps of each kind.
const MIN_REPS: usize = 5;
/// Share of a traced run's time the rep loop may use; the isolated
/// layer drives get the rest.
const TRACED_LOOP_SHARE: f64 = 0.8;

struct Timed {
    rep: Rep,
    traced: bool,
    /// Mean of the anchor measurements on either side of the rep, ns.
    anchor_ns: f64,
}

impl Timed {
    fn scaled_run_s(&self) -> f64 {
        anchor::scale(self.rep.run.cpu_s, self.anchor_ns)
    }
    /// Set-up can be shorter than the CPU clock's 4 ms tick, so it is
    /// the one host figure taken from the wall clock.
    fn scaled_setup_s(&self) -> f64 {
        anchor::scale(self.rep.setup.wall_s, self.anchor_ns)
    }
}

fn median_of(reps: &[&Timed], f: impl Fn(&Timed) -> f64) -> f64 {
    median(&mut reps.iter().map(|t| f(t)).collect::<Vec<_>>())
}

/// Repeats `w` until the next rep would end after the time allowed.
fn repeat(w: &dyn Workload, opts: &Options) -> Vec<Timed> {
    let host = HostClock::new();
    let started = Instant::now();
    let budget = opts.seconds * if opts.trace { TRACED_LOOP_SHARE } else { 1.0 };
    let mut reps: Vec<Timed> = Vec::new();
    let mut before = anchor::measure();
    loop {
        let traced = opts.trace && reps.len() % 2 == 1;
        let rep = w.rep(&host, &mut Recorder::new(&host, traced));
        let after = anchor::measure();
        reps.push(Timed {
            rep,
            traced,
            anchor_ns: (before + after) / 2.0,
        });
        before = after;
        let elapsed = started.elapsed().as_secs_f64();
        let next_ends = elapsed + elapsed / reps.len() as f64;
        if reps.len() >= MIN_REPS && next_ends > budget {
            return reps;
        }
    }
}

/// Runs `w` for `opts.seconds` and reports; also returns the spans of
/// the first traced rep for the trace file.
pub fn run(w: &dyn Workload, opts: &Options) -> (RunResult, Vec<Span>) {
    let reps = repeat(w, opts);

    // Correctness: no op failed, and every rep saw what rep 0 saw.
    let mut violations = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    for (i, Timed { rep, .. }) in reps.iter().enumerate() {
        attempted += rep.ops;
        failed += rep.failed;
        if rep.failed > 0 {
            violations.push(format!("rep {i}: {} of {} ops failed", rep.failed, rep.ops));
        }
        if rep.sim != reps[0].rep.sim {
            failed += rep.ops - rep.failed;
            violations.push(format!(
                "rep {i}: simulated outcome differs from rep 0 (digest {:016x} vs {:016x})",
                rep.sim.digest, reps[0].rep.sim.digest
            ));
        }
    }

    let plain: Vec<&Timed> = reps.iter().filter(|t| !t.traced).collect();
    let sim = &reps[0].rep.sim;
    let ops = reps[0].rep.ops as f64;
    let makespan_s = sim.makespan_us as f64 / 1e6;
    let mut have: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut put = |name: &'static str, v: f64| {
        have.insert(name, v);
    };
    put(
        "sim_throughput_kbs",
        sim.user_bytes as f64 / 1024.0 / makespan_s,
    );
    put("io_amp", sim.amp_moved as f64 / sim.amp_per as f64);
    put(
        "host_ops_per_s",
        median_of(&plain, |t| ops / t.scaled_run_s()),
    );
    put("setup_s", median_of(&plain, Timed::scaled_setup_s));
    put("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    eprintln!(
        "{}: {} reps, anchor {:.0} ns, unscaled {:.1} ops/s, set-up {:.4} s",
        w.name(),
        reps.len(),
        median_of(&plain, |t| t.anchor_ns),
        median_of(&plain, |t| ops / t.rep.run.cpu_s),
        median_of(&plain, |t| t.rep.setup.wall_s),
    );

    if opts.trace {
        // A tail needs ten samples beyond it, or it is an outlier and
        // not a percentile.
        if supported_tail(sim.lat_samples as usize).is_none_or(|p| p < 99.0) {
            violations.push(format!("p99 of only {} latency samples", sim.lat_samples));
        }
        put("e2e.sim_op_p50_ms", sim.lat_p50_us as f64 / 1e3);
        put("e2e.sim_op_p99_ms", sim.lat_p99_us as f64 / 1e3);
        put("e2e.sim_op_samples", sim.lat_samples as f64);
        put("e2e.sim_makespan_s", makespan_s);
        for c in &sim.counters {
            put(c.name, c.value());
        }

        let traced: Vec<&Timed> = reps.iter().filter(|t| t.traced).collect();
        let traced_reps: Vec<&Rep> = traced.iter().map(|t| &t.rep).collect();
        let common = layers::common();
        for m in common.iter().chain(&w.layer_metrics(&traced_reps, &common)) {
            put(m.name, m.value);
        }
        violations.extend(w.ledger_violations(&traced_reps));

        let anchor_ns = median_of(&plain, |t| t.anchor_ns);
        let mut rates: Vec<f64> = plain.iter().map(|t| ops / t.scaled_run_s()).collect();
        let span_cost =
            median_of(&traced, Timed::scaled_run_s) / median_of(&plain, Timed::scaled_run_s);
        put("bench.reps", reps.len() as f64);
        put("bench.anchor_ns", anchor_ns);
        put("bench.anchor_scale", anchor::ANCHOR_REF_NS / anchor_ns);
        put("bench.rep_spread_pct", 100.0 * quartile_spread(&mut rates));
        put("bench.span_overhead_pct", 100.0 * (span_cost - 1.0));
        put("bench.spans_per_rep", traced_reps[0].spans.len() as f64);
        put(
            "bench.ledger_host_gap_pct",
            100.0
                * median_of(&traced, |t| {
                    measured_root_s(&t.rep) / t.rep.run.wall_s - 1.0
                }),
        );
        put(
            "bench.host_ops_per_s_raw",
            median_of(&plain, |t| ops / t.rep.run.cpu_s),
        );
        put(
            "bench.run_wall_over_cpu",
            median_of(&plain, |t| t.rep.run.wall_s / t.rep.run.cpu_s),
        );
    }

    let list: Vec<(&'static str, &'static str)> = if opts.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let metrics = list
        .into_iter()
        .map(|(name, unit)| Metric::new(name, have.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    let result = RunResult {
        workload: w.name(),
        correct: failed == 0 && violations.is_empty(),
        attempted,
        failed,
        metrics,
        violations,
    };
    let first_trace = reps.into_iter().find(|t| t.traced);
    (result, first_trace.map_or(Vec::new(), |t| t.rep.spans))
}

/// Wall seconds of a traced rep's measured-phase root span: by
/// construction the sum of the self times of every span under it.
fn measured_root_s(rep: &Rep) -> f64 {
    let root = rep.spans.iter().find(|s| s.name == "phase.measured");
    root.map_or(0.0, |s| s.host_ns() as f64 / 1e9)
}
