//! Metrics and how they leave the process: one `workload metric value
//! unit` line each, and a JSON object as the last line of stdout.

use std::fmt::Write;
use std::path::Path;

use crate::span::{aggregate, Span};

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What one run of one workload produced.
pub struct RunResult {
    pub workload: &'static str,
    /// `false` if any op failed, any rep's simulated outcome differed
    /// from rep 0's, or a traced-run check was violated.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable reasons `correct` is false.
    pub violations: Vec<String>,
}

/// A JSON number with all the digits measured; JSON has no NaN or
/// infinity, and no metric should ever be one.
fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

impl RunResult {
    /// `workload metric value unit`, one line per metric.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            writeln!(out, "{} {} {} {}", self.workload, m.name, m.value, m.unit).unwrap();
        }
        for v in &self.violations {
            writeln!(out, "{} VIOLATION {v}", self.workload).unwrap();
        }
        out
    }

    /// The result object: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Writes `text` to `path`, creating the directory first.
pub fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// Raw spans a trace file holds at most; the per-name totals always
/// cover all of them.
const TRACE_SPAN_CAP: usize = 20_000;

/// The trace file of one traced rep: totals per span name, then the
/// spans themselves (name, parent index, op id, both clocks).
pub fn trace_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let totals: Vec<String> = aggregate(spans)
        .iter()
        .map(|(name, a)| {
            format!(
                "    \"{name}\": {{\"calls\": {}, \"host_ns\": {}, \"host_self_ns\": {}, \
                 \"sim_us\": {}, \"sim_self_us\": {}}}",
                a.calls, a.host_ns, a.host_self_ns, a.sim_us, a.sim_self_us
            )
        })
        .collect();
    let raw: Vec<String> = spans
        .iter()
        .take(TRACE_SPAN_CAP)
        .map(|s| {
            format!(
                "    [\"{}\", {}, {}, {}, {}, {}, {}]",
                s.name,
                s.parent.map_or(-1, |p| p as i64),
                s.op,
                s.host_start_ns,
                s.host_end_ns,
                s.sim_start,
                s.sim_end
            )
        })
        .collect();
    format!(
        "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \"spans_recorded\": {},\n  \
         \"totals\": {{\n{}\n  }},\n  \
         \"span_columns\": [\"name\", \"parent\", \"op\", \"host_start_ns\", \"host_end_ns\", \
         \"sim_start_us\", \"sim_end_us\"],\n  \"spans\": [\n{}\n  ]\n}}\n",
        spans.len(),
        totals.join(",\n"),
        raw.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_object_has_exactly_the_four_keys() {
        let r = RunResult {
            workload: "w",
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![
                Metric::new("setup_s", 0.8127, "s"),
                Metric::new("io_amp", 2.0, "x"),
            ],
            violations: Vec::new(),
        };
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"io_amp\": {\"value\": 2, \"unit\": \"x\"}}}"
        );
        assert_eq!(r.text(), "w setup_s 0.8127 s\nw io_amp 2 x\n");
    }
}
