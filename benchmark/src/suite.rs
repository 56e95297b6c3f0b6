//! Every workload, each in a single-threaded process of its own, one
//! after another; and the repeatability check over two such suites.

use std::process::{Command, Stdio};

use crate::metrics::{Better, END_TO_END};
use crate::report::write_file;
use crate::{Args, WORKLOADS};

/// What the parent keeps of one child run.
pub struct ChildResult {
    pub workload: &'static str,
    pub correct: bool,
    /// `(metric, value)` parsed from the child's text lines.
    pub values: Vec<(String, f64)>,
    /// The child's result object, verbatim.
    pub json: String,
}

/// Runs `workload` in a child process with this process's settings.
fn run_child(workload: &'static str, args: &Args, seed: u64) -> Option<ChildResult> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json = stdout.lines().last()?.to_string();
    if !json.starts_with('{') {
        eprintln!("hl-benchmark: {workload} printed no result");
        return None;
    }
    let values = stdout
        .lines()
        .filter_map(|l| {
            let mut f = l.split(' ');
            match (f.next(), f.next(), f.next()) {
                (Some(w), Some(metric), Some(v)) if w == workload => {
                    Some((metric.to_string(), v.parse().ok()?))
                }
                _ => None,
            }
        })
        .collect();
    // Pass the child's metric lines (and violations) through.
    for l in stdout.lines().filter(|l| !l.starts_with('{')) {
        println!("{l}");
    }
    Some(ChildResult {
        workload,
        correct: out.status.success(),
        values,
        json,
    })
}

fn run_suite(args: &Args, seed: u64) -> Option<Vec<ChildResult>> {
    WORKLOADS.iter().map(|w| run_child(w, args, seed)).collect()
}

/// The whole suite once; writes `results.json` under the out directory.
pub fn run_all(args: &Args) -> Option<Vec<ChildResult>> {
    let results = run_suite(args, args.seed)?;
    let body: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"workload\": \"{}\", \"result\": {}}}",
                r.workload, r.json
            )
        })
        .collect();
    let text = format!(
        "{{\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        args.seed,
        args.seconds,
        args.trace,
        body.join(",\n")
    );
    let path = args.out.join("results.json");
    if let Err(e) = write_file(&path, &text) {
        eprintln!("hl-benchmark: {}: {e}", path.display());
        return None;
    }
    Some(results)
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative: better).
pub fn worsening(better: Better, first: f64, second: f64) -> f64 {
    match better {
        Better::Higher => (first - second) / first,
        Better::Lower => (second - first) / first,
    }
}

/// Two suites on the same code must agree within each metric's bound;
/// a third, on another seed, must fail no op.
pub fn check_repeat(args: &Args) -> bool {
    let (Some(a), Some(b)) = (run_all(args), run_all(args)) else {
        return false;
    };
    let mut ok = a.iter().chain(&b).all(|r| r.correct);
    println!("check-repeat: workload metric first second worse-by bound");
    for (ra, rb) in a.iter().zip(&b) {
        for m in &END_TO_END {
            let get = |r: &ChildResult| r.values.iter().find(|v| v.0 == m.name).map(|v| v.1);
            let (Some(x), Some(y)) = (get(ra), get(rb)) else {
                println!("check-repeat: {} {} missing", ra.workload, m.name);
                ok = false;
                continue;
            };
            let worse = worsening(m.better, x, y);
            let verdict = if worse > m.bound { "EXCEEDED" } else { "ok" };
            ok &= worse <= m.bound;
            println!(
                "check-repeat: {} {} {x} {y} {:+.2}% {:.0}% {verdict}",
                ra.workload,
                m.name,
                worse * 100.0,
                m.bound * 100.0
            );
        }
    }
    let other_seed = if args.seed == 7 { 1993 } else { 7 };
    match run_suite(args, other_seed) {
        Some(c) => {
            let clean = c.iter().all(|r| r.correct);
            println!("check-repeat: seed {other_seed} all ops passed: {clean}");
            ok &= clean;
        }
        None => ok = false,
    }
    println!("check-repeat: {}", if ok { "PASS" } else { "FAIL" });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metrics_direction() {
        assert_eq!(worsening(Better::Higher, 100.0, 90.0), 0.1);
        assert_eq!(worsening(Better::Higher, 100.0, 110.0), -0.1);
        assert_eq!(worsening(Better::Lower, 2.0, 2.5), 0.25);
        assert_eq!(worsening(Better::Lower, 2.0, 1.5), -0.25);
    }
}
