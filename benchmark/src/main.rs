//! The HighLight benchmark: four workloads, two clocks. See README.md
//! and ../BENCHMARK.json; `run.sh` builds and runs this binary.
//!
//! ```text
//! hl-benchmark [--workload W] [--seed S] [--seconds N] [--trace [0|1]]
//!              [--out DIR] [--check-repeat]
//! ```
//!
//! With `--workload` the workload runs in this process and the last line
//! of stdout is its result object. Without it every workload runs, each
//! in a process of its own, one after another. `--check-repeat` runs the
//! suite twice and compares.

mod anchor;
mod clock;
mod fleet;
mod fs;
mod layers;
mod metrics;
mod report;
mod run;
mod span;
mod stats;
mod suite;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::Workload;

pub const WORKLOADS: [&str; 4] = [
    "fs_lifecycle",
    "resident_read",
    "fleet_cold",
    "fleet_resident",
];
/// `run_seconds` of BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 24.0;
const DEFAULT_SEED: u64 = 1993;

/// The workload's inputs are generated here, from the seed; the system
/// under test only ever sees the inputs.
fn workload(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "fs_lifecycle" => Box::new(fs::FsLifecycle::new(seed)),
        "resident_read" => Box::new(fs::ResidentRead::new(seed)),
        "fleet_cold" => Box::new(fleet::Fleet::cold(seed)),
        "fleet_resident" => Box::new(fleet::Fleet::resident(seed)),
        _ => return None,
    })
}

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
    pub check_repeat: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        check_repeat: false,
    };
    let mut pending: Option<String> = None;
    while let Some(flag) = pending.take().or_else(|| argv.next()) {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}; one of {WORKLOADS:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 170.0) {
                    return Err("--seconds must be in (0, 170]".into());
                }
            }
            "--trace" => match argv.next() {
                // `--trace 0|1` as the driver writes it, or bare.
                Some(v) if v == "0" || v == "1" => args.trace = v == "1",
                other => {
                    args.trace = true;
                    pending = other;
                }
            },
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hl-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.check_repeat {
        suite::check_repeat(&args)
    } else if let Some(name) = &args.workload {
        run_one(name, &args)
    } else {
        suite::run_all(&args).is_some_and(|results| results.iter().all(|r| r.correct))
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in this process; the result object is the last
/// line on stdout.
fn run_one(name: &str, args: &Args) -> bool {
    let w = workload(name, args.seed).expect("workload names are checked while parsing");
    let opts = run::Options {
        seconds: args.seconds,
        trace: args.trace,
    };
    let (result, spans) = run::run(&*w, &opts);
    if args.trace {
        let path = args.out.join(format!("trace-{name}.json"));
        if let Err(e) = report::write_file(&path, &report::trace_json(name, args.seed, &spans)) {
            eprintln!("hl-benchmark: {}: {e}", path.display());
            return false;
        }
    }
    print!("{}", result.text());
    println!("{}", result.json());
    result.correct
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse("--workload fleet_cold --seed 7 --seconds 24 --trace 0").unwrap();
        assert_eq!(a.workload.as_deref(), Some("fleet_cold"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 24.0, false));
        assert!(parse("--workload fleet_cold --trace 1").unwrap().trace);
    }

    #[test]
    fn bare_trace_flag_and_defaults() {
        let a = parse("--trace --seed 3").unwrap();
        assert!(a.trace && a.seed == 3 && a.workload.is_none());
        let a = parse("").unwrap();
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        assert!(parse("--trace").unwrap().trace);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed x").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--frobnicate").is_err());
        assert!(parse("--seed").is_err());
    }

    #[test]
    fn every_listed_workload_exists() {
        // Construction generates the inputs; none may panic on a seed.
        for name in WORKLOADS {
            assert_eq!(workload(name, 7).expect("listed workload").name(), name);
        }
        assert!(workload("nope", 7).is_none());
    }
}
