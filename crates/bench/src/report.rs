//! The one report writer: named boolean [`Checks`] that gate a bench's
//! exit code, the tracecheck gate, and a deterministic [`Json`] value
//! writer for the `BENCH_*.json` files at the repository root.
//!
//! A bench's exit code is its gate — `ci.sh` runs a bare `cargo bench`
//! and never reads stdout. The simulated-time JSON files regenerate
//! byte-identically, so CI diffs them against the committed copies.

use std::fmt::{self, Display, Write as _};
use std::path::Path;

/// A titled block of named boolean checks.
pub struct Checks {
    title: &'static str,
    rows: Vec<(String, bool)>,
    clean_traces: usize,
}

impl Checks {
    /// An empty block printed under `title`.
    pub fn new(title: &'static str) -> Checks {
        Checks {
            title,
            rows: Vec::new(),
            clean_traces: 0,
        }
    }

    /// Records one named check.
    pub fn row(&mut self, label: impl Into<String>, ok: bool) {
        self.rows.push((label.into(), ok));
    }

    /// The tracecheck gate for one run: prints its `Tracecheck:` line
    /// and counts the run as clean, or records a failing row.
    pub fn tracecheck(&mut self, name: &str, findings: usize) {
        println!("{name}: Tracecheck: {findings} findings");
        if findings == 0 {
            self.clean_traces += 1;
        } else {
            self.row(
                format!("{name} replays with zero tracecheck findings"),
                false,
            );
        }
    }

    /// [`Checks::tracecheck`] for a run that kept its findings: also
    /// prints each one.
    pub fn tracecheck_list<F: Display>(&mut self, name: &str, findings: &[F]) {
        self.tracecheck(name, findings.len());
        for f in findings {
            println!("  {f}");
        }
    }

    /// Records that exactly `runs` runs passed the tracecheck gate, so a
    /// run cannot drop out of a suite silently.
    pub fn expect_clean_traces(&mut self, runs: usize) {
        self.row(
            format!("all {runs} runs replayed with zero tracecheck findings"),
            self.clean_traces == runs,
        );
    }

    /// `true` while no recorded check is false.
    pub fn passed(&self) -> bool {
        self.rows.iter().all(|(_, ok)| *ok)
    }

    /// Prints the block and, if any check is false, exits non-zero.
    pub fn finish(self) {
        println!("\n{}:", self.title);
        for (label, ok) in &self.rows {
            println!("  {label}: {ok}");
        }
        if !self.passed() {
            eprintln!("FAIL: a check under \"{}\" is false", self.title);
            std::process::exit(1);
        }
    }
}

/// A JSON value with a deterministic rendering: object keys keep
/// insertion order and floats carry their decimal count.
#[derive(Debug)]
pub enum Json {
    /// An unsigned integer.
    Int(u64),
    /// A float printed with a fixed number of decimals.
    Fixed(f64, usize),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(entries: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// A trace digest as a 16-digit hex string.
    pub fn hex(digest: u64) -> Json {
        Json::Str(format!("{digest:016x}"))
    }
}

macro_rules! json_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Int(v as u64)
            }
        }
    )*};
}
json_int!(u32, u64, usize);

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' | '\\' => write!(f, "\\{c}")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Int(v) => write!(f, "{v}"),
            Json::Fixed(v, decimals) => write!(f, "{v:.decimals$}"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_char(']')
            }
            Json::Obj(entries) => {
                f.write_char('{')?;
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Writes `json` to `BENCH_<name>.json` at the repository root.
pub fn write_bench_json(name: &str, json: &Json) {
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{name}.json"));
    std::fs::write(&out, json.to_string())
        .unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
    println!("\nwrote {}", out.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_false_row_turns_the_gate_red() {
        let mut c = Checks::new("Unit checks");
        c.row("holds", true);
        assert!(c.passed());
        c.row("broken", false);
        assert!(!c.passed(), "a false row must fail the block");
    }

    #[test]
    fn a_dirty_trace_turns_the_gate_red() {
        let mut c = Checks::new("Unit checks");
        c.tracecheck("clean-run", 0);
        c.expect_clean_traces(1);
        assert!(c.passed());
        c.tracecheck_list("dirty-run", &["span 3 never closed"]);
        assert!(!c.passed());
    }

    #[test]
    fn json_renders_in_insertion_order_with_fixed_decimals() {
        let v = Json::obj([
            ("n", Json::from(3u32)),
            ("kbs", Json::Fixed(84.66, 1)),
            ("ratio", Json::Fixed(1.0, 4)),
            ("digest", Json::hex(0xab)),
            ("down", Json::arr([Json::arr([1u64.into(), 2u64.into()])])),
            ("q\"k", "a\\b".into()),
        ]);
        assert_eq!(
            v.to_string(),
            "{\"n\":3,\"kbs\":84.7,\"ratio\":1.0000,\"digest\":\"00000000000000ab\",\
             \"down\":[[1,2]],\"q\\\"k\":\"a\\\\b\"}"
        );
    }
}
