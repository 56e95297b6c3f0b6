//! Paper-vs-measured table formatting.

use hl_sim::time::{as_secs, throughput_kbs, SimTime};

/// One row comparing a paper figure to our measurement.
#[derive(Clone, Debug)]
pub struct Row {
    /// Row label (the paper's phrasing).
    pub label: String,
    /// The paper's reported value, formatted.
    pub paper: String,
    /// Our measured value, formatted.
    pub measured: String,
}

/// Prints a header + rows as an aligned table.
pub fn print_table(title: &str, columns: (&str, &str, &str), rows: &[Row]) {
    println!("\n=== {title} ===");
    let w0 = rows
        .iter()
        .map(|r| r.label.len())
        .chain([columns.0.len()])
        .max()
        .unwrap_or(8);
    let w1 = rows
        .iter()
        .map(|r| r.paper.len())
        .chain([columns.1.len()])
        .max()
        .unwrap_or(8);
    let w2 = rows
        .iter()
        .map(|r| r.measured.len())
        .chain([columns.2.len()])
        .max()
        .unwrap_or(8);
    println!("{:<w0$}  {:>w1$}  {:>w2$}", columns.0, columns.1, columns.2);
    println!("{}", "-".repeat(w0 + w1 + w2 + 4));
    for r in rows {
        println!("{:<w0$}  {:>w1$}  {:>w2$}", r.label, r.paper, r.measured);
    }
}

/// Formats an elapsed time + throughput pair the way Table 2 does:
/// `"12.8 s  819KB/s"`.
pub fn time_and_rate(bytes: u64, t: SimTime) -> String {
    format!("{:.1} s  {:.0}KB/s", as_secs(t), throughput_kbs(bytes, t))
}

/// Formats seconds with two decimals (Table 3 style).
pub fn secs2(t: SimTime) -> String {
    format!("{:.2} s", as_secs(t))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_matches_paper_style() {
        assert_eq!(time_and_rate(10_240_000, 12_800_000), "12.8 s  781KB/s");
        assert_eq!(secs2(3_570_000), "3.57 s");
    }
}
