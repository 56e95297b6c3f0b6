//! Table 2: large-object performance tests (§7.1).
//!
//! Four configurations over the Stonebraker/Olson benchmark:
//! clustered FFS, base 4.4BSD LFS, HighLight with non-migrated files
//! ("on-disk"), and HighLight with migrated files fully resident in the
//! segment cache ("in-cache").

use hl_bench::fsx::{build_large_object, run_large_object, BenchFs};
use hl_bench::report::Checks;
use hl_bench::rigs;
use hl_bench::table::{print_table, time_and_rate, Row};
use hl_sim::time::SimTime;
use hl_workload::large_object::Phase;

/// The benchmark's fixed seed (the paper used time-of-day + pid; we use
/// a constant for reproducibility).
const SEED: u64 = 0x5e0_0001;

/// The paper's Table 2, `(time s, KB/s)` per phase per configuration.
const PAPER: [(&str, [(f64, u32); 6]); 4] = [
    (
        "FFS",
        [
            (10.46, 1002),
            (10.0, 1024),
            (6.9, 152),
            (3.3, 315),
            (6.9, 152),
            (1.48, 710),
        ],
    ),
    (
        "Base LFS",
        [
            (12.8, 819),
            (16.4, 639),
            (6.8, 154),
            (1.4, 749),
            (6.8, 154),
            (1.2, 873),
        ],
    ),
    (
        "HighLight (on-disk)",
        [
            (12.9, 813),
            (17.0, 617),
            (6.9, 152),
            (1.4, 749),
            (6.9, 152),
            (1.4, 749),
        ],
    ),
    (
        "HighLight (in-cache)",
        [
            (12.9, 813),
            (17.6, 596),
            (7.1, 148),
            (1.3, 807),
            (7.1, 148),
            (1.4, 749),
        ],
    ),
];

fn run_config<F: BenchFs>(mut fs: F, prepare: impl FnOnce(&mut F)) -> Vec<(Phase, SimTime)> {
    let ino = build_large_object(&mut fs, "/large_object").expect("build");
    prepare(&mut fs);
    run_large_object(&mut fs, ino, SEED).expect("phases")
}

fn main() {
    let mut all: Vec<(String, Vec<(Phase, SimTime)>)> = Vec::new();

    // FFS.
    {
        let results = run_config(rigs::ffs(&rigs::paper()), |_| {});
        all.push(("FFS".into(), results));
    }
    // Base LFS.
    {
        let results = run_config(rigs::lfs(&rigs::paper()), |_| {});
        all.push(("Base LFS".into(), results));
    }
    // HighLight, files never migrated.
    {
        let rig = rigs::paper();
        rig.mkfs();
        let results = run_config(rig.mount(), |_| {});
        all.push(("HighLight (on-disk)".into(), results));
    }
    // HighLight, file migrated and fully cached on disk.
    {
        let rig = rigs::paper();
        rig.mkfs();
        let results = run_config(rig.mount(), |hl| {
            hl.migrate_file("/large_object", true, None)
                .expect("migrate");
            let mut tail = Default::default();
            hl.seal_staging(&mut tail).expect("seal");
        });
        all.push(("HighLight (in-cache)".into(), results));
    }

    for (idx, (name, results)) in all.iter().enumerate() {
        let paper = &PAPER[idx].1;
        let rows: Vec<Row> = results
            .iter()
            .enumerate()
            .map(|(i, (phase, t))| Row {
                label: phase.label().to_string(),
                paper: format!("{:.1} s  {}KB/s", paper[i].0, paper[i].1),
                measured: time_and_rate(phase.bytes(), *t),
            })
            .collect();
        print_table(
            &format!("Table 2 — {name}"),
            ("phase", "paper", "measured"),
            &rows,
        );
    }

    // Shape checks: the paper's qualitative conclusions.
    let t = |config: usize, phase: usize| all[config].1[phase].1;
    let mut checks = Checks::new("Shape checks");
    checks.row(
        "LFS-family random writes beat FFS (log batching)",
        t(1, 3) < t(0, 3) && t(2, 3) < t(0, 3),
    );
    checks.row(
        "FFS sequential writes beat LFS (no staging copies)",
        t(0, 1) < t(1, 1),
    );
    checks.row(
        "HighLight on-disk within 15% of base LFS everywhere",
        (0..6).all(|p| t(2, p) as f64 <= t(1, p) as f64 * 1.15 + 100_000.0),
    );
    checks.row(
        "HighLight in-cache ~= on-disk (cache adds little)",
        (0..6).all(|p| t(3, p) as f64 <= t(2, p) as f64 * 1.25 + 200_000.0),
    );
    checks.row(
        "random reads seek-bound and ~equal across all four",
        (0..4).map(|c| t(c, 2)).max().unwrap() as f64
            <= (0..4).map(|c| t(c, 2)).min().unwrap() as f64 * 1.4,
    );
    checks.finish();
}
