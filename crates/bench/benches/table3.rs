//! Table 3: access delays for files (§7.2).
//!
//! "This test migrated some files, ejected them from the cache, and then
//! read them (so that they were fetched into the cache again). Both the
//! access time for the first byte to arrive in user space and the elapsed
//! time to read the whole files were recorded. The files were read from a
//! newly-mounted filesystem (so that no blocks were cached), using the
//! standard I/O library with an 8KB-buffer. The tertiary volume was in
//! the drive when the tests began, so time-to-first-byte does not include
//! the media swap time."

use hl_bench::fsx::BenchFs;
use hl_bench::report::Checks;
use hl_bench::rigs;
use hl_bench::table::{print_table, secs2, Row};
use hl_sim::time::SimTime;

const SIZES: [(u64, &str); 4] = [
    (10 * 1024, "10KB"),
    (100 * 1024, "100KB"),
    (1024 * 1024, "1MB"),
    (10 * 1024 * 1024, "10MB"),
];

/// Paper values: (FFS first, FFS total, HL cached first, total,
/// uncached first, total) per size.
const PAPER: [(f64, f64, f64, f64, f64, f64); 4] = [
    (0.06, 0.09, 0.11, 0.12, 3.57, 3.59),
    (0.06, 0.27, 0.11, 0.27, 3.59, 3.73),
    (0.06, 1.29, 0.10, 1.55, 3.51, 8.22),
    (0.07, 11.89, 0.09, 13.68, 3.57, 44.23),
];

fn fill(len: u64, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(29).wrapping_add(seed))
        .collect()
}

/// stdio-style read: 8 KB buffer; returns (first byte delay, total).
fn timed_read<F: BenchFs>(fs: &mut F, path: &str, size: u64) -> (SimTime, SimTime) {
    let clock = fs.clock();
    let t0 = clock.now();
    let ino = fs.lookup(path).expect("lookup");
    let mut buf = vec![0u8; 8192];
    let n = fs.read(ino, 0, &mut buf).expect("first read");
    assert!(n > 0);
    let first = clock.now() - t0;
    let mut off = n as u64;
    while off < size {
        let n = fs.read(ino, off, &mut buf).expect("read");
        if n == 0 {
            break;
        }
        off += n as u64;
    }
    (first, clock.now() - t0)
}

fn main() {
    // FFS baseline.
    let mut ffs_times = Vec::new();
    {
        let mut fs = rigs::ffs(&rigs::paper());
        for (i, &(size, name)) in SIZES.iter().enumerate() {
            let path = format!("/f_{name}");
            let ino = fs.create(&path).expect("create");
            fs.write(ino, 0, &fill(size, i as u8)).expect("write");
            fs.sync().expect("sync");
        }
        for &(size, name) in &SIZES {
            fs.drop_caches();
            ffs_times.push(timed_read(&mut fs, &format!("/f_{name}"), size));
        }
    }

    // HighLight: migrate everything, then measure in-cache and uncached.
    let mut cached_times = Vec::new();
    let mut uncached_times = Vec::new();
    {
        let rig = rigs::paper();
        rig.mkfs();
        let mut hl = rig.mount();
        for (i, &(size, name)) in SIZES.iter().enumerate() {
            let path = format!("/f_{name}");
            let ino = hl.create(&path).expect("create");
            hl.write(ino, 0, &fill(size, i as u8)).expect("write");
            hl.sync().expect("sync");
            // Data-only migration: §7.2's flat time-to-first-byte shows
            // the paper kept metadata on disk for this test (§8.2 also
            // recommends it).
            hl.migrate_file(&path, false, None).expect("migrate");
            let mut tail = Default::default();
            hl.seal_staging(&mut tail).expect("seal");
        }
        // In-cache: copy-out left every line resident and clean.
        for &(size, name) in &SIZES {
            hl.drop_caches();
            cached_times.push(timed_read(&mut hl, &format!("/f_{name}"), size));
        }
        // Uncached: eject all lines; "newly-mounted" ≈ buffer cache
        // dropped too. The volume stays in the drive (paper setup).
        for &(size, name) in &SIZES {
            hl.eject_all();
            hl.drop_caches();
            uncached_times.push(timed_read(&mut hl, &format!("/f_{name}"), size));
        }
    }

    for (which, times, pf, pt) in [
        ("FFS", &ffs_times, 0usize, 1usize),
        ("HighLight in-cache", &cached_times, 2, 3),
        ("HighLight uncached", &uncached_times, 4, 5),
    ] {
        let rows: Vec<Row> = SIZES
            .iter()
            .enumerate()
            .flat_map(|(i, &(_, name))| {
                let paper = PAPER[i];
                let pvals = [paper.0, paper.1, paper.2, paper.3, paper.4, paper.5];
                vec![
                    Row {
                        label: format!("{name} first byte"),
                        paper: format!("{:.2} s", pvals[pf]),
                        measured: secs2(times[i].0),
                    },
                    Row {
                        label: format!("{name} total"),
                        paper: format!("{:.2} s", pvals[pt]),
                        measured: secs2(times[i].1),
                    },
                ]
            })
            .collect();
        print_table(
            &format!("Table 3 — {which}"),
            ("access", "paper", "measured"),
            &rows,
        );
    }

    let mut checks = Checks::new("Shape checks");
    let fb_flat = uncached_times
        .iter()
        .map(|t| t.0 as f64)
        .fold((f64::MAX, 0f64), |(lo, hi), x| (lo.min(x), hi.max(x)));
    checks.row(
        format!(
            "uncached first byte roughly flat across sizes ({:.2}..{:.2} s)",
            fb_flat.0 / 1e6,
            fb_flat.1 / 1e6
        ),
        fb_flat.1 < fb_flat.0 * 2.0,
    );
    checks.row(
        "uncached total >> cached total for 10MB",
        uncached_times[3].1 > cached_times[3].1 * 2,
    );
    checks.row(
        "cached ~ FFS for whole-file reads (within 2x)",
        (0..4).all(|i| cached_times[i].1 < ffs_times[i].1 * 2 + 500_000),
    );
    checks.row(
        "first byte cached << uncached",
        (0..4).all(|i| cached_times[i].0 * 5 < uncached_times[i].0),
    );
    checks.finish();
}
