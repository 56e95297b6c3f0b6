//! Drive-pool ablation: the §7.3 migration pipeline with a foreground
//! demand-read stream, run at 1, 2, and 4 jukebox drives.
//!
//! With a solo drive every foreground fetch queues behind the copy-out
//! stream on the same lane; with two drives the demand reads ride the
//! reader lane while the writer lane drains copy-outs, so demand queue
//! residency collapses and the migration's wall-clock stops paying for
//! the interleaved swaps.
//!
//! The original workload keeps all foreground reads on **one** hot
//! volume, so a single reader lane absorbs them and the ablation
//! saturates at two drives. The second suite spreads the reads across
//! **three** hot volumes — four hot volumes total with the copy-out
//! stream's write volume — so no single lane can hold every hot platter
//! and the 2→4-drive step keeps paying off. The run emits
//! `BENCH_pipeline.json` at the repository root — one machine-readable
//! entry per drive count per suite — and exits non-zero if any
//! ablation check is false.

use hl_bench::pipeline::{run, DemandLoad, PipelineConfig, PipelineResult};
use hl_bench::report::{write_bench_json, Checks, Json};
use hl_bench::table::{print_table, Row};
use hl_footprint::{Jukebox, JukeboxConfig};
use hl_vdev::{Disk, DiskProfile, ScsiBus};

const DRIVE_COUNTS: [usize; 3] = [1, 2, 4];

fn run_with_drives(drives: usize, hot_volumes: u32, reads: u32) -> PipelineResult {
    let bus = ScsiBus::new("scsi0");
    let src = Disk::new(DiskProfile::RZ57, 300_000, Some(bus.clone()));
    let staging = Disk::new(DiskProfile::RZ58, 300_000, Some(bus.clone()));
    let jukebox = Jukebox::new(
        JukeboxConfig {
            drives,
            ..JukeboxConfig::hp6300_paper()
        },
        Some(bus),
    );
    run(PipelineConfig {
        segments: 24,
        src_disk: src,
        staging_disk: Some(staging),
        jukebox,
        demand: Some(DemandLoad { reads, hot_volumes }),
    })
}

fn suite(
    checks: &mut Checks,
    name: &str,
    hot_volumes: u32,
    reads: u32,
) -> Vec<(usize, PipelineResult)> {
    DRIVE_COUNTS
        .iter()
        .map(|&d| {
            let r = run_with_drives(d, hot_volumes, reads);
            checks.tracecheck_list(&format!("{name} {d}-drive"), &r.trace_findings);
            (d, r)
        })
        .collect()
}

fn rows_for(name: &str, results: &[(usize, PipelineResult)], rows: &mut Vec<Row>) {
    for (d, r) in results {
        let (contention, _, overall) = r.throughputs();
        rows.push(Row {
            label: format!("{name} {d}-drive / contention throughput"),
            paper: "-".into(),
            measured: format!("{contention:.0}KB/s"),
        });
        rows.push(Row {
            label: format!("{name} {d}-drive / overall throughput"),
            paper: "-".into(),
            measured: format!("{overall:.0}KB/s"),
        });
        rows.push(Row {
            label: format!("{name} {d}-drive / demand residency p50/p95"),
            paper: "-".into(),
            measured: format!(
                "{:.1}s/{:.1}s",
                hl_sim::time::as_secs(r.demand_residency_pct(50)),
                hl_sim::time::as_secs(r.demand_residency_pct(95))
            ),
        });
        rows.push(Row {
            label: format!("{name} {d}-drive / wall clock, swaps"),
            paper: "-".into(),
            measured: format!(
                "{:.0}s, {} swaps",
                hl_sim::time::as_secs(r.total_end),
                r.media_swaps
            ),
        });
    }
}

fn main() {
    let mut checks = Checks::new("Ablation checks");
    // Suite 1: the original 1-hot-volume foreground stream (2 hot
    // volumes total with the write volume) — saturates at 2 drives.
    let narrow = suite(&mut checks, "narrow", 1, 8);
    // Suite 2: reads round-robin across 3 hot volumes (4 hot volumes
    // total) — enough distinct platters to keep a 4-drive pool busy.
    let wide = suite(&mut checks, "wide", 3, 12);

    let mut rows = Vec::new();
    rows_for("narrow", &narrow, &mut rows);
    rows_for("wide", &wide, &mut rows);
    print_table(
        "Drive-pool ablation: migration + foreground demand reads",
        ("configuration", "paper", "measured"),
        &rows,
    );

    // Machine-readable payload at the repository root, one entry per
    // drive count per suite (each entry is PipelineResult::to_json()).
    let entry = |results: &[(usize, PipelineResult)]| {
        Json::obj(results.iter().map(|(d, r)| (d.to_string(), r.to_json())))
    };
    write_bench_json(
        "pipeline",
        &Json::obj([
            ("drive_ablation", entry(&narrow)),
            ("drive_ablation_4hot", entry(&wide)),
        ]),
    );

    let r1 = &narrow[0].1;
    let r2 = &narrow[1].1;
    let w2 = &wide[1].1;
    let w4 = &wide[2].1;
    checks.expect_clean_traces(6);
    checks.row(
        "2-drive wall-clock <= 1-drive wall-clock",
        r2.total_end <= r1.total_end,
    );
    checks.row(
        "2-drive demand p95 residency <= 1-drive",
        r2.demand_residency_pct(95) <= r1.demand_residency_pct(95),
    );
    checks.row(
        "every run served all demand fetches",
        narrow.iter().all(|(_, r)| r.demand_residency.len() == 8)
            && wide.iter().all(|(_, r)| r.demand_residency.len() == 12),
    );
    checks.row(
        "writer lane busiest under the copy-out stream",
        r2.drive_busy[0] >= r2.drive_busy[1],
    );
    checks.row(
        format!(
            "4hot: 4-drive wall-clock <= 2-drive wall-clock ({:.0}s vs {:.0}s)",
            hl_sim::time::as_secs(w4.total_end),
            hl_sim::time::as_secs(w2.total_end)
        ),
        w4.total_end <= w2.total_end,
    );
    checks.row(
        format!(
            "4hot: 4-drive demand p95 residency < 2-drive ({:.1}s vs {:.1}s)",
            hl_sim::time::as_secs(w4.demand_residency_pct(95)),
            hl_sim::time::as_secs(w2.demand_residency_pct(95))
        ),
        w4.demand_residency_pct(95) < w2.demand_residency_pct(95),
    );
    checks.finish();
}
