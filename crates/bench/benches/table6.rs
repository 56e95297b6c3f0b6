//! Table 6: migrator throughput, with and without disk-arm contention.
//!
//! "The total throughput provided when the magnetic disk is in use
//! simultaneously by the migrator (reading blocks and creating new cached
//! segments) and by the I/O server (copying segments out to tape) is
//! significantly less than the total throughput provided when the only
//! access to the magnetic disk is from the I/O server."
//!
//! Three staging configurations, as in the paper: staging on the same
//! RZ57, on a separate RZ58, and on a slow HPIB-connected HP 7958A.

use hl_bench::pipeline::{run, PipelineConfig};
use hl_bench::report::Checks;
use hl_bench::table::{print_table, Row};
use hl_footprint::{Jukebox, JukeboxConfig};
use hl_vdev::{Disk, DiskProfile, ScsiBus};

struct Config {
    label: &'static str,
    paper: (&'static str, &'static str, &'static str),
    staging: Option<DiskProfile>,
}

fn run_config(staging_profile: Option<DiskProfile>) -> (f64, f64, f64) {
    // The paper's layout: source file on the RZ57; staging either on the
    // same spindle (beyond the file) or on the second disk. The MO
    // changer shares the SCSI bus.
    let bus = ScsiBus::new("scsi0");
    let src = Disk::new(DiskProfile::RZ57, 300_000, Some(bus.clone()));
    let staging_disk = staging_profile.map(|p| {
        // The HP 7958A was HPIB-connected: its transfers bypass the SCSI
        // bus. The RZ58 shared SCSI.
        let own_bus = if matches!(p.name, "HP 7958A (HPIB)") {
            None
        } else {
            Some(bus.clone())
        };
        Disk::new(p, 300_000, own_bus)
    });
    let jukebox = Jukebox::new(JukeboxConfig::hp6300_paper(), Some(bus));
    let result = run(PipelineConfig {
        segments: 52, // the 51.2 MB large object
        src_disk: src,
        staging_disk,
        jukebox,
        demand: None,
    });
    result.throughputs()
}

fn main() {
    let configs = [
        Config {
            label: "RZ57 (shared spindle)",
            paper: ("111KB/s", "192KB/s", "135KB/s"),
            staging: None,
        },
        Config {
            label: "RZ57+RZ58",
            paper: ("127KB/s", "202KB/s", "149KB/s"),
            staging: Some(DiskProfile::RZ58),
        },
        Config {
            label: "RZ57+HP7958A",
            paper: ("46.8KB/s", "145KB/s", "99KB/s"),
            staging: Some(DiskProfile::HP7958A),
        },
    ];
    let mut rows = Vec::new();
    let mut measured = Vec::new();
    for cfg in &configs {
        let (c, n, o) = run_config(cfg.staging);
        measured.push((c, n, o));
        rows.push(Row {
            label: format!("{} / arm contention", cfg.label),
            paper: cfg.paper.0.into(),
            measured: format!("{c:.0}KB/s"),
        });
        rows.push(Row {
            label: format!("{} / no contention", cfg.label),
            paper: cfg.paper.1.into(),
            measured: format!("{n:.0}KB/s"),
        });
        rows.push(Row {
            label: format!("{} / overall", cfg.label),
            paper: cfg.paper.2.into(),
            measured: format!("{o:.0}KB/s"),
        });
    }
    print_table(
        "Table 6: migrator throughput",
        ("phase", "paper", "measured"),
        &rows,
    );

    // Shape checks the paper's conclusions rest on.
    let (c57, n57, _) = measured[0];
    let (c58, n58, _) = measured[1];
    let (chp, nhp, _) = measured[2];
    println!(
        "\nno-contention approaches the 204 KB/s MO write speed: {:.0}/{:.0}",
        n57, 204.0
    );
    let mut checks = Checks::new("Shape checks");
    checks.row(
        "contention < no-contention everywhere",
        c57 < n57 && c58 < n58 && chp < nhp,
    );
    checks.row("RZ58 staging beats shared RZ57 under contention", c58 > c57);
    checks.row("HP7958A staging is the worst", chp < c57 && nhp < n57);
    checks.finish();
}
