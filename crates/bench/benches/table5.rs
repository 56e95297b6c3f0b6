//! Table 5: raw device measurements.
//!
//! "Raw throughput was measured with a set of sequential 1-MB transfers.
//! Media change measures time from an eject command to a completed read
//! of one sector on the MO platter."

use hl_bench::report::Checks;
use hl_bench::table::{print_table, Row};
use hl_footprint::{Footprint, Jukebox, JukeboxConfig};
use hl_sim::time::{as_secs, throughput_kbs};
use hl_vdev::{BlockDev, Disk, DiskProfile};

/// Sequential 1 MB transfers over 32 MB, as `dd` would issue them.
fn raw_rate(profile: DiskProfile, write: bool) -> f64 {
    let disk = Disk::new(profile, 64 * 256, None);
    let mb = vec![0u8; 1 << 20];
    let mut buf = vec![0u8; 1 << 20];
    let mut t = 0;
    let total = 32u64;
    for i in 0..total {
        let slot = if write {
            disk.write(t, i * 256, &mb).expect("raw write")
        } else {
            // Reads need resident data; stage it untimed first.
            disk.poke(i * 256, &mb).expect("poke");
            disk.read(t, i * 256, &mut buf).expect("raw read")
        };
        t = slot.end;
    }
    throughput_kbs(total << 20, t)
}

/// Eject-to-ready volume change: swap to another platter and read one
/// sector.
fn volume_change_secs() -> f64 {
    let jb = Jukebox::new(JukeboxConfig::hp6300_paper(), None);
    let seg = vec![0u8; jb.segment_bytes()];
    jb.poke_segment(0, 0, &seg).expect("stage");
    jb.poke_segment(1, 0, &seg).expect("stage");
    // Load volume 0 into reader drive 1 first, then swap volume 1 into
    // the same drive: the second read is eject-to-ready + first access.
    let (s0, _, _) = jb.read_segment_on(0, 1, 0, 0).expect("warm");
    let t0 = s0.end;
    let (s1, _, _) = jb.read_segment_on(t0, 1, 1, 0).expect("swap read");
    // Subtract the 1 MB read to leave eject-to-ready + first access.
    let read_time = DiskProfile::HP6300_MO.transfer(1 << 20, false);
    as_secs(s1.end - t0 - read_time)
}

fn main() {
    let rates = [
        (
            "Raw MO read",
            451.0,
            raw_rate(DiskProfile::HP6300_MO, false),
        ),
        (
            "Raw MO write",
            204.0,
            raw_rate(DiskProfile::HP6300_MO, true),
        ),
        ("Raw RZ57 read", 1417.0, raw_rate(DiskProfile::RZ57, false)),
        ("Raw RZ57 write", 993.0, raw_rate(DiskProfile::RZ57, true)),
        ("Raw RZ58 read", 1491.0, raw_rate(DiskProfile::RZ58, false)),
        ("Raw RZ58 write", 1261.0, raw_rate(DiskProfile::RZ58, true)),
    ];
    let change = volume_change_secs();
    let mut rows: Vec<Row> = rates
        .iter()
        .map(|&(label, paper, measured)| Row {
            label: label.into(),
            paper: format!("{paper:.0}KB/s"),
            measured: format!("{measured:.0}KB/s"),
        })
        .collect();
    rows.push(Row {
        label: "Volume change".into(),
        paper: "13.5s".into(),
        measured: format!("{change:.1}s"),
    });
    print_table(
        "Table 5: raw device measurements",
        ("I/O type", "paper", "measured"),
        &rows,
    );
    println!(
        "\nNote: sequential rates are calibration inputs (profiles take them\n\
         from this table); the volume change emerges from the robot model."
    );
    let mut checks = Checks::new("Calibration checks");
    checks.row(
        "every raw rate within 3% of the paper's",
        rates
            .iter()
            .all(|&(_, paper, measured)| (measured / paper - 1.0).abs() < 0.03),
    );
    checks.row(
        "volume change within 0.5 s of the paper's 13.5 s",
        (change - 13.5).abs() < 0.5,
    );
    checks.finish();
}
