//! §10-style reliability sweep: fault rate × replica count →
//! availability and mean demand-fetch latency under faults.
//!
//! The paper discusses reliability qualitatively ("initially data will
//! be replicated on tertiary storage, with one replica being a master
//! copy") but reports no numbers; this harness produces the table its
//! discussion implies. Each cell stages a population of tertiary
//! segments with `r` replicas apiece, turns on a seeded [`FaultPlan`]
//! (per-read permanent media-failure probability plus a fixed 5%
//! transient read-error rate), fetches every segment, runs one scrub
//! pass, and fetches everything again. Availability is the fraction of
//! all demand fetches that succeeded; latency is the simulated mean over
//! the successes (including backoff and media swaps).
//!
//! Checked (the bench exits non-zero when one fails): at every `p`,
//! availability does not fall as replicas are added, and at `p = 0` it
//! is 100 % for every replica count. Seen red with the replica counts
//! swept in reverse order, 2, 1, 0 (the ordering at p = 0.02 and 0.05),
//! and with volume 0 failed before the first pass (the 100 % at p = 0).
//!
//! One seeded [`FaultPlan`] stream is drawn on every read of a live
//! volume across both passes and the scrub, so adding or removing any
//! read reshuffles every later fault: a cell that moves may be a new
//! sample of the faults rather than a policy change (CHANGES.md,
//! FOUND on `sweep`). The checks above are orderings that every sample
//! must keep, not pinned figures.

use highlight::rig::RigSpec;
use highlight::TertiaryIo;
use hl_bench::report::Checks;
use hl_bench::table::{print_table, Row};
use hl_footprint::Footprint;
use hl_sim::time::as_secs;
use hl_vdev::{FaultConfig, FaultPlan};

const VOLS: u32 = 8;
const SLOTS: u32 = 16;
const SEGS: u32 = 24;
const TRANSIENT_P: f64 = 0.05;

struct Cell {
    availability: f64,
    mean_fetch_secs: f64,
    scrub_copies: u64,
}

fn sweep(replicas: u32, media_p: f64, seed: u64) -> Cell {
    let (tio, jb, map) = RigSpec {
        lines: 40..46,
        volumes: VOLS,
        slots: SLOTS,
        ..RigSpec::default()
    }
    .build();
    tio.set_replication(replicas);

    // Stage the population: 3 primaries per volume in the low slots,
    // replicas round-robin on other volumes in the high slots.
    let seg_bytes = jb.segment_bytes();
    let mut cursor = vec![SLOTS / 2; VOLS as usize];
    for i in 0..SEGS {
        let vol = i % VOLS;
        let slot = i / VOLS;
        let data = vec![(i as u8).wrapping_mul(17).wrapping_add(1); seg_bytes];
        jb.poke_segment(vol, slot, &data).expect("stage primary");
        let seg = map.tert_seg(vol, slot);
        {
            let tseg = tio.tseg();
            let mut t = tseg.borrow_mut();
            t.seg_mut(seg).avail_bytes = seg_bytes as u32;
            t.advance_cursor(vol, slot);
        }
        for r in 0..replicas {
            let rvol = (vol + 1 + r) % VOLS;
            let rslot = cursor[rvol as usize];
            cursor[rvol as usize] += 1;
            jb.poke_segment(rvol, rslot, &data).expect("stage replica");
            tio.replicas().borrow_mut().add(seg, rvol, rslot);
            tio.tseg().borrow_mut().advance_cursor(rvol, rslot);
        }
    }

    let plan = FaultPlan::new(FaultConfig {
        transient_read_p: TRANSIENT_P,
        media_failure_p: media_p,
        ..FaultConfig::none(seed)
    });
    jb.set_fault_plan(plan);

    let mut ok = 0u64;
    let mut attempts = 0u64;
    let mut latency = 0u64;
    let mut t = 0;
    let pass =
        |tio: &TertiaryIo, t: &mut u64, ok: &mut u64, attempts: &mut u64, latency: &mut u64| {
            for i in 0..SEGS {
                let seg = map.tert_seg(i % VOLS, i / VOLS);
                *attempts += 1;
                if let Ok((_, end)) = tio.demand_fetch(*t, seg) {
                    *ok += 1;
                    *latency += end - *t;
                    *t = end;
                    tio.eject(seg);
                }
            }
        };
    pass(&tio, &mut t, &mut ok, &mut attempts, &mut latency);
    let report = tio.scrub(t);
    t = report.end;
    pass(&tio, &mut t, &mut ok, &mut attempts, &mut latency);

    Cell {
        availability: ok as f64 / attempts as f64,
        mean_fetch_secs: if ok > 0 {
            as_secs(latency) / ok as f64
        } else {
            f64::NAN
        },
        scrub_copies: tio.stats().scrub_copies,
    }
}

const REPLICAS: [u32; 3] = [0, 1, 2];
const MEDIA_P: [f64; 3] = [0.0, 0.02, 0.05];

fn main() {
    let mut rows = Vec::new();
    // avail[r][p], in the order of REPLICAS and MEDIA_P.
    let mut avail = [[0.0; MEDIA_P.len()]; REPLICAS.len()];
    for (r, &replicas) in REPLICAS.iter().enumerate() {
        for (p, &media_p) in MEDIA_P.iter().enumerate() {
            let cell = sweep(replicas, media_p, 0x510b_5eed);
            avail[r][p] = cell.availability;
            rows.push(Row {
                label: format!("replicas={replicas}  media-failure p={media_p:.2}"),
                paper: "—".into(),
                measured: format!(
                    "avail {:5.1}%  fetch {:6.1}s  scrub copies {}",
                    100.0 * cell.availability,
                    cell.mean_fetch_secs,
                    cell.scrub_copies
                ),
            });
        }
    }
    print_table(
        "Reliability sweep (§10): fault rate × replica count",
        ("configuration", "paper", "measured"),
        &rows,
    );
    println!(
        "({} segments, {} fetch attempts per cell: one pass, a scrub, a second pass; \
transient read-error rate fixed at {:.0}%)",
        SEGS,
        2 * SEGS,
        100.0 * TRANSIENT_P
    );
    let mut checks = Checks::new("Reliability checks");
    for (p, media_p) in MEDIA_P.iter().enumerate() {
        checks.row(
            format!("p={media_p:.2}: availability does not fall as replicas are added"),
            avail.windows(2).all(|w| w[0][p] <= w[1][p]),
        );
    }
    checks.row(
        "p=0.00: availability is 100% at every replica count",
        avail.iter().all(|a| a[0] == 1.0),
    );
    checks.finish();
}
