//! No hashed table's order reaches an output. Every table keyed with the
//! workspace's fixed mixer (`BlockHashBuilder`: the segment cache's
//! directory, the LFS's inode and read-ahead maps and buffer-cache index,
//! the access tracker, the pending-fetch map, the store's runs, the trace
//! recorder's residency counts and the checker's spans and lines) lays
//! its keys out by that mixer. A debug build lets a test salt the mixer
//! (`hl_trace::set_hash_salt`), so this test replays pinned work under
//! salt 0 and two others and requires every digest, pin and render to
//! come out equal:
//!
//! - `golden_trace`'s scripted run (render, digest, per-kind counts);
//! - `golden_image`'s three lives (disk, media, clock and trace pins);
//! - the `tenant_thrash` scenario, the smallest fleet
//!   (`FleetConfig::small`), whole results rendered;
//! - the open spans and tracecheck findings of an engine with eight
//!   fetches queued and never run (the "left open" finding lists them).
//!
//! Allocation counts are not compared: a table's growth follows its
//! layout (`hot_path_allocs`' cold fleet reads a few allocations apart
//! across salts).
//!
//! Seen red, each sabotage alone: `HighLight::eject_all` without its
//! sort (the deep golden life), and the trace checker's `live_spans`
//! without its sort (the queued fetches' open spans and "left open"
//! finding).
#![cfg(debug_assertions)]

mod lives;

use highlight::rig::RigSpec;
use highlight::CopyOutMode;
use hl_bench::scenarios::{run_scenario, standard_scenarios};
use hl_server::fleet::{run_fleet, FleetConfig};

/// Everything the covered work outputs, labelled, under the thread's
/// current salt.
fn outputs() -> Vec<(&'static str, String)> {
    let thrash = standard_scenarios()
        .into_iter()
        .find(|c| c.name == "tenant_thrash")
        .expect("tenant_thrash scenario");
    let (tio, _jb, map) = RigSpec::default().build();
    for i in 0..8 {
        tio.enqueue_demand(0, map.tert_seg(i % 4, i / 4));
    }
    vec![
        ("golden_trace", format!("{:?}", lives::trace_life())),
        (
            "golden_image immediate",
            format!("{:?}", lives::scripted_life(CopyOutMode::Immediate)),
        ),
        (
            "golden_image delayed",
            format!("{:?}", lives::scripted_life(CopyOutMode::Delayed)),
        ),
        ("golden_image deep", format!("{:?}", lives::deep_life())),
        ("tenant_thrash", format!("{:?}", run_scenario(&thrash))),
        (
            "FleetConfig::small",
            format!("{:?}", run_fleet(&FleetConfig::small(1993))),
        ),
        (
            "queued fetches",
            format!("{:?} {:?}", tio.tracer().open_spans(), tio.trace_findings()),
        ),
    ]
}

#[test]
fn no_hashed_order_reaches_an_output() {
    let plain = outputs();
    for salt in [0x5a17, 0x9e37_79b9_7f4a_7c15] {
        hl_trace::set_hash_salt(salt);
        let salted = outputs();
        hl_trace::set_hash_salt(0);
        for ((what, want), (_, got)) in plain.iter().zip(&salted) {
            assert_eq!(got, want, "{what} differs under hash salt {salt:#x}");
        }
    }
}
