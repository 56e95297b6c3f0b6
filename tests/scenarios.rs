//! Adversarial scenario integration tests (DESIGN.md §6g).
//!
//! The flash-crowd coalescing contract at both levels — N concurrent
//! demand fetches of one cold segment against the raw engine must cost
//! exactly one media read, and the scenario-level storm must coalesce
//! the same way — plus coverage, thrash, determinism, and fault-composed
//! checks over the standard scenario suite. Every run must end with
//! zero tracecheck findings.

use highlight::rig::RigSpec;
use highlight::SvcStats;
use hl_bench::scenarios::{run_scenario, standard_scenarios, ScenarioConfig};
use hl_footprint::Footprint;
use hl_trace::Class;

fn std_scenario(name: &str) -> ScenarioConfig {
    standard_scenarios()
        .into_iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("{name} missing from the standard suite"))
}

/// The coalescing contract at the engine level: a crowd of N concurrent
/// demand fetches of one *cold* segment costs exactly one media read —
/// the other N-1 join the in-flight fetch (one demand span, N-1 `Join`
/// events referencing it) and observe the same completion.
#[test]
fn flash_crowd_coalesces_to_one_media_read() {
    const CROWD: usize = 8;
    let (tio, jb, map) = RigSpec::with_lines(40..46).build();
    jb.poke_segment(2, 5, &vec![0xC7u8; 1 << 20]).unwrap();
    let seg = map.tert_seg(2, 5);
    let reads_before = jb.stats().reads;

    let tickets: Vec<_> = (0..CROWD).map(|_| tio.enqueue_demand(0, seg)).collect();
    tio.pump();

    let (disk_seg, ready) = tickets[0].fetch_result().expect("crowd fetch served");
    for t in &tickets {
        assert_eq!(
            t.fetch_result().expect("crowd fetch served"),
            (disk_seg, ready),
            "all crowd observers must share one completion"
        );
    }
    assert_eq!(
        jb.stats().reads - reads_before,
        1,
        "a coalesced crowd must cost exactly one media read"
    );
    let s = tio.stats();
    assert_eq!(s.coalesced_fetches, CROWD as u64 - 1);
    assert_eq!(tio.tracer().joins(), CROWD as u64 - 1);
    assert_eq!(tio.tracer().spans_opened(Class::Demand), 1);
    let findings = tio.trace_findings();
    assert!(findings.is_empty(), "tracecheck: {findings:?}");
    // Accounting pin (ISSUE 21): taken while `coalesced_fetches`,
    // `queued_requests` and the drive figures were counted beside the
    // trace; they are now read off it. Seen to go red with the `join`
    // emission in `enqueue_fetch` skipped (`coalesced_fetches` reads 0,
    // caught by the assertion above) and with `admit_drive_io` not
    // emitting its `dev_io` (`drive_ops` all zero here).
    assert_eq!(
        s,
        SvcStats {
            demand_fetches: 1,
            fetch_time: 16_951_283,
            queued_requests: 1,
            coalesced_fetches: 7,
            reqq_hwm: 1,
            devq_hwm: 1,
            wait_demand: 2_000,
            drive_ops: [0, 1, 0, 0, 0, 0, 0, 0],
            drive_busy: [0, 2_384_067, 0, 0, 0, 0, 0, 0],
            drive_peak: 1,
            ..SvcStats::default()
        }
    );
    assert_eq!((tio.io_ops(), tio.io_peak_in_flight()), (2, 2));
    assert_eq!(tio.fault_log().render(), "");
}

/// The same contract at scenario level: the standard flash-crowd storm
/// (24 simultaneous clients on an unpublished object) coalesces to one
/// read, and the whole run is trace-clean.
#[test]
fn scenario_flash_crowd_storm_coalesces() {
    let r = run_scenario(&std_scenario("flash_crowd"));
    assert!(
        r.coalesced >= 23,
        "a 24-client storm must coalesce at least 23 fetches (got {})",
        r.coalesced
    );
    assert_eq!(r.joins, r.coalesced);
    assert_eq!(r.failed_fetches, 0);
    assert_eq!(r.oracle_mismatches, 0);
    assert!(r.trace_findings.is_empty(), "{:?}", r.trace_findings);
    // The storm did not multiply media traffic: every media read maps
    // to a distinct miss, never to a crowd duplicate.
    assert!(r.media_reads <= r.cache.misses - r.coalesced + r.cache.hits);
}

/// Same seed ⇒ byte-identical trace digest; different seed ⇒ a
/// different event stream.
#[test]
fn scenario_digests_are_seed_deterministic() {
    let cfg = std_scenario("zipf_steady");
    let a = run_scenario(&cfg);
    let b = run_scenario(&cfg);
    assert_eq!(a.trace_digest, b.trace_digest, "same seed must replay");
    assert_eq!(a.wall_clock, b.wall_clock);

    let mut reseeded = cfg.clone();
    reseeded.seed = cfg.seed ^ 0x5a5a;
    let c = run_scenario(&reseeded);
    assert_ne!(
        a.trace_digest, c.trace_digest,
        "a different seed must diverge"
    );
}

/// The backup scan touches every tertiary segment exactly once: one
/// demand per segment, one media read per segment (readahead coalesces
/// instead of double-reading), and a swap per volume boundary.
#[test]
fn hierarchy_scan_covers_everything_once() {
    let cfg = std_scenario("hierarchy_scan");
    let total = cfg.volumes * cfg.segments_per_volume;
    let r = run_scenario(&cfg);
    assert_eq!(r.demand_issued, total);
    assert_eq!(
        r.media_reads, total as u64,
        "the scan must read each segment from media exactly once"
    );
    assert!(r.media_swaps >= cfg.volumes as u64 - 1);
    assert_eq!(r.failed_fetches, 0);
    assert_eq!(r.oracle_mismatches, 0);
    assert!(r.trace_findings.is_empty(), "{:?}", r.trace_findings);
}

/// The tenant mix genuinely thrashes — more distinct read targets than
/// cache lines forces ejections — while the writer's copy-outs land
/// their bytes on the media intact.
#[test]
fn tenant_thrash_evicts_and_preserves_bytes() {
    let r = run_scenario(&std_scenario("tenant_thrash"));
    assert!(r.cache.ejections > 0, "the mix never thrashed the pool");
    assert!(r.copyouts_issued >= 6);
    assert_eq!(r.failed_copyouts, 0);
    assert_eq!(r.failed_fetches, 0);
    assert!(
        r.oracle_verified > 0,
        "the byte oracle must check resident lines and copied-out segments"
    );
    assert_eq!(r.oracle_mismatches, 0);
    assert!(r.trace_findings.is_empty(), "{:?}", r.trace_findings);
}

/// The fault-composed scenarios: a drive dying mid-storm is absorbed by
/// the surviving lane, a robot jam stalls swaps without killing a
/// drive, and both runs stay trace-clean with zero lost work.
#[test]
fn fault_composed_scenarios_run_clean() {
    let death = run_scenario(&std_scenario("flash_crowd_drive_death"));
    assert!(death.drive_down >= 1, "the scripted death was not observed");
    assert_eq!(death.failed_fetches, 0, "survivors must absorb the storm");
    assert_eq!(death.oracle_mismatches, 0);
    assert!(
        death.trace_findings.is_empty(),
        "{:?}",
        death.trace_findings
    );

    let jam = run_scenario(&std_scenario("scan_robot_jam"));
    assert_eq!(jam.drive_down, 0, "a jam stalls, it does not kill");
    assert_eq!(jam.failed_fetches, 0);
    assert_eq!(jam.oracle_mismatches, 0);
    assert!(jam.trace_findings.is_empty(), "{:?}", jam.trace_findings);

    let healthy = run_scenario(&std_scenario("hierarchy_scan"));
    assert!(
        jam.wall_clock > healthy.wall_clock,
        "the jammed scan must pay for the stalled swaps"
    );
}
