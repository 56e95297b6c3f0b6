//! Reliability acceptance scenarios (§10): a volume holding a fetched
//! segment permanently fails mid-run; demand fetch must keep succeeding
//! via a replica, the dead volume must be quarantined, a scrub pass must
//! restore the configured copy count, and every step must land in the
//! stats and the fault log — deterministically, so the same seed yields
//! a byte-identical log.
//!
//! Accounting pins (ISSUE 21): the literal `SvcStats`, `io_ops()`,
//! `io_peak_in_flight()`, rendered fault log and `SegmentUnavailable`
//! text below were taken while each figure still had a ledger of its own
//! (the I/O server's interval tracker, the `SvcStats` fault counters,
//! the per-request step trail) and hold now that each is read off the
//! tracer or the fault log. Seen to go red, each sabotage applied alone
//! and reverted:
//!   * `admit_drive_io` not emitting its `dev_io` — the volume-loss pin
//!     reads `drive_ops` [0, 0, ..] for [6, 2, ..] (and its trace digest
//!     goes too).
//!   * `quarantine_volume` not pushing its `FaultEvent::Quarantine` —
//!     `quarantines` reads 0 for 1 in the volume-loss scenario, and the
//!     unavailable segment's one step ends "gave up", not "quarantine".

use highlight::rig::{assert_clean, hp6300, HlRig, RigSpec};
use highlight::segcache::LineState;
use highlight::{FaultEvent, HlError, SvcStats};
use hl_footprint::Footprint;
use hl_lfs::config::AddressMap;
use hl_vdev::{FaultConfig, FaultPlan};

/// The full mid-run volume-loss scenario; returns the rendered fault
/// log and the engine's trace digest.
fn run_scenario(seed: u64) -> (String, u64) {
    let (tio, jb, map) = RigSpec::with_lines(40..44).build();
    tio.set_replication(1);
    let seg = map.tert_seg(0, 0);
    let data: Vec<u8> = (0..1usize << 20)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed as u8))
        .collect();
    // A replicated copy-out puts the segment on tertiary media: the
    // primary at its home (volume 0, slot 0), one replica on volume 1.
    let (line, _) = tio
        .cache()
        .borrow_mut()
        .allocate(seg, LineState::Staging, 0)
        .expect("staging line");
    tio.disks_handle()
        .poke(map.seg_base(line) as u64, &data)
        .unwrap();
    tio.cache()
        .borrow_mut()
        .set_state(seg, LineState::DirtyWait);
    let t0 = tio.copy_out(0, seg).expect("replicated copy-out");
    assert_eq!(tio.replicas().borrow().homes(&map, seg), [(0, 0), (1, 0)]);
    assert!(tio.eject(seg));

    // Healthy fetches first: a neighbour on volume 0 brings the
    // primary's platter into a drive (the replica write left volume 1
    // loaded, and loaded homes are tried first), then the segment
    // itself has been read once already — from the primary.
    jb.poke_segment(0, 1, &data).unwrap();
    let (_, t0) = tio.demand_fetch(t0, map.tert_seg(0, 1)).expect("neighbour");
    let (_, t1) = tio.demand_fetch(t0, seg).expect("healthy fetch");
    assert!(tio.eject(seg));

    // Mid-run, the primary's volume permanently fails.
    let plan = FaultPlan::new(FaultConfig::none(seed));
    plan.fail_volume_at(0, t1);
    jb.set_fault_plan(plan);

    // The demand fetch still succeeds, served by the replica...
    let (disk_seg, t2) = tio.demand_fetch(t1, seg).expect("replica serves");
    let mut back = vec![0u8; data.len()];
    tio.disks_handle()
        .peek(map.seg_base(disk_seg) as u64, &mut back)
        .unwrap();
    assert_eq!(back, data, "replica bytes differ from the original");

    // ...the dead volume is quarantined...
    assert_eq!(tio.quarantined_volumes(), vec![0]);

    // ...and a scrub pass restores the configured copy count.
    let report = tio.scrub(t2);
    assert_eq!(report.copies_made, 1, "one fresh replica expected");
    assert!(report.unrecoverable.is_empty());

    let st = tio.stats();
    assert_eq!(st.failovers, 1);
    assert_eq!(st.quarantines, 1);
    assert_eq!(st.scrub_copies, 1);
    assert_eq!(st.permanent_losses, 0);

    // The restored copy serves reads on its own.
    assert!(tio.eject(seg));
    assert!(tio.demand_fetch(report.end, seg).is_ok());

    assert_clean(&tio);
    assert_eq!(tio.queue_depths(), (0, 0));
    assert_eq!(
        tio.stats(),
        SvcStats {
            demand_fetches: 4,
            copyouts: 1,
            fetch_time: 27_074_907,
            copyout_time: 37_801_395,
            failovers: 1,
            quarantines: 1,
            scrub_copies: 1,
            queued_requests: 9,
            reqq_hwm: 1,
            devq_hwm: 1,
            wait_demand: 8_000,
            wait_copyout: 2_000,
            wait_scrub: 2_000,
            drive_ops: [6, 2, 0, 0, 0, 0, 0, 0],
            drive_busy: [22_085_919, 4_695_375, 0, 0, 0, 0, 0, 0],
            drive_peak: 1,
            affinity_hits: 3,
            ..SvcStats::default()
        }
    );
    assert_eq!((tio.io_ops(), tio.io_peak_in_flight()), (13, 2));
    assert_eq!(
        tio.fault_log().render(),
        "t=58098818 seg=16777207 v0/s0 fault: media failure\n\
         t=58098818 quarantine v0 after 1 failures\n\
         t=58098818 seg=16777207 failover v0/s0 -> v1/s0\n\
         t=82350533 seg=16777207 scrub copy v1/s0 -> v2/s0\n"
    );
    (tio.fault_log().render(), tio.trace_digest())
}

#[test]
fn volume_loss_mid_run_recovers_and_logs_deterministically() {
    let (log_a, digest_a) = run_scenario(1234);
    let (log_b, digest_b) = run_scenario(1234);
    assert!(!log_a.is_empty());
    assert_eq!(log_a, log_b, "same seed must render a byte-identical log");
    assert_eq!(digest_a, digest_b);
    // Re-pinned twice: by the fix that admits the replica write and the
    // scrub's read and write to the I/O tracker (three more `dev` lines,
    // nothing else), and when the scheduler stopped writing park/wake
    // lines into the trace (those lines, nothing else).
    assert_eq!(digest_a, 0xcaff_1397_fe8b_5059, "the recovery trace moved");

    // Each recovery step appears, in causal order.
    let idx = |needle: &str| {
        log_a
            .find(needle)
            .unwrap_or_else(|| panic!("missing {needle:?} in log:\n{log_a}"))
    };
    assert!(idx("fault:") < idx("quarantine"));
    assert!(idx("quarantine") < idx("failover"));
    assert!(idx("failover") < idx("scrub copy"));
}

#[test]
fn exhausted_recovery_surfaces_the_ordered_fault_trail() {
    let (tio, jb, map) = RigSpec::with_lines(40..44).build();
    let seg = map.tert_seg(2, 3);
    jb.poke_segment(2, 3, &vec![1u8; 1 << 20]).unwrap();
    // The only copy's volume dies; there is no replica.
    let plan = FaultPlan::new(FaultConfig::none(42));
    plan.fail_volume_at(2, 0);
    jb.set_fault_plan(plan);

    let res = tio.demand_fetch(0, seg);
    assert_eq!(
        res.as_ref().unwrap_err().to_string(),
        "tertiary segment 16777194 unavailable after 1 recovery steps; \
         t=2000 v2/s3 media failure: quarantine"
    );
    match res {
        Err(HlError::SegmentUnavailable { seg: s, trail }) => {
            assert_eq!(s, seg);
            // The trail is the request's slice of the fault log — here
            // the whole log, in order (the pinned text above).
            assert_eq!(trail, tio.fault_log().events());
        }
        other => panic!("expected SegmentUnavailable, got {other:?}"),
    }
    assert_eq!(
        tio.stats(),
        SvcStats {
            quarantines: 1,
            permanent_losses: 1,
            queued_requests: 1,
            reqq_hwm: 1,
            devq_hwm: 1,
            wait_demand: 2_000,
            ..SvcStats::default()
        }
    );
    assert_eq!((tio.io_ops(), tio.io_peak_in_flight()), (0, 0));
    assert_eq!(
        tio.fault_log().render(),
        "t=2000 seg=16777194 v2/s3 fault: media failure\n\
         t=2000 quarantine v2 after 1 failures\n\
         t=2000 seg=16777194 PERMANENT LOSS\n"
    );
    assert!(tio
        .fault_log()
        .events()
        .iter()
        .any(|e| matches!(e, FaultEvent::PermanentLoss { .. })));
}

/// §6.3 regression: a copy-out that hits end-of-medium (compression
/// shortfall) must mark the volume full and transparently rewrite the
/// sealed segment on the next volume — with replica bookkeeping intact.
#[test]
fn end_of_medium_marks_volume_full_and_rewrites_on_next_volume() {
    let rig = HlRig::new(2 + 32 * 256 + 7, hp6300(4, 8), 6, None);
    // Volume 0 "compresses badly": only 1 of its 8 slots really fits.
    rig.jukebox.set_effective_segments(0, 1);
    rig.mkfs();
    let mut hl = rig.mount();
    hl.tio().set_replication(1);

    let patterned = |seed: u8| -> Vec<u8> {
        (0..900_000u32)
            .map(|i| (i as u8).wrapping_mul(13).wrapping_add(seed))
            .collect()
    };
    let a = patterned(8);
    let b = patterned(9);
    let ia = hl.create("/a").unwrap();
    let ib = hl.create("/b").unwrap();
    hl.write(ia, 0, &a).unwrap();
    hl.write(ib, 0, &b).unwrap();
    hl.sync().unwrap();

    hl.migrate_file("/a", false, None).unwrap();
    let mut tail = Default::default();
    hl.seal_staging(&mut tail).unwrap();
    hl.migrate_file("/b", false, None).unwrap();
    let mut tail2 = Default::default();
    hl.seal_staging(&mut tail2).unwrap();

    // The second copy-out hit end-of-medium and was relocated.
    assert!(
        tail.relocations + tail2.relocations >= 1,
        "expected an end-of-medium relocation"
    );
    // The caller marked the shortfallen volume full...
    assert!(hl.tseg().borrow().volume(0).full, "volume 0 must be full");
    // ...the event is on the record with its stats counter...
    assert!(hl.tio().stats().eom_events >= 1);
    assert!(hl
        .tio()
        .fault_log()
        .events()
        .iter()
        .any(|e| matches!(e, FaultEvent::EndOfMedium { vol: 0, .. })));
    // ...and both segments still carry their replica bookkeeping.
    assert_eq!(hl.tio().replicas().borrow().replicated_segments(), 2);

    // Both files read back intact from their post-EOM homes.
    hl.eject_all();
    hl.drop_caches();
    let mut back = vec![0u8; a.len()];
    hl.read(ia, 0, &mut back).unwrap();
    assert_eq!(back, a);
    hl.read(ib, 0, &mut back).unwrap();
    assert_eq!(back, b);
}
