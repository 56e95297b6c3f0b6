//! Property test for the §10 recovery layer: under any fault plan that
//! leaves at least one surviving copy of a segment, a demand fetch must
//! never surface `SegmentUnavailable`, and the fetched bytes must match
//! the oracle copy written before the faults began.
//!
//! Plus the degraded-mode property (DESIGN.md §6f): any scripted
//! drive fault (death, hang, slowdown) against a two-drive pool under a
//! demand workload loses no tickets, serves every fetch byte-identical
//! to the oracle from the surviving lane, and leaves zero tracecheck
//! findings.

use highlight::rig::RigSpec;
use highlight::{HlError, RecoveryPolicy};
use hl_footprint::Footprint;
use hl_lfs::config::AddressMap;
use hl_vdev::{FaultConfig, FaultPlan};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The segment has three copies (primary on volume 0, replicas on
    /// volumes 1 and 2). The plan kills up to two of those volumes and
    /// sprinkles transient read faults with probability up to 0.3 — so
    /// at least one copy always survives, and the recovery policy (12
    /// retries) must always reach it.
    #[test]
    fn surviving_replica_implies_availability(
        seed in 0u64..1_000_000_000,
        p_milli in 0u32..300,
        combo in 0usize..7,
    ) {
        let kills: &[u32] = match combo {
            0 => &[],
            1 => &[0],
            2 => &[1],
            3 => &[2],
            4 => &[0, 1],
            5 => &[0, 2],
            _ => &[1, 2],
        };
        let (tio, jb, map) = RigSpec::with_lines(40..44).build();
        let seg = map.tert_seg(0, 0);
        let oracle: Vec<u8> = (0..1usize << 20)
            .map(|i| (i as u8).wrapping_mul(7).wrapping_add(seed as u8))
            .collect();
        jb.poke_segment(0, 0, &oracle).unwrap();
        jb.poke_segment(1, 0, &oracle).unwrap();
        jb.poke_segment(2, 0, &oracle).unwrap();
        tio.replicas().borrow_mut().add(seg, 1, 0);
        tio.replicas().borrow_mut().add(seg, 2, 0);

        let plan = FaultPlan::new(FaultConfig {
            transient_read_p: p_milli as f64 / 1000.0,
            ..FaultConfig::none(seed)
        });
        for &v in kills {
            plan.fail_volume_at(v, 0);
        }
        jb.set_fault_plan(plan);
        tio.set_recovery_policy(RecoveryPolicy {
            max_retries: 12,
            backoff_base: 1000,
            quarantine_after: u32::MAX,
        });

        let mut t = 0;
        for round in 0..3 {
            match tio.demand_fetch(t, seg) {
                Ok((disk_seg, end)) => {
                    let mut back = vec![0u8; oracle.len()];
                    tio.disks_handle()
                        .peek(map.seg_base(disk_seg) as u64, &mut back)
                        .unwrap();
                    prop_assert_eq!(&back, &oracle, "bytes diverged in round {}", round);
                    t = end;
                    tio.eject(seg);
                }
                Err(HlError::SegmentUnavailable { .. }) => {
                    return Err(TestCaseError::fail(format!(
                        "segment unavailable despite a surviving copy \
                         (kills {:?}, p {}, round {}, {} read faults)",
                        kills, p_milli, round, tio.tracer().recoveries("rfault")
                    )));
                }
                Err(e) => {
                    return Err(TestCaseError::fail(format!(
                        "unexpected error: {e} (kills {kills:?}, p {p_milli})"
                    )));
                }
            }
        }
        prop_assert_eq!(tio.stats().permanent_losses, 0);
    }

    /// A random drive-fault plan — kill, hang, or slow one of the two
    /// drives at a random instant — crossed with a staggered demand
    /// workload: every ticket resolves successfully (the survivor
    /// absorbs re-dispatched orphans), every fetched segment matches
    /// its oracle, and the finished trace is invariant-clean.
    #[test]
    fn drive_faults_lose_no_tickets_and_bytes_survive(
        seed in 0u64..1_000_000_000,
        victim in 0u32..2,
        kind in 0u32..3,
        at_ms in 0u64..60_000,
    ) {
        let (tio, jb, map) = RigSpec::with_lines(40..44).build();
        let mut oracles = Vec::new();
        for vol in 0..4u32 {
            let oracle: Vec<u8> = (0..1usize << 20)
                .map(|i| (i as u8).wrapping_mul(7).wrapping_add(vol as u8))
                .collect();
            jb.poke_segment(vol, 0, &oracle).unwrap();
            oracles.push(oracle);
        }
        let plan = FaultPlan::new(FaultConfig::none(seed));
        let at = at_ms * 1_000;
        match kind {
            0 => plan.fail_drive_at(victim, at),
            1 => plan.hang_drive_at(victim, at, 20_000_000),
            _ => plan.slow_drive_from(victim, 3.0, at),
        }
        jb.set_fault_plan(plan);

        // Four distinct platters staggered 20 s apart (the fault lands
        // somewhere inside), plus a duplicate of the first segment to
        // exercise the coalesced-ticket join under re-dispatch.
        let mut tickets = Vec::new();
        for vol in 0..4u32 {
            tickets.push((vol, tio.enqueue_demand(vol as u64 * 20_000_000, map.tert_seg(vol, 0))));
        }
        tickets.push((0, tio.enqueue_demand(1_000, map.tert_seg(0, 0))));
        tio.pump();

        for (vol, ticket) in &tickets {
            // `fetch_result` panics on an unresolved ticket, so merely
            // reading it proves nothing was lost; one healthy drive
            // always survives, so it must also be a success.
            let (disk_seg, _) = ticket.fetch_result().map_err(|e| {
                TestCaseError::fail(format!(
                    "vol {vol} unavailable (victim {victim}, kind {kind}, at {at}): {e}"
                ))
            })?;
            let oracle = &oracles[*vol as usize];
            let mut back = vec![0u8; oracle.len()];
            tio.disks_handle()
                .peek(map.seg_base(disk_seg) as u64, &mut back)
                .unwrap();
            prop_assert_eq!(&back, oracle, "vol {} bytes diverged", vol);
        }
        let findings = tio.trace_findings();
        prop_assert!(
            findings.is_empty(),
            "tracecheck findings (victim {}, kind {}, at {}): {:?}",
            victim, kind, at, findings
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any small adversarial scenario (flash crowd, hierarchy scan, or
    /// tenant thrash) crossed with any scripted fault (drive death,
    /// hang, slowdown, or robot jam) at a random instant: no ticket is
    /// lost (result collection panics on an unresolved one), no fetch
    /// or copy-out fails (one healthy drive always survives, and a jam
    /// merely stalls), the byte oracle matches everywhere, and the
    /// finished trace has zero findings.
    #[test]
    fn random_scenario_survives_random_drive_fault(
        seed in 0u64..1_000_000_000,
        shape in 0u32..3,
        fkind in 0u32..4,
        victim in 0u32..2,
        at_s in 5u64..120,
    ) {
        use hl_bench::scenarios::{run_scenario, FaultScript, ScenarioConfig, ScenarioKind};
        use hl_sim::time::secs;

        let (volumes, kind) = match shape {
            0 => (2, ScenarioKind::FlashCrowd {
                objects: 8,
                exponent: 1.0,
                requests: 8,
                gap: secs(2.0),
                crowd_at: Some(4),
                crowd_clients: 6,
            }),
            1 => (3, ScenarioKind::HierarchyScan { readahead: 1 }),
            _ => (3, ScenarioKind::TenantThrash {
                readers: 2,
                writers: 1,
                reads_per_tenant: 6,
                copyouts_per_writer: 2,
                working_set: 4,
                think: secs(1.0),
            }),
        };
        let at = secs(at_s as f64);
        let fault = match fkind {
            0 => FaultScript::DriveDeath { drive: victim, at },
            1 => FaultScript::DriveHang { drive: victim, at, dur: secs(20.0) },
            2 => FaultScript::DriveSlow { drive: victim, factor: 3.0, at },
            _ => FaultScript::RobotJam { at, dur: secs(30.0) },
        };
        let r = run_scenario(&ScenarioConfig {
            name: "prop",
            seed,
            volumes,
            segments_per_volume: 4,
            drives: 2,
            cache_lines: 8,
            kind,
            fault: Some(fault),
        });

        prop_assert_eq!(
            r.failed_fetches, 0,
            "fetches failed (shape {}, fault {}, victim {}, at {}s)",
            shape, fkind, victim, at_s
        );
        prop_assert_eq!(r.failed_copyouts, 0);
        prop_assert_eq!(
            r.oracle_mismatches, 0,
            "bytes diverged over {} oracle checks", r.oracle_verified
        );
        prop_assert!(
            r.trace_findings.is_empty(),
            "tracecheck findings (shape {}, fault {}, victim {}, at {}s): {:?}",
            shape, fkind, victim, at_s, r.trace_findings
        );
    }
}
