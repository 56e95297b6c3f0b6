//! Property test for the tracing layer: under *any* small workload of
//! demand fetches, prefetches, copy-outs, ejects, and scrubs, crossed
//! with *any* fault plan (transient read faults, volume deaths, early
//! end-of-medium, robot jams), the recorded trace must satisfy every
//! `tracecheck` invariant, and the engine's counters must stay mutually
//! consistent with the recorder's span accounting:
//!
//! - `coalesced_fetches <= queued_requests` — a joiner rides an op that
//!   was itself queued;
//! - `permanent_losses <= fetch spans opened` — every declared loss is
//!   the death of one queued fetch op (demand or prefetch), never a
//!   phantom.

use highlight::rig::RigSpec;
use highlight::segcache::LineState;
use hl_footprint::Footprint;
use hl_trace::Class;
use hl_vdev::{FaultConfig, FaultPlan};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_workload_under_random_faults_is_trace_clean(
        seed in 0u64..1_000_000_000,
        ops in proptest::collection::vec(
            (0u8..5, 0u32..4, 0u32..8, 1u64..30_000), 1..24),
        transient_milli in 0u32..200,
        eom_milli in 0u32..200,
        jam_milli in 0u32..200,
        kill_vol in 0u32..8,
    ) {
        let (tio, jb, map) = RigSpec::with_lines(40..44).build();
        // Every segment has media-side bytes, so any fetch that fails
        // does so because of an injected fault, not missing data.
        for vol in 0..4u32 {
            for slot in 0..8u32 {
                let fill = (vol * 8 + slot + 1) as u8;
                jb.poke_segment(vol, slot, &vec![fill; 1 << 20]).unwrap();
            }
        }
        // A couple of replicas so the failover path can fire too.
        tio.replicas().borrow_mut().add(map.tert_seg(0, 0), 1, 0);
        jb.poke_segment(1, 0, &vec![1u8; 1 << 20]).unwrap();

        let plan = FaultPlan::new(FaultConfig {
            transient_read_p: f64::from(transient_milli) / 1000.0,
            early_eom_p: f64::from(eom_milli) / 1000.0,
            swap_jam_p: f64::from(jam_milli) / 1000.0,
            ..FaultConfig::none(seed)
        });
        // Half the cases also lose a whole volume mid-run.
        if kill_vol < 4 {
            plan.fail_volume_at(kill_vol, 40_000);
        }
        plan.set_tracer(tio.tracer());
        jb.set_fault_plan(plan);

        let mut t = 0u64;
        for (i, &(kind, vol, slot, dt)) in ops.iter().enumerate() {
            t += dt;
            let seg = map.tert_seg(vol, slot);
            match kind {
                0 => { tio.enqueue_demand(t, seg); }
                1 => { tio.enqueue_prefetch(t, seg); }
                2 => { tio.enqueue_eject(t, seg); }
                3 => {
                    // A copy-out needs a sealed staging line; skip when
                    // the cache refuses (full, or the segment is
                    // already resident in another state).
                    let cache = tio.cache();
                    let fresh = cache.borrow().peek(seg).is_none();
                    let sealed = fresh
                        && cache
                            .borrow_mut()
                            .allocate(seg, LineState::Staging, t)
                            .is_some();
                    if sealed {
                        tio.cache().borrow_mut().set_state(seg, LineState::DirtyWait);
                        tio.enqueue_copy_out(t, seg);
                    }
                }
                _ => { tio.enqueue_scrub(t); }
            }
            // Drain often enough that the bounded queue never refuses.
            if i % 8 == 7 {
                tio.pump();
            }
        }
        tio.pump();

        let findings = tio.trace_findings();
        prop_assert!(
            findings.is_empty(),
            "tracecheck findings under seed {seed}:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        let s = tio.stats();
        let tr = tio.tracer();
        prop_assert!(
            s.coalesced_fetches <= s.queued_requests,
            "coalesced {} > queued {}", s.coalesced_fetches, s.queued_requests
        );
        let fetch_spans = tr.spans_opened(Class::Demand) + tr.spans_opened(Class::Prefetch);
        prop_assert!(
            s.permanent_losses <= fetch_spans,
            "permanent losses {} > fetch spans {}", s.permanent_losses, fetch_spans
        );
        // The recorder and the engine agree on coalescing.
        prop_assert_eq!(tr.joins(), s.coalesced_fetches);
        // Every span the engine opened was closed by the drain.
        prop_assert_eq!(tr.open_spans().len(), 0);
    }
}
