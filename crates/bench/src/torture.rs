//! Crash-point write torture harness.
//!
//! Runs a workload script (create / write / migrate / clean / scrub)
//! against a HighLight rig whose disk is wrapped in a [`CrashDev`], once
//! per *write boundary*: a counting pass learns how many block writes
//! the scenario issues, then the scenario is replayed N times, crashing
//! (torn write + dead device) at each boundary. After every crash the
//! filesystem is remounted from the surviving image and must
//!
//! - recover (mount succeeds, [`hl_lfs::recovery::RecoveryReport`]
//!   serial is sane),
//! - pass the whole-hierarchy `hlfsck` with zero findings, and
//! - still hold, byte for byte, every file the in-memory oracle knows
//!   was checkpointed and untouched since.
//!
//! Everything is deterministic per seed: the per-crash-point summary
//! lines come out byte-identical across runs, so a failure reproduces
//! from its `k=` index alone.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use highlight::rig::{hp6300, HlRig};
use highlight::{HighLight, MigrateStats};
use hl_lfs::error::LfsError;
use hl_sim::time::secs;
use hl_sim::Clock;
use hl_vdev::{BlockDev, CrashDev, CrashPlan};

/// One step of a torture workload. File identities are small indices
/// mapped to `/fNN` paths, as in the oracle fuzzer.
#[derive(Clone, Debug)]
pub enum TortureOp {
    /// Create `/fNN` (idempotent).
    Create(u8),
    /// Overwrite/extend a byte range with a fill pattern.
    Write {
        /// File index.
        file: u8,
        /// Byte offset.
        offset: u32,
        /// Byte count.
        len: u16,
        /// Fill byte.
        fill: u8,
    },
    /// Truncate to `len` bytes.
    Truncate {
        /// File index.
        file: u8,
        /// New size.
        len: u32,
    },
    /// Unlink `/fNN` (no-op when absent).
    Unlink(u8),
    /// Flush the log.
    Sync,
    /// Full checkpoint: the oracle's durability barrier.
    Checkpoint,
    /// Migrate a file's data to tertiary storage, seal the staging
    /// segment, and force the copy-out.
    Migrate(u8),
    /// Run the disk cleaner once.
    Clean,
    /// Scrub tertiary media against cached copies and replicas.
    Scrub,
}

/// What one whole torture run did, with a deterministic per-crash-point
/// transcript.
#[derive(Clone, Debug)]
pub struct TortureReport {
    /// Block writes the scenario issues end to end (counting pass).
    pub writes_counted: u64,
    /// Crash points actually exercised (all of them, or a capped,
    /// evenly strided sample).
    pub crash_points_run: usize,
    /// One line per crash point: crash index, torn block, recovery
    /// serial, replay count, surviving file count. Byte-identical
    /// across runs with the same seed and ops.
    pub summaries: Vec<String>,
}

/// The fixed scenario used by CI and the integration tests: exercises
/// create, write, sync, checkpoint, migrate, clean, and scrub with
/// enough data to fill several segments and two migrations.
pub fn standard_scenario() -> Vec<TortureOp> {
    use TortureOp::*;
    vec![
        Create(0),
        Write {
            file: 0,
            offset: 0,
            len: 9_000,
            fill: 0x11,
        },
        Create(1),
        Write {
            file: 1,
            offset: 0,
            len: 30_000,
            fill: 0x22,
        },
        Sync,
        Checkpoint,
        Migrate(0),
        Write {
            file: 1,
            offset: 8_192,
            len: 4_096,
            fill: 0x33,
        },
        Checkpoint,
        Create(2),
        Write {
            file: 2,
            offset: 0,
            len: 12_000,
            fill: 0x44,
        },
        Migrate(1),
        Unlink(0),
        Clean,
        Checkpoint,
        Scrub,
        Truncate {
            file: 2,
            len: 4_000,
        },
        Sync,
        Checkpoint,
    ]
}

/// Oracle state: live view, the snapshot taken at the last successful
/// checkpoint, and the set of paths whose namespace or contents changed
/// since (a crash may partially roll those forward; all others must
/// survive byte-exact).
#[derive(Default)]
struct Oracle {
    live: BTreeMap<String, Vec<u8>>,
    stable: BTreeMap<String, Vec<u8>>,
    touched: BTreeSet<String>,
    checkpoints: u64,
}

fn path(file: u8) -> String {
    format!("/f{file:02}")
}

/// How one pass over the scenario ended.
enum PassEnd {
    /// Every op ran; the device never died.
    Completed,
    /// The crash plan fired at op index `.0`.
    Crashed(usize),
}

/// Applies `ops` through the façade until completion or the injected
/// crash. Any error while the plan has not crashed is a real bug and
/// panics.
fn run_ops(
    hl: &mut HighLight,
    plan: &CrashPlan,
    clock: &Clock,
    ops: &[TortureOp],
    oracle: &mut Oracle,
) -> PassEnd {
    macro_rules! crash_or_bug {
        ($i:expr, $e:expr) => {{
            if plan.crashed() {
                return PassEnd::Crashed($i);
            }
            panic!("op {} failed without an injected crash: {}", $i, $e);
        }};
    }
    for (i, op) in ops.iter().enumerate() {
        match op {
            TortureOp::Create(f) => {
                let p = path(*f);
                match hl.create(&p) {
                    Ok(_) => {
                        oracle.live.insert(p.clone(), Vec::new());
                        oracle.touched.insert(p);
                    }
                    Err(LfsError::Exists) => {}
                    Err(e) => crash_or_bug!(i, e),
                }
            }
            TortureOp::Write {
                file,
                offset,
                len,
                fill,
            } => {
                let p = path(*file);
                if !oracle.live.contains_key(&p) {
                    continue;
                }
                let data = vec![*fill; *len as usize];
                let r = hl
                    .lookup(&p)
                    .and_then(|ino| hl.write(ino, u64::from(*offset), &data));
                match r {
                    Ok(()) => {
                        let f = oracle.live.get_mut(&p).expect("oracle file");
                        let end = *offset as usize + data.len();
                        if f.len() < end {
                            f.resize(end, 0);
                        }
                        f[*offset as usize..end].copy_from_slice(&data);
                        oracle.touched.insert(p);
                    }
                    Err(e) => crash_or_bug!(i, e),
                }
            }
            TortureOp::Truncate { file, len } => {
                let p = path(*file);
                if !oracle.live.contains_key(&p) {
                    continue;
                }
                let r = hl
                    .lookup(&p)
                    .and_then(|ino| hl.truncate(ino, u64::from(*len)));
                match r {
                    Ok(()) => {
                        oracle
                            .live
                            .get_mut(&p)
                            .expect("oracle file")
                            .resize(*len as usize, 0);
                        oracle.touched.insert(p);
                    }
                    Err(e) => crash_or_bug!(i, e),
                }
            }
            TortureOp::Unlink(f) => {
                let p = path(*f);
                match hl.unlink(&p) {
                    Ok(()) => {
                        oracle.live.remove(&p);
                        oracle.touched.insert(p);
                    }
                    Err(LfsError::NotFound) => {}
                    Err(e) => crash_or_bug!(i, e),
                }
            }
            TortureOp::Sync => {
                if let Err(e) = hl.sync() {
                    crash_or_bug!(i, e);
                }
            }
            TortureOp::Checkpoint => match hl.checkpoint() {
                Ok(()) => {
                    oracle.stable = oracle.live.clone();
                    oracle.touched.clear();
                    oracle.checkpoints += 1;
                }
                Err(e) => crash_or_bug!(i, e),
            },
            TortureOp::Migrate(f) => {
                let p = path(*f);
                if !oracle.live.contains_key(&p) {
                    continue;
                }
                let mut stats = MigrateStats::default();
                let r = hl
                    .migrate_file(&p, false, None)
                    .and_then(|_| hl.seal_staging(&mut stats))
                    .and_then(|()| hl.drain_copyouts());
                if let Err(e) = r {
                    crash_or_bug!(i, e);
                }
            }
            TortureOp::Clean => {
                // Seal any open staging first: the cleaner's segment
                // write flushes all dirty metadata, which must never
                // persist tertiary pointers whose data is still in a
                // volatile staging line.
                let mut stats = MigrateStats::default();
                let r = hl
                    .seal_staging(&mut stats)
                    .and_then(|()| hl.drain_copyouts())
                    .and_then(|_| hl.lfs().clean_once());
                if let Err(e) = r {
                    crash_or_bug!(i, e);
                }
            }
            TortureOp::Scrub => {
                let _ = hl.tio().scrub(clock.now());
                if plan.crashed() {
                    return PassEnd::Crashed(i);
                }
            }
        }
        clock.advance_by(secs(30.0));
    }
    if plan.crashed() {
        return PassEnd::Crashed(ops.len());
    }
    PassEnd::Completed
}

/// Remounts the surviving image, reaps crash orphans, and checks the
/// recovered state: recovery report sanity, oracle byte diff, and a
/// zero-finding `hlfsck`.
fn check_recovery(r: &HlRig, oracle: &Oracle, k: u64, crashed_at_op: usize, note: &str) -> String {
    let (mut hl, report) = r
        .mount_with_report()
        .unwrap_or_else(|e| panic!("crash point {k}: remount failed: {e}"));
    assert!(
        report.checkpoint_serial >= oracle.checkpoints,
        "crash point {k}: recovered from serial {} but {} checkpoints completed",
        report.checkpoint_serial,
        oracle.checkpoints,
    );
    hl.lfs()
        .reap_orphans()
        .unwrap_or_else(|e| panic!("crash point {k}: reap_orphans: {e}"));

    // Every checkpointed file untouched since the checkpoint must
    // survive with exactly its checkpointed bytes.
    let mut surviving = 0u32;
    for (p, want) in &oracle.stable {
        if oracle.touched.contains(p) {
            continue;
        }
        let ino = hl
            .lookup(p)
            .unwrap_or_else(|e| panic!("crash point {k}: checkpointed {p} lost: {e}"));
        let size = hl.stat(ino).expect("stat").size;
        assert_eq!(
            size,
            want.len() as u64,
            "crash point {k}: {p} size diverged from oracle"
        );
        let mut got = vec![0u8; want.len()];
        let n = hl.read(ino, 0, &mut got).expect("read");
        assert_eq!(n, want.len(), "crash point {k}: {p} short read");
        assert_eq!(
            &got, want,
            "crash point {k}: {p} bytes diverged from oracle"
        );
        surviving += 1;
    }

    let fsck = hl
        .fsck()
        .unwrap_or_else(|e| panic!("crash point {k}: hlfsck errored: {e}"));
    assert!(
        fsck.clean(),
        "crash point {k}: hlfsck findings:\n{}",
        fsck.render()
    );

    format!(
        "k={k:04} {note} op={crashed_at_op} serial={} replayed={} recovered={} files={surviving}",
        report.checkpoint_serial, report.partials_replayed, report.inodes_recovered,
    )
}

/// Runs one pass with the given crash plan: a fresh small-scale rig (the
/// oracle fuzzer's shape, where every crash point replays in
/// milliseconds), mkfs on the raw disk, mount through the [`CrashDev`],
/// play the scenario, and (if the plan fired) validate recovery. Returns
/// the summary line.
fn one_pass(ops: &[TortureOp], plan: CrashPlan, k: u64) -> String {
    let r = HlRig::new(2 + 48 * 256, hp6300(8, 16), 6, None);
    r.mkfs();
    let crash_disk: Rc<dyn BlockDev> = Rc::new(CrashDev::new(
        r.disk.clone() as Rc<dyn BlockDev>,
        plan.clone(),
    ));
    let mut oracle = Oracle::default();
    // The tertiary engine's event-trace digest, stamped into every
    // summary line: the determinism tests then also prove the service
    // process dispatched identically — and emitted an identical event
    // history — on every replay of a seed.
    let mut tr_digest = 0u64;
    let end =
        match HighLight::mount_with_report(crash_disk, Rc::new(r.jukebox.clone()), r.cfg.clone()) {
            Ok((mut hl, _)) => {
                // The injected tear lands in the same event stream as the
                // engine's own spans, so the crash is visible in the trace.
                plan.set_tracer(hl.tio().tracer());
                let end = run_ops(&mut hl, &plan, &r.clock, ops, &mut oracle);
                tr_digest = hl.tio().trace_digest();
                let findings = match end {
                    // A completed pass must satisfy the full quiesced
                    // contract: every span closed, residency reconciled,
                    // device overlap bounded.
                    PassEnd::Completed => hl.tio().trace_findings(),
                    // A crashed pass is checked mid-flight: the dead device
                    // may strand an op whose span never closes, but every
                    // other invariant still has to hold.
                    PassEnd::Crashed(_) => {
                        let st = hl.tio().stats();
                        hl_trace::tracecheck(
                            &hl.tio().tracer(),
                            &hl_trace::Expectations {
                                wait: Some([
                                    st.wait_demand,
                                    st.wait_eject,
                                    st.wait_copyout,
                                    st.wait_prefetch,
                                    st.wait_scrub,
                                ]),
                                max_dev_overlap: Some(hl.tio().io_peak_in_flight()),
                                drive_lanes: Some(hl.tio().drives()),
                                configured_drives: None,
                                require_all_closed: false,
                            },
                        )
                    }
                };
                assert!(
                    findings.is_empty(),
                    "crash point {k}: tracecheck findings:\n{}",
                    findings
                        .iter()
                        .map(|f| f.to_string())
                        .collect::<Vec<_>>()
                        .join("\n")
                );
                end
            }
            Err(e) => {
                if !plan.crashed() {
                    panic!("initial mount failed without a crash: {e}");
                }
                PassEnd::Crashed(0)
            }
        };
    match end {
        PassEnd::Completed => {
            assert!(
                plan.torn().is_none(),
                "crash point {k}: device tore a write but the scenario completed"
            );
            format!("k={k:04} nocrash tr={tr_digest:016x}")
        }
        PassEnd::Crashed(op) => {
            let t = plan.torn().expect("crashed plan records its torn write");
            let note = format!("tear=b{}+{}/{}", t.block, t.kept, t.len);
            // Captured by the test harness; surfaces on failure so the
            // failing crash point is diagnosable from the panic output.
            eprintln!("crash point {k}: {note} (during op {op})");
            let line = check_recovery(&r, &oracle, k, op, &note);
            format!("{line} tr={tr_digest:016x}")
        }
    }
}

/// Property-test entry point: counts the scenario's writes, then runs
/// exactly one crash pass at write boundary `pick % writes`. Returns
/// the crash point's summary line, or `None` when the scenario issues
/// no writes at all (nothing to torture — e.g. every op was a no-op).
/// Panics on any recovery violation, like [`run_torture`].
pub fn run_single_crash(seed: u64, ops: &[TortureOp], pick: u64) -> Option<String> {
    let counting = CrashPlan::counting(seed);
    let full = one_pass(ops, counting.clone(), u64::MAX);
    assert!(
        full.starts_with(&format!("k={:04} nocrash", u64::MAX)),
        "counting pass did not complete: {full}"
    );
    let writes = counting.writes_seen();
    if writes == 0 {
        return None;
    }
    let k = pick % writes;
    Some(one_pass(ops, CrashPlan::at_write(seed, k), k))
}

/// The harness entry point: counts the scenario's writes, then replays
/// it crashing at every write boundary (or an evenly strided sample of
/// at most `cap` boundaries). Panics on any recovery violation.
pub fn run_torture(seed: u64, ops: &[TortureOp], cap: Option<u64>) -> TortureReport {
    // Counting pass: no crash; must complete and leave a clean image.
    let counting = CrashPlan::counting(seed);
    let full = one_pass(ops, counting.clone(), u64::MAX);
    assert!(
        full.starts_with(&format!("k={:04} nocrash", u64::MAX)),
        "counting pass did not complete: {full}"
    );
    let writes = counting.writes_seen();
    assert!(writes > 0, "scenario issued no writes — nothing to torture");

    let stride = match cap {
        Some(c) if c > 0 && writes > c => writes.div_ceil(c),
        _ => 1,
    };
    let mut summaries = Vec::new();
    let mut k = 0;
    while k < writes {
        summaries.push(one_pass(ops, CrashPlan::at_write(seed, k), k));
        k += stride;
    }
    TortureReport {
        writes_counted: writes,
        crash_points_run: summaries.len(),
        summaries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_pass_completes_and_counts() {
        let plan = CrashPlan::counting(7);
        let line = one_pass(&standard_scenario(), plan.clone(), u64::MAX);
        assert!(line.contains("nocrash"), "{line}");
        assert!(plan.writes_seen() > 10, "writes={}", plan.writes_seen());
    }

    #[test]
    fn sampled_torture_is_deterministic() {
        let a = run_torture(11, &standard_scenario(), Some(6));
        let b = run_torture(11, &standard_scenario(), Some(6));
        assert_eq!(a.summaries, b.summaries);
        assert_eq!(a.crash_points_run, 6);
    }
}
