//! Golden-trace snapshot: a fixed scripted run — create, write,
//! migrate, copy out, eject, demand-fetch back — must render a
//! byte-identical text trace on every run, pinned here line for line.
//! Any change to the engine's event emission (ordering, timing, or
//! content) fails this test and forces a conscious decision, because
//! downstream determinism claims (digest-stamped bench transcripts,
//! crash-point reproduction by `k=` index) all rest on this stability.

use highlight::migrator::Migrator;
use highlight::rig::{hp6300, HlRig};

/// The scripted life: one 40 KB file, migrated and fetched back.
fn scripted() -> (Vec<String>, u64, Vec<(&'static str, u64)>) {
    let rig = HlRig::new(2 + 16 * 256 + 5, hp6300(2, 4), 4, None);
    rig.mkfs();
    let mut hl = rig.mount();

    let data: Vec<u8> = (0..40_000).map(|i| (i % 251) as u8).collect();
    let ino = hl.create("/doc").expect("create");
    hl.write(ino, 0, &data).expect("write");
    hl.sync().expect("sync");
    hl.migrate_file("/doc", false, None).expect("migrate");
    let mut tail = Default::default();
    hl.seal_staging(&mut tail).expect("seal");
    hl.drain_copyouts().expect("drain");
    hl.eject_all();
    hl.drop_caches();
    let ino = hl.lookup("/doc").expect("lookup");
    let mut back = vec![0u8; data.len()];
    hl.read(ino, 0, &mut back).expect("read");
    assert_eq!(back, data, "bytes diverged before the trace is judged");

    let findings = hl.tio().trace_findings();
    assert!(findings.is_empty(), "tracecheck: {findings:?}");
    let tr = hl.tio().tracer();
    (tr.render_text(), hl.tio().trace_digest(), tr.summary())
}

#[test]
fn scripted_run_replays_byte_identical_per_seed() {
    let (a, da, sa) = scripted();
    let (b, db, sb) = scripted();
    assert_eq!(a, b, "two runs of the same script diverged");
    assert_eq!(da, db);
    assert_eq!(sa, sb, "per-kind counts diverged");
}

/// The pinned rendering. Reading it top to bottom: the migrator fills
/// a staging line and seals it (`empty>staging>dirtywait`), the sealed
/// segment copies out (span 0: the writer lane `d0` takes the op —
/// staging-lane gather read `dev st`, Footprint write `dev d0` — and
/// the line goes `dirtywait>clean`), the eject discards the line
/// (span 1), and the read after `drop_caches` demand-fetches it back
/// (span 2: `empty>filling`, media read on `d0` — the platter is still
/// loaded there — then the staging-lane cache fill). The scheduler that
/// steps the service process and the I/O lanes writes nothing here.
const GOLDEN: &str = "\
#000000 t550466 line 16777211 empty>staging
#000001 t550466 line 16777211 staging>dirtywait
#000002 t648113 s+ 0 copyout seg 16777211
#000003 t648113 qdep reqq 1
#000004 t650113 qdep devq 1
#000005 t650113 qres 0 copyout 648113..650113
#000006 t650113 dev st 650113..1387093
#000007 t14887093 dev d0 14887093..19908701
#000008 t550466 line 16777211 dirtywait>clean
#000009 t19908701 s- 0 ok
#000010 t648113 s+ 1 eject seg 16777211
#000011 t648113 qdep reqq 1
#000012 t550466 line 16777211 clean>empty
#000013 t648113 qres 1 eject 648113..648113
#000014 t648113 s- 1 ok
#000015 t19960501 s+ 2 demand seg 16777211
#000016 t19960501 qdep reqq 1
#000017 t19960501 line 16777211 empty>filling
#000018 t19962501 qdep devq 1
#000019 t19962501 qres 2 demand 19960501..19962501
#000020 t19962501 dev d0 19962501..22317511
#000021 t22317511 dev st 22317511..23375628
#000022 t19960501 line 16777211 filling>clean
#000023 t23375628 s- 2 ok";

const GOLDEN_DIGEST: u64 = 0x56de_87ec_d9c5_0a2e;

#[test]
fn scripted_run_matches_the_pinned_trace() {
    let (lines, digest, summary) = scripted();
    let got = lines.join("\n");
    assert_eq!(
        got, GOLDEN,
        "\ntrace drifted from the golden pin; got:\n{got}\n"
    );
    assert_eq!(
        digest, GOLDEN_DIGEST,
        "digest drifted (got {digest:016x}); the event *stream* changed \
         even if the retained render did not"
    );
    // The per-kind counts cover every retained event, one per text line.
    let counted: u64 = summary.iter().map(|&(_, n)| n).sum();
    assert_eq!(counted, lines.len() as u64, "per-kind counts != text lines");
    for (tag, n) in [("span_open", 3), ("dev_io", 4)] {
        let got = summary
            .iter()
            .find(|&&(t, _)| t == tag)
            .map_or(0, |&(_, n)| n);
        assert_eq!(got, n, "{tag} count drifted");
    }
}

// ---------------------------------------------------------------------
// A migration pass through the `Migrator` daemon, annotated by its
// policy (DESIGN.md §6i): the `PolicyDecision` mark — what the policy
// chose and how much — is part of the pinned stream. If a policy's
// selection (or the mark's rendering) changes, this drifts and forces a
// conscious re-pin.
// ---------------------------------------------------------------------

/// Scripted migrator pass: an old cold file and a young hot file; the
/// STP policy must take the cold one first, and the byte target spills
/// into the hot one.
fn scripted_migrator_pass() -> (Vec<String>, u64, u64, usize) {
    let rig = HlRig::new(2 + 16 * 256 + 5, hp6300(2, 4), 4, None);
    rig.mkfs();
    let mut hl = rig.mount();

    let old: Vec<u8> = (0..40_000).map(|i| (i % 251) as u8).collect();
    let ino = hl.create("/cold").expect("create");
    hl.write(ino, 0, &old).expect("write");
    rig.clock.advance_by(hl_sim::time::secs(900.0));
    let hot = hl.create("/hot").expect("create");
    hl.write(hot, 0, &old[..8000]).expect("write");
    hl.sync().expect("sync");

    let mut mig = Migrator::stp();
    let stats = mig.migrate_bytes(&mut hl, 50_000).expect("migrate");
    assert_eq!(
        (stats.blocks, stats.inodes, stats.segments_sealed),
        (12, 2, 1),
        "the scripted pass moves both files into one sealed segment"
    );

    let findings = hl.tio().trace_findings();
    let tr = hl.tio().tracer();
    let marks: Vec<String> = tr
        .render_text()
        .into_iter()
        .filter(|l| l.contains("mark policy"))
        .collect();
    (
        marks,
        hl.tio().trace_digest(),
        tr.policy_decisions(),
        findings.len(),
    )
}

/// The pinned policy-decision annotation: one mark, naming the policy
/// and its selection (2 batches — one per file — totalling 14 items:
/// 10 + 2 data blocks plus 2 inodes).
const GOLDEN_POLICY_MARKS: &str = "\
#000000 t900563962 mark policy space-time product: select batches 2 items 14";

const GOLDEN_MIGRATOR_DIGEST: u64 = 0x0ef6_84b0_324b_ad71;

#[test]
fn migrator_pass_matches_the_pinned_policy_decision() {
    let (marks, digest, decisions, findings) = scripted_migrator_pass();
    assert_eq!(findings, 0, "tracecheck findings");
    assert_eq!(decisions, 1, "exactly one policy decision in the pass");
    let got = marks.join("\n");
    assert_eq!(
        got, GOLDEN_POLICY_MARKS,
        "\npolicy-decision annotation drifted; got:\n{got}\n"
    );
    assert_eq!(
        digest, GOLDEN_MIGRATOR_DIGEST,
        "digest drifted (got {digest:016x}); the migration event stream \
         changed even if the marks did not"
    );
}
