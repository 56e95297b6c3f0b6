#!/usr/bin/env bash
# Repository CI gate: build, test, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (tier-1)"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# Bounded crash-point torture: every write boundary of the standard and
# migration-heavy scenarios plus the random-workload property pass.
# Well under two minutes end to end (~3 s on the reference machine).
echo "==> crash torture (tests/crash_torture.rs + tests/crash_props.rs)"
cargo test -q --test crash_torture --test crash_props --test recovery_edges

# Trace suites: invariant replay of the queue-engine scenarios and the
# Table 4 pipeline, the pinned golden trace, and the random-workload ×
# random-fault-plan property pass (DESIGN.md §6d).
echo "==> trace suites (trace_invariants + golden_trace + trace_props)"
cargo test -q --test trace_invariants --test golden_trace --test trace_props

# Drive-pool suite: overlap-vs-serialize, affinity batching, the
# starvation bound, pool-schedule determinism (DESIGN.md §6e), and the
# degraded-mode cases — drive death mid-fetch, watchdog-on-hang with
# spare rejoin, dead-pool drain, lane-sharing flag (DESIGN.md §6f).
echo "==> drive-pool suite (tests/drive_pool.rs)"
cargo test -q --test drive_pool

# Drive-fault property arm: random drive-fault plan × demand workload
# must lose no tickets, match the byte oracle, and replay clean — plus
# the scenario × fault arm: any small adversarial scenario crossed with
# any scripted fault survives with a clean oracle and zero findings.
echo "==> fault property suite (tests/fault_props.rs)"
cargo test -q --test fault_props

# Adversarial scenario tests (DESIGN.md §6g): the flash-crowd
# coalescing contract (N concurrent demands of one cold segment = one
# media read), scan coverage, tenant thrash, seed determinism, and the
# fault-composed runs.
echo "==> adversarial scenario suite (tests/scenarios.rs)"
cargo test -q --test scenarios

# Per-tenant fairness suite (DESIGN.md §6h): the deterministic
# two-tenant starvation test (prefetch storm vs demand victim, p95
# within 2x of solo) plus the random-tenant-mix proptest arm (every
# request answered, zero lost tickets, clean tracecheck replay).
echo "==> tenant fairness suite (tests/tenant_fairness.rs)"
cargo test -q --test tenant_fairness

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

# The benchmark package (BENCHMARK.json) is its own workspace over the
# crates' public API: an API deletion that breaks it must fail here.
echo "==> benchmark package (build + its own tests)"
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml

# Bounded Table 4 / Table 6 smoke: the full 52-segment migration through
# the queued engine. The benches print "Shape checks" lines — queuing
# must stay negligible (<5%) and every contention throughput must fall
# below its no-contention counterpart; any "false" fails the gate.
echo "==> Table 4/6 smoke (queuing negligible; contention < no-contention)"
t4=""
for bench in table4 table6; do
  out=$(cargo bench -q -p hl-bench --bench "$bench" -- --trace 2>&1)
  [ "$bench" = table4 ] && t4=$out
  echo "$out" | grep -A 4 "Shape checks"
  if echo "$out" | grep -A 4 "Shape checks" | grep -q "false"; then
    echo "FAIL: $bench shape check regressed"
    exit 1
  fi
done

# Tracecheck gate over the Table 4 bench run: the bench replays its
# event trace through the invariant engine and prints the finding
# count; anything but zero fails the gate (DESIGN.md §6d).
echo "==> tracecheck over the Table 4 bench output"
echo "$t4" | grep -E -A 14 "Tracecheck:|Trace summary:" || {
  echo "FAIL: table4 printed no Tracecheck line"
  exit 1
}
if ! echo "$t4" | grep -q "Tracecheck: 0 findings"; then
  echo "FAIL: table4 trace has invariant findings"
  exit 1
fi

# Drive-pool ablation smoke: migration + foreground demand reads at
# 1/2/4 drives, in two suites — the original 1-hot-volume stream
# (saturates at 2 drives) and the 4-hot-volume variant whose 2→4-drive
# step must keep paying off. The bench prints "Ablation checks" lines —
# any "false" fails the gate. It also writes BENCH_pipeline.json, which
# must exist and parse with both suites.
echo "==> drive-pool ablation smoke (narrow + 4-hot-volume suites)"
dp=$(cargo bench -q -p hl-bench --bench drive_pool 2>&1)
echo "$dp" | grep -A 6 "Ablation checks"
if echo "$dp" | grep -A 6 "Ablation checks" | grep -q "false"; then
  echo "FAIL: drive-pool ablation regressed"
  exit 1
fi
if [ ! -f BENCH_pipeline.json ]; then
  echo "FAIL: BENCH_pipeline.json was not produced"
  exit 1
fi
python3 - <<'EOF'
import json
with open("BENCH_pipeline.json") as f:
    data = json.load(f)
for suite in ("drive_ablation", "drive_ablation_4hot"):
    abl = data[suite]
    assert set(abl) == {"1", "2", "4"}, (
        f"{suite}: unexpected drive counts: {sorted(abl)}")
    for d, entry in abl.items():
        for key in ("throughput_kbs", "demand_residency_us",
                    "drive_utilization_pct", "drives", "media_swaps"):
            assert key in entry, f"{suite} drive {d}: missing {key}"
        assert len(entry["drive_utilization_pct"]) == int(d), d
wide = data["drive_ablation_4hot"]
assert wide["4"]["wall_clock_us"] <= wide["2"]["wall_clock_us"], (
    "4-hot-volume suite: the 4th drive stopped paying off")
print("BENCH_pipeline.json OK:",
      {s: {d: e["throughput_kbs"]["overall"]
           for d, e in sorted(data[s].items())}
       for s in ("drive_ablation", "drive_ablation_4hot")})
EOF

# Fault-under-load smoke (DESIGN.md §6f): the §7.3 migration + demand
# stream under a mid-run drive death, a robot jam, and an all-drives
# blackout. Each run must print "Tracecheck: 0 findings" (four runs
# including the healthy baseline); the bench itself asserts zero lost
# tickets and completion on the survivors. BENCH_faults.json must
# exist, parse with the shared schema, and show the degraded run's
# wall clock within 2x the healthy baseline.
echo "==> fault-under-load smoke (drive death / robot jam / blackout)"
fl=$(cargo bench -q -p hl-bench --bench fault_load 2>&1)
echo "$fl" | grep -E "Tracecheck:|Degraded-mode checks" -A 4
if [ "$(echo "$fl" | grep -c "Tracecheck: 0 findings")" -ne 4 ]; then
  echo "FAIL: fault_load runs did not all replay clean"
  exit 1
fi
if echo "$fl" | grep -A 4 "Degraded-mode checks" | grep -q "false"; then
  echo "FAIL: fault_load degraded-mode check regressed"
  exit 1
fi
if [ ! -f BENCH_faults.json ]; then
  echo "FAIL: BENCH_faults.json was not produced"
  exit 1
fi
python3 - <<'EOF'
import json
with open("BENCH_faults.json") as f:
    data = json.load(f)
fl = data["fault_load"]
runs = {"healthy_4drive", "drive_death", "robot_jam", "blackout"}
assert runs <= set(fl), f"missing runs: {runs - set(fl)}"
for name in runs:
    entry = fl[name]
    for key in ("throughput_kbs", "demand_residency_us",
                "drive_utilization_pct", "availability", "faults",
                "wall_clock_us"):
        assert key in entry, f"{name}: missing {key}"
healthy = fl["healthy_4drive"]
death = fl["drive_death"]
assert healthy["faults"]["drive_down"] == 0, "healthy run saw a drive down"
assert death["faults"]["drive_down"] >= 1, "drive_death run saw no fault"
assert death["wall_clock_us"] <= 2 * healthy["wall_clock_us"], (
    f"degraded wall clock {death['wall_clock_us']} > "
    f"2x healthy {healthy['wall_clock_us']}")
print("BENCH_faults.json OK:",
      {n: fl[n]["faults"]["drive_down"] for n in sorted(runs)})
EOF

# Adversarial scenario smoke (DESIGN.md §6g): the standard suite —
# Zipfian steady state, flash crowd, hierarchy scan, tenant thrash, and
# the two fault-composed variants — each run twice to prove the trace
# digests are byte-stable. Every scenario must print "Tracecheck: 0
# findings" (six lines); any "false" in the "Scenario checks" block
# fails the gate. BENCH_scenarios.json must exist and parse with one
# row per scenario.
echo "==> adversarial scenario smoke (6 scenarios, per-run trace gates)"
sc=$(cargo bench -q -p hl-bench --bench scenarios 2>&1)
echo "$sc" | grep -E "Tracecheck:|Scenario checks" -A 7
if [ "$(echo "$sc" | grep -c "Tracecheck: 0 findings")" -ne 6 ]; then
  echo "FAIL: scenario runs did not all replay clean"
  exit 1
fi
if echo "$sc" | grep -A 7 "Scenario checks" | grep -q "false"; then
  echo "FAIL: scenario check regressed"
  exit 1
fi
if [ ! -f BENCH_scenarios.json ]; then
  echo "FAIL: BENCH_scenarios.json was not produced"
  exit 1
fi
python3 - <<'EOF'
import json
with open("BENCH_scenarios.json") as f:
    data = json.load(f)
sc = data["scenarios"]
names = {"zipf_steady", "flash_crowd", "hierarchy_scan", "tenant_thrash",
         "flash_crowd_drive_death", "scan_robot_jam"}
assert set(sc) == names, f"scenario rows mismatch: {sorted(sc)}"
for name, row in sc.items():
    for key in ("seed", "wall_clock_us", "requests", "cache", "coalesced",
                "joins", "demand_residency_us", "media", "faults", "oracle",
                "tracecheck_findings", "trace_digest"):
        assert key in row, f"{name}: missing {key}"
    assert row["tracecheck_findings"] == 0, f"{name}: trace findings"
    assert row["oracle"]["mismatches"] == 0, f"{name}: oracle diverged"
    assert row["faults"]["failed_fetches"] == 0, f"{name}: failed fetches"
    assert row["joins"] == row["coalesced"], f"{name}: join/coalesce drift"
assert sc["flash_crowd"]["coalesced"] >= 23, "the storm never coalesced"
assert sc["flash_crowd_drive_death"]["faults"]["drive_down"] >= 1
assert sc["scan_robot_jam"]["faults"]["drive_down"] == 0
print("BENCH_scenarios.json OK:",
      {n: sc[n]["trace_digest"] for n in sorted(sc)})
EOF

# Client-fleet server smoke (DESIGN.md §6h): closed-loop protocol
# fleets at 100/400/1000 clients through the shared-queue and
# work-stealing pools (plus the naive baseline at 100). Ten runs, each
# of which must print "Tracecheck: 0 findings"; the "Fleet checks"
# block gates determinism at 1000 clients (byte-stable digest across
# two runs), server-layer coalescing (64 concurrent gets of one cold
# object = exactly one media read), and fairness (a prefetch-storm
# tenant degrades the victim's demand p95 at most 2x over solo). Any
# "false" fails the gate. BENCH_server.json must exist and parse.
echo "==> client-fleet server smoke (pool sweep + determinism + QoS)"
sv=$(cargo bench -q -p hl-server --bench server_fleet 2>&1)
echo "$sv" | grep -E "Determinism check|Coalescing check|Fairness check|Fleet checks" -A 4 | head -20
if [ "$(echo "$sv" | grep -c "Tracecheck: 0 findings")" -ne 10 ]; then
  echo "FAIL: server fleet runs did not all replay clean"
  exit 1
fi
if echo "$sv" | grep -A 4 "Fleet checks" | grep -q "false"; then
  echo "FAIL: server fleet check regressed"
  exit 1
fi
if [ ! -f BENCH_server.json ]; then
  echo "FAIL: BENCH_server.json was not produced"
  exit 1
fi
python3 - <<'EOF'
import json
with open("BENCH_server.json") as f:
    data = json.load(f)
fleet = data["server_fleet"]
assert set(fleet) == {"shared-queue", "work-stealing", "naive"}, sorted(fleet)
for pool, counts in fleet.items():
    want = {"100"} if pool == "naive" else {"100", "400", "1000"}
    assert set(counts) == want, f"{pool}: client counts {sorted(counts)}"
    for c, row in counts.items():
        for key in ("p50_us", "p95_us", "p99_us", "completed", "errors",
                    "lost_tickets", "tracecheck_findings", "tenant_admits",
                    "tenant_throttles", "steals", "demand_fetches",
                    "coalesced_fetches", "end_time_us", "trace_digest"):
            assert key in row, f"{pool}/{c}: missing {key}"
        assert row["errors"] == 0, f"{pool}/{c}: protocol errors"
        assert row["lost_tickets"] == 0, f"{pool}/{c}: lost tickets"
        assert row["tracecheck_findings"] == 0, f"{pool}/{c}: findings"
        assert row["completed"] == 2 * int(c), f"{pool}/{c}: completions"
assert data["coalescing"]["media_reads"] == 1, "server coalescing broke"
fair = data["fairness"]
assert fair["ratio"] <= fair["bound"], "fairness gate: victim p95 > 2x solo"
assert fair["storm_throttles"] > 0, "fair queue never engaged"
assert fair["storm_admits"] > 0, "storm was starved outright"
print("BENCH_server.json OK:",
      {p: {c: fleet[p][c]["p95_us"] for c in sorted(fleet[p], key=int)}
       for p in sorted(fleet)},
      "fairness ratio", fair["ratio"])
EOF

# Policy suite (DESIGN.md §6i): direct unit tests for the migration
# policies, the random-workload × random-arm property pass, and the
# pinned PolicyDecision-annotated migration trace.
echo "==> policy suite (policy_units + policy_props + golden_trace pin)"
cargo test -q --test policy_units --test policy_props

# Policy ablation smoke (DESIGN.md §6i, ROADMAP item 3): 4 policy arms ×
# 2 replayed workloads plus 2 fleet arms — 10 runs, each of which must
# print "Tracecheck: 0 findings". The bench itself asserts the
# replay-identity invariant (identical input-trace digests across arms
# per workload), a clean byte oracle everywhere, and that at least one
# policy beats the paper baseline under thrash; any "false" in the
# "Policy checks" block fails the gate. BENCH_policies.json must exist
# and parse with >= 4 arms x >= 2 workloads.
echo "==> policy ablation smoke (4 arms x 2 workloads + 2 fleet arms)"
pl=$(cargo bench -q -p hl-bench --bench policies 2>&1)
echo "$pl" | grep -E "Tracecheck:|Policy checks" -A 8 | head -30
if [ "$(echo "$pl" | grep -c "Tracecheck: 0 findings")" -ne 10 ]; then
  echo "FAIL: policy ablation runs did not all replay clean"
  exit 1
fi
if echo "$pl" | grep -A 8 "Policy checks" | grep -q "false"; then
  echo "FAIL: policy ablation check regressed"
  exit 1
fi
if [ ! -f BENCH_policies.json ]; then
  echo "FAIL: BENCH_policies.json was not produced"
  exit 1
fi
python3 - <<'EOF'
import json
with open("BENCH_policies.json") as f:
    data = json.load(f)
arms = data["arms"]
names = {r["arm"] for r in arms}
workloads = {r["workload"] for r in arms}
assert len(names) >= 4, f"need >= 4 policy arms, got {sorted(names)}"
assert len(workloads) >= 2, f"need >= 2 workloads, got {sorted(workloads)}"
for r in arms:
    for key in ("arm", "workload", "input_digest", "trace_digest",
                "findings", "hits", "misses", "hit_rate", "stalls",
                "demand_fetches", "demand_p50_us", "demand_p95_us",
                "user_bytes", "device_bytes", "write_amp", "media_swaps",
                "migrations", "disk_cleans", "tclean_passes",
                "policy_decisions", "oracle_verified", "oracle_failures",
                "end_time_us"):
        assert key in r, f"{r['arm']}/{r['workload']}: missing {key}"
    assert r["findings"] == 0, f"{r['arm']}/{r['workload']}: findings"
    assert r["oracle_failures"] == 0, f"{r['arm']}/{r['workload']}: oracle"
    assert r["policy_decisions"] > 0, f"{r['arm']}/{r['workload']}: no decisions"
# Replay identity: per workload, one input digest shared by every arm.
for wl in workloads:
    ds = {r["input_digest"] for r in arms if r["workload"] == wl}
    assert len(ds) == 1, f"{wl}: input digests diverged across arms: {ds}"
# Beats-baseline: some challenger improves write amp or demand p95
# under the thrash adversary.
base = next(r for r in arms
            if r["arm"] == "paper_baseline" and r["workload"] == "policy_thrash")
beats = [r["arm"] for r in arms
         if r["workload"] == "policy_thrash" and r["arm"] != "paper_baseline"
         and (r["write_amp"] < base["write_amp"]
              or r["demand_p95_us"] < base["demand_p95_us"])]
assert beats, "no policy beat the paper baseline under thrash"
fleet = data["fleet"]
assert len(fleet) >= 2, "need >= 2 fleet arms"
for f_ in fleet:
    assert f_["findings"] == 0 and f_["lost_tickets"] == 0, f_["name"]
print("BENCH_policies.json OK:",
      {f"{r['arm']}/{r['workload']}": r["write_amp"] for r in arms},
      "beats-baseline:", beats)
EOF

# Hot-path micro gate (DESIGN.md §6j): three before/after pairs, the
# <= 55 ns host-scaled route budget, and zero replica-directory probes
# on a resident demand hit. The bench exits non-zero when any of its
# "Hot-path checks" is false and rewrites BENCH_micro.json.
echo "==> hot-path micro gate (route ns + 3 opt pairs + zero-probe resident hits)"
cargo bench -q -p hl-bench --bench micro
python3 - <<'EOF'
import json
with open("BENCH_micro.json") as f:
    data = json.load(f)
m = data["micro"]
route = m["route"]
assert route["mean_ns"] <= route["gate_ns"] * route["host_scale"], (
    f"route {route['mean_ns']} ns blew the {route['gate_ns']} ns budget "
    f"(host x{route['host_scale']})")
assert route["mean_ns"] < m["seed_baseline_ns"]["route_peek_1_block"], (
    "route is no faster than the seed baseline")
pairs = m["pairs"]
assert set(pairs) == {"residency_probe", "dir_lookup",
                      "staging_copy"}, sorted(pairs)
assert "ticket alloc+complete+drop" in m["benchmarks"], "ticket row missing"
for name, p in pairs.items():
    for key in ("before_ns", "after_ns", "speedup"):
        assert key in p, f"{name}: missing {key}"
    assert p["after_ns"] <= p["before_ns"] * 1.25, (
        f"{name}: optimized path regressed past noise: {p}")
rh = m["resident_hit"]
assert rh["resident_probes"] == 0, "resident demand hit probed the replica dir"
assert rh["cold_probes"] >= 1, "replica-probe trace counter is dead"
assert rh["bloom_skips"] >= 1, "bloom guard never engaged"
print("BENCH_micro.json OK:", {"route_ns": route["mean_ns"]},
      {n: pairs[n]["speedup"] for n in sorted(pairs)})
EOF

echo "CI OK"
