#!/usr/bin/env bash
# Repository CI gate: a list of commands, each of which is its own gate.
# Tests run once; every bench exits non-zero when one of its checks is
# false (hl_bench::report::Checks); the simulated-time BENCH_*.json
# files regenerate byte-identically, so the committed copy is both
# schema and expected value and any drift fails the final diff.
# Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

run() {
  echo "==> $*"
  "$@"
}

run cargo build --release
run cargo test --workspace -q   # every test binary once (covers tier-1's root suite)
run cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" run cargo doc --workspace --no-deps -q

# The benchmark package (BENCHMARK.json) is its own workspace over the
# crates' public API: an API deletion that breaks it must fail here.
run cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
run cargo test -q --offline --manifest-path benchmark/Cargo.toml

# Paper tables (DESIGN.md §6d): shape checks + tracecheck over Table 4.
run cargo bench -q -p hl-bench --bench table2
run cargo bench -q -p hl-bench --bench table3
run cargo bench -q -p hl-bench --bench table4 -- --trace
run cargo bench -q -p hl-bench --bench table5
run cargo bench -q -p hl-bench --bench table6
# Drive-pool ablation (§6e) and fault-under-load (§6f).
run cargo bench -q -p hl-bench --bench drive_pool
run cargo bench -q -p hl-bench --bench fault_load
# Adversarial scenarios (§6g), client fleets (§6h), policy ablation (§6i).
run cargo bench -q -p hl-bench --bench scenarios
run cargo bench -q -p hl-server --bench server_fleet
run cargo bench -q -p hl-bench --bench policies
# The paper's figures, the §5 design-choice ablations and the replica /
# scrub sweep: no checks of their own, but they are the only callers of
# several JukeboxConfig, cleaner-policy and stack.rs paths — run, not
# just type-checked.
run cargo bench -q -p hl-bench --bench figures
run cargo bench -q -p hl-bench --bench ablations
run cargo bench -q -p hl-bench --bench reliability
# Hot-path micro gate (§6j): host-scaled <= 55 ns route budget.
# BENCH_micro.json is host time, so it is not part of the drift check.
run cargo bench -q -p hl-bench --bench micro

run git diff --exit-code -- BENCH_pipeline.json BENCH_faults.json \
  BENCH_scenarios.json BENCH_server.json BENCH_policies.json

# Non-test source lines per crate (each file up to its first column-0
# `#[cfg(test)]`) — the figure CHANGES.md reports. Printed, not gated.
echo "==> non-test lines under crates/*/src"
awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 }
     !t { split(FILENAME, p, "/"); n[p[2]]++; all++ }
     END { for (c in n) printf "%-10s %6d\n", c, n[c] | "sort"
           close("sort"); printf "%-10s %6d\n", "total", all }' crates/*/src/*.rs

# Public names declared in the non-test part of a crate source file that
# occur in no other file: candidates for deletion, not verdicts (a type
# may be used only where it is declared). Printed, not gated.
echo "==> public fn/struct/enum names referenced from no other file"
awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 }
     !t && match($0, /^ *pub (fn|struct|enum) [A-Za-z_0-9]+/) {
       n = split(substr($0, RSTART, RLENGTH), w, " "); print w[n], FILENAME }' crates/*/src/*.rs |
  sort -u | while read -r name file; do
    others=$(grep -rlw -- "$name" crates tests examples benchmark/src | grep -vxc "$file") || true
    [ "$others" -ne 0 ] || echo "  $name ($file)"
  done

echo "CI OK"
