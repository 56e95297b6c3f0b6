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

run cargo fmt -- --check
run cargo fmt --manifest-path benchmark/Cargo.toml -- --check

# Every public name has a caller. A `pub fn|struct|enum|const` declared
# in the non-test part of crates/*/src/*.rs (each file up to its first
# column-0 `#[cfg(test)]`) must be named on a line of *another* file's
# non-test part, among crates/*/{src,benches,examples}, examples/, src/
# and benchmark/src. `use` statements, comment lines and the name's own
# declaration lines do not count; tests/ and crates/*/tests do not count.
# A name without such a caller is deleted, made private, or listed in
# ci-names.allow as `name  tag: reason`, where the tag is one of
# signature | test-hook | paper-feature | benchmark-api. The gate fails
# on an unlisted name, on a listed name that now has a caller or no
# longer exists (a stale entry), and on an entry without a known tag.
# Methods are gated by call, not by name: a method declared in a
# `pub trait` block of crates/*/src/*.rs, and an inherent method (a
# 4-space-indented `pub fn` in the non-test part of crates/*/src/*.rs),
# must be called — `.m(` or `::m(` — on a non-test line of any file
# listed above, its own file and doc examples included (the scheduler
# beside `Actor` is what calls `Actor::name`; a doc example compiles and
# runs). The same allow list covers all three rules.
# Seen red, each sabotage alone: a planted `pub fn zz_unused() {}` in
# hl-sim's time.rs; a name called only from tests/ (`render_text`'s
# entry removed); a name reachable only through a `pub use` (`TornWrite`'s
# entry removed: hl-vdev's lib.rs re-exports it); a stale entry
# (`run_torture`, which has callers, added to the list); a planted
# `fn zz_unused(&self) {}` in `Footprint`; a trait method called only
# from tests/ (`fail_volume`'s entry removed); a planted
# `pub fn zz_unused(&self) {}` in `Resource` whose name another file
# mentions without calling it (`const _: &str = "zz_unused";` in
# hl-sim's time.rs; only the inherent-method rule fails); an inherent
# method called only from tests/ (`lane_health`'s entry removed).
echo "==> every public name, trait method and inherent method has a non-test caller"
awk -v allow=ci-names.allow '
  FNR == 1 { t = 0; inuse = 0; tr = 0 }
  FILENAME == allow {
    if (/^#/ || !NF) next
    listed[$1] = 1
    if ($2 !~ /^(signature|test-hook|paper-feature|benchmark-api):$/) {
      print "  " $1 ": allow-list entry without a known tag"; bad = 1
    }
    next
  }
  /^#\[cfg\(test\)\]/ { t = 1 }
  t { next }
  {
    for (rest = $0; match(rest, /(\.|::)[A-Za-z_0-9]+\(/); rest = substr(rest, RSTART + RLENGTH)) {
      call = substr(rest, RSTART, RLENGTH - 1); sub(/^(\.|::)/, "", call); called[call] = 1
    }
  }
  FILENAME ~ /^crates\/[^\/]+\/src\// && /^pub trait / { tr = 1 }
  tr && /^}/ { tr = 0 }
  tr && match($0, /^    fn [A-Za-z_0-9]+/) { tdecl[substr($0, RSTART + 7, RLENGTH - 7)] = FILENAME }
  FILENAME ~ /^crates\/[^\/]+\/src\// && match($0, /^    pub fn [A-Za-z_0-9]+/) {
    mdecl[substr($0, RSTART + 11, RLENGTH - 11)] = FILENAME
  }
  /^ *(pub(\([a-z]+\))? )?use / { inuse = 1 }
  inuse { if (index($0, ";")) inuse = 0; next }
  /^ *\/\// { next }
  {
    own = ""
    if (match($0, /^ *pub (fn|struct|enum|const) [A-Za-z_0-9]+/)) {
      n = split(substr($0, RSTART, RLENGTH), w, " "); own = w[n]
      if (FILENAME ~ /^crates\/[^\/]+\/src\//) decl[own, FILENAME] = 1
    }
    line = $0; gsub(/[^A-Za-z_0-9]+/, " ", line); m = split(line, tok, " ")
    for (i = 1; i <= m; i++)
      if (tok[i] != own && !((tok[i], FILENAME) in seen)) {
        seen[tok[i], FILENAME] = 1; files[tok[i]]++
      }
  }
  END {
    for (k in decl) {
      split(k, p, SUBSEP)
      if (files[p[1]] - ((p[1], p[2]) in seen) > 0) continue
      unref[p[1]] = 1
      if (!(p[1] in listed)) { print "  " p[1] " (" p[2] "): no caller"; bad = 1 }
    }
    for (m in tdecl) {
      if (m in called) continue
      unref[m] = 1
      if (!(m in listed)) { print "  " m " (" tdecl[m] "): trait method never called"; bad = 1 }
    }
    for (m in mdecl) {
      if (m in called) continue
      unref[m] = 1
      if (!(m in listed)) { print "  " m " (" mdecl[m] "): method never called"; bad = 1 }
    }
    for (name in listed)
      if (!(name in unref)) { print "  " name ": stale allow-list entry"; bad = 1 }
    exit bad
  }' ci-names.allow crates/*/src/*.rs crates/*/benches/*.rs crates/*/examples/*.rs \
     examples/*.rs src/*.rs benchmark/src/*.rs

# Nothing polls (DESIGN.md §6h): an actor in hl-server or hl-bench
# waits for space by parking on a ticket or on the engine's space signal
# (`TertiaryIo::subscribe_space`), never by a retry period. The gate
# fails on a constant whose name holds RETRY or POLL, and on a yield to
# `now` plus a literal period; a yield to a device's end, a think time
# or a pacing instant (`self.next_send`, `now + self.gap`,
# `now + DEMAND_GAP`) passes. Seen red, each planted alone: `const
# RETRY: SimTime = 20 * MS;` in hl-server's fleet.rs, and the fleet
# worker returning `Step::Yield(now + 20 * MS)` instead of parking.
echo "==> nothing polls: no retry constant or fixed-period yield in hl-server, hl-bench"
if grep -nE 'const [A-Z_]*(RETRY|POLL)|Step::Yield\(now \+ ([0-9]|MS\b|SEC\b|secs\()' \
  crates/server/src/*.rs crates/bench/src/*.rs; then
  echo "  a producer polls: park on its ticket or on the engine's space signal"
  exit 1
fi

# Blocks by reference (DESIGN.md §6, "Blocks by reference"): inside the
# LFS a block's bytes are copied only from a caller's `write` and to a
# caller's `read`; a read miss, a partial write, migration, cleaning and
# roll-forward move `Block` handles. The gate fails on a boxed byte
# buffer, the cluster-read scratch buffer or a byte-form raw read
# anywhere in crates/lfs/src. Seen red at the parent commit: 27 lines in
# nine files (`read_raw` in the cleaner, roll-forward and writer,
# `read_scratch` in fs.rs, `Box<[u8]>` in the buffer cache and `Ufs`).
echo "==> blocks by reference: no byte-buffer hop in crates/lfs/src"
if grep -nE 'Box<\[u8\]>|read_scratch|read_raw' crates/lfs/src/*.rs; then
  echo "  a block is copied between levels: move its Block handle"
  exit 1
fi

# Whole segments by reference at the rig end too: a rig, shard or bench
# pokes a tertiary segment as block handles
# (`Jukebox::poke_segment_blocks`), never as a 1 MB byte image. The gate
# fails on a byte-form `poke_segment(` in the non-test part (each file
# up to its first column-0 `#[cfg(test)]`) of crates/core/src,
# crates/server/src and crates/bench/src. Seen red with rig.rs's
# per-slot `poke_segment(vol, slot, &seg_image(..))` restored.
echo "==> whole segments by reference: no byte-form poke_segment outside tests"
if awk 'FNR == 1 { t = 0 }
        /^#\[cfg\(test\)\]/ { t = 1 }
        !t && /poke_segment\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit !bad }' crates/core/src/*.rs crates/server/src/*.rs crates/bench/src/*.rs; then
  echo "  a segment is poked as bytes: poke its Block handles"
  exit 1
fi

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
# Adversarial scenarios (§6g), client fleets (§6h; also the ceiling on
# scheduler steps per request at 1000 clients), policy ablation (§6i).
run cargo bench -q -p hl-bench --bench scenarios
run cargo bench -q -p hl-server --bench server_fleet
# The server quickstart (README): fails unless two same-seed runs agree.
run cargo run -q --release -p hl-server --example fleet_demo
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
# `#[cfg(test)]`), then every line of the tests, benches and examples,
# and the sum of both — the figures CHANGES.md reports. Printed, not gated.
echo "==> non-test lines under crates/*/src; all lines of tests, benches, examples"
awk 'FNR == 1 { t = 0; src = FILENAME ~ /^crates\/[^\/]+\/src\// }
     src && /^#\[cfg\(test\)\]/ { t = 1 }
     t { next }
     src { split(FILENAME, p, "/"); n[p[2]]++; s++; next }
     { g = FILENAME; sub(/[^\/]+$/, "", g); sub(/^crates\/[^\/]+/, "crates/*", g)
       m[g]++; o++ }
     END { for (c in n) printf "%-17s %6d\n", c, n[c] | "sort"
           close("sort"); printf "%-17s %6d\n", "total", s
           for (g in m) printf "%-17s %6d\n", g, m[g] | "sort"
           close("sort"); printf "%-17s %6d\n", "all", s + o }' crates/*/src/*.rs \
  tests/*.rs crates/*/tests/*.rs crates/*/benches/*.rs crates/*/examples/*.rs examples/*.rs

echo "CI OK"
