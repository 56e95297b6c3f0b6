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

# A block is summed once (DESIGN.md §6a "Checksum"): `ss_datasum` folds
# the sums that block handles carry (`Block::sum`), so no sum streams
# across the blocks of a payload, and the partial codec sums payload
# only through the handles. The gate fails on stride gathering across
# slices (`nheld`) in hl-lfs's ondisk.rs or anywhere in crates/vdev/src,
# on a datasum over byte slices (`Borrow<[u8]>` on a line naming a
# datasum) in ondisk.rs and partial.rs, and on a `cksum(` or a byte-form
# `datasum_of(` in the non-test part (up to the first column-0
# `#[cfg(test)]`) of partial.rs. Seen red at the parent commit: 8 lines
# of `cksum_run` in ondisk.rs, `datasum_of_blocks<B: Borrow<[u8]>>` in
# ondisk.rs and `datasum_matches<B: Borrow<[u8]>>` in partial.rs.
echo "==> a block is summed once: no stride gathering, payload sums through the handles"
if grep -nE 'nheld' crates/lfs/src/ondisk.rs crates/vdev/src/*.rs ||
  grep -nE 'datasum.*Borrow<\[u8\]>' crates/lfs/src/ondisk.rs crates/lfs/src/partial.rs ||
  awk '/^#\[cfg\(test\)\]/ { exit }
       /cksum\(|datasum_of\(/ { print FILENAME ":" FNR ": " $0; bad = 1 }
       END { exit !bad }' crates/lfs/src/partial.rs; then
  echo "  a payload is summed past its blocks' carried sums: fold Block::sum"
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

# A segment crosses the levels as one handle (DESIGN.md §6 "Blocks by
# reference"): the jukebox lends and keeps a slot's `Segment`, and the
# engine moves it with no staging array. The gate fails on a per-block
# copy of a slot's handles (`clone_from_slice`) in the non-test part
# (up to the first column-0 `#[cfg(test)]`) of
# crates/footprint/src/jukebox.rs, and on the engine's staging array
# (`staged:`, `self.staged`) in the non-test part of
# crates/core/src/service.rs. Seen red at the parent commit:
# jukebox.rs:423 (`out.clone_from_slice(blocks)` in `read_segment_on`)
# and service.rs:220 (the field), 456 and 481 (`exec` taking it out of
# its cell and putting it back) and 704 (its initialiser).
echo "==> a segment crosses as one handle: no per-block slot copy, no staging array"
if awk 'FNR == 1 { t = 0 }
        /^#\[cfg\(test\)\]/ { t = 1 }
        !t && FILENAME ~ /jukebox\.rs$/ && /clone_from_slice/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        !t && FILENAME ~ /service\.rs$/ && /staged:|self\.staged/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit !bad }' crates/footprint/src/jukebox.rs crates/core/src/service.rs; then
  echo "  a segment is copied handle by handle: move its Segment"
  exit 1
fi

# One drive policy (DESIGN.md §6e): the engine's I/O-server lanes
# decide which drive serves what, and every timed segment transfer names
# its drive (`read_segment_on` / `write_segment_on`). The jukebox keeps
# one rule of its own: a loaded volume is served where it sits. The gate
# fails on a least-recently-used pick (`min_by_key`, `last_used`) or a
# no-drive sentinel (`usize::MAX`) in the non-test part (up to the first
# column-0 `#[cfg(test)]`) of crates/footprint/src/jukebox.rs, and on a
# timed transfer that names no drive (`fn read_segment(`,
# `fn write_segment(`) anywhere in crates/footprint/src. Seen red at the
# parent commit: 11 lines in jukebox.rs (the writer-plus-readers pick,
# `DriveState::last_used` with its initialiser and four stamps, and the
# `usize::MAX` hint: its doc line, its test and the two untargeted forms
# passing it) and the four declarations of `read_segment` and
# `write_segment` in the trait and the jukebox.
echo "==> one drive policy: the jukebox picks no drive"
if awk '/^#\[cfg\(test\)\]/ { exit }
        /min_by_key|last_used|usize::MAX/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit !bad }' crates/footprint/src/jukebox.rs ||
  grep -nE 'fn (read|write)_segment\(' crates/footprint/src/*.rs; then
  echo "  the device picks a drive: name it at the call (read_segment_on / write_segment_on)"
  exit 1
fi

# Every setting has a workload that sets it (DESIGN.md §2, §4b): the
# jukebox models the one medium the paper measures (the HP 6300 MO
# changer), there is no on-fetch rearrangement, and a setting whose only
# value outside tests is one value is a constant. The gate fails if a
# deleted media kind, profile, constructor, mode or one-value field is
# declared again in the non-test part (each file up to its first column-0
# `#[cfg(test)]`) of crates/*/src. Seen red at the parent commit: 13
# lines in six files (`enum MediaKind`, `pub volume_change_time`,
# `fn metrum`, `fn sony_worm` and its `SONY_WORM` in jukebox.rs;
# `SONY_WORM` and `struct TapeProfile` in profile.rs; `enum
# RearrangeMode` in core's fs.rs; the three `pub migrate_inodes` in
# migrator.rs; `pub buffer_cache_bytes` in lfs's config.rs; `pub
# swap_stuck_time` in fault.rs), and with `pub swap_stuck_time: SimTime,`
# planted back into `FaultConfig` alone.
echo "==> every setting has a workload: no deleted medium, mode or one-value field in crates/*/src"
if awk 'FNR == 1 { t = 0 }
        /^#\[cfg\(test\)\]/ { t = 1 }
        !t && /enum (MediaKind|RearrangeMode)|struct TapeProfile|SONY_WORM|fn (metrum|sony_worm)\(|pub (migrate_inodes|buffer_cache_bytes|volume_change_time|swap_stuck_time):/ {
          print FILENAME ":" FNR ": " $0; bad = 1
        }
        END { exit !bad }' crates/*/src/*.rs; then
  echo "  a setting with one value came back: make it a constant, or give it a workload that sets it"
  exit 1
fi

# One accounting source (DESIGN.md §6d): Table 4's rows are read off
# the trace's lane busy times and the I/O servers' queuing total
# (`SvcStats::queuing`); no named phase timer is kept beside the trace.
# The gate fails if a `struct PhaseTimer`, a `fn phases(` or a `mod
# phase` is declared again in the non-test part (each file up to its
# first column-0 `#[cfg(test)]`) of crates/*/src. Seen red at the parent
# commit: 3 lines in two files (`pub struct PhaseTimer` in hl-sim's
# stats.rs; `pub mod phase` and `pub fn phases(` in core's service.rs).
echo "==> one accounting source: no phase timer beside the trace in crates/*/src"
if awk 'FNR == 1 { t = 0 }
        /^#\[cfg\(test\)\]/ { t = 1 }
        !t && /struct PhaseTimer|fn phases\(|mod phase([ ;{]|$)/ {
          print FILENAME ":" FNR ": " $0; bad = 1
        }
        END { exit !bad }' crates/*/src/*.rs; then
  echo "  a phase timer came back: read the split off the trace's lanes"
  exit 1
fi

# Frames in place (DESIGN.md §6h, "Protocol + pool"): each direction
# of a connection is one buffer and a read cursor; a send encodes
# straight onto the buffer and a receive decodes at the cursor, so a
# request and its reply allocate nothing. The gate fails on a
# `VecDeque` or a `Vec::new()` in the non-test part (up to the first
# column-0 `#[cfg(test)]`) of crates/server/src/connection.rs. Seen red
# with the old `send_request` (a temporary `Vec::new()` copied into a
# `VecDeque`) restored.
echo "==> frames in place: no byte queue or temporary buffer in connection.rs"
if awk '/^#\[cfg\(test\)\]/ { exit }
        /VecDeque|Vec::new\(\)/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit !bad }' crates/server/src/connection.rs; then
  echo "  a frame is staged outside its pipe: encode onto the pipe's buffer"
  exit 1
fi

# Trace lines without core::fmt (DESIGN.md §6d): `Event::write_line`
# writes through the crate's own three-call sink (a string, a decimal
# u64, a zero-padded u64), so the running digest folds each line's bytes
# without a formatter in the way. The gate fails on a `fmt::Write` impl,
# and on a `fmt::` type in `write_line`'s signature, anywhere in
# crates/trace/src. Seen red at the parent commit: `impl fmt::Write for
# FnvSink` and `fn write_line(&self, out: &mut impl fmt::Write)`.
echo "==> trace lines without core::fmt: no fmt::Write sink in crates/trace/src"
if grep -nE 'impl (std::)?fmt::Write for|fn write_line\([^)]*fmt::' crates/trace/src/*.rs; then
  echo "  a trace line goes through core::fmt: write it through the LineSink"
  exit 1
fi

# Trace bookkeeping (DESIGN.md §6j): the tables the trace touches on
# every event hash with the fixed mixer (`BlockHashBuilder`) — the
# checker's live spans (`open`) and line states (`lines`), the
# recorder's per-class residency counts (`residency`) — and a read
# that lists one sorts it. In the non-test part (up to the first
# column-0 `#[cfg(test)]`) of crates/trace/src/*.rs, the gate fails on a
# declaration of `open`, `lines` or `residency` whose type names
# `BTreeMap` or `BTreeSet`. Seen red at the parent commit: 3 lines in
# two files (`open` and `lines` in check.rs, `residency` in lib.rs).
echo "==> trace bookkeeping: no ordered map on the per-event path"
if awk 'FNR == 1 { t = 0 }
        /^#\[cfg\(test\)\]/ { t = 1 }
        t { next }
        /^ *(pub(\([a-z]+\))? )?(open|lines|residency): / && /BTree(Map|Set)/ {
          print FILENAME ":" FNR ": " $0; bad = 1
        }
        END { exit !bad }' crates/trace/src/*.rs; then
  echo "  an ordered map came back on the trace's per-event path: hash it, sort where it is read"
  exit 1
fi

# Resident-read bookkeeping (DESIGN.md §6j): the maps a file read or a
# demand probes on every call hash with the fixed mixer
# (`BlockHashBuilder`), and the access tracker updates a file's extents
# in place. In the non-test part (up to the first column-0
# `#[cfg(test)]`) of hl-lfs fs.rs, core's migrator.rs and requests.rs,
# the gate fails on a declaration of `inodes`, `seq_hint`, `files` or
# `pending_fetch` whose type does not name `BlockHashBuilder`, and on a
# `Vec::with_capacity` or a `sort` inside `AccessTracker::record`. Seen
# red at the parent commit: 7 lines in three files (the four SipHash
# declarations; record's two `Vec::with_capacity` and its
# `sort_by_key`).
echo "==> resident-read bookkeeping: fixed-mixer maps, an in-place access tracker"
if awk 'FNR == 1 { t = 0; rec = 0 }
        /^#\[cfg\(test\)\]/ { t = 1 }
        t { next }
        /^ *(pub(\([a-z]+\))? )?(inodes|seq_hint|files|pending_fetch): [A-Za-z_:]+</ &&
          !/BlockHashBuilder/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        /^    pub fn record\(/ { rec = 1 }
        rec && /Vec::with_capacity|\.sort/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        rec && /^    }$/ { rec = 0 }
        END { exit !bad }' crates/lfs/src/fs.rs crates/core/src/migrator.rs \
     crates/core/src/requests.rs; then
  echo "  per-call bookkeeping came back: key with BlockHashBuilder, update extents in place"
  exit 1
fi

# The resident request path (DESIGN.md §6j): an actor woken at the
# instant being run waits in the run queue's front slot, not the heap,
# and a fetch of a resident segment gets a ticket that carries its
# answer, without a shared cell. In the non-test part (up to the first
# column-0 `#[cfg(test)]`) of hl-sim's sched.rs the gate fails on a
# `runq.push(` outside `fn enqueue`; in core's service.rs it fails on a
# `Ticket::new()` inside `fn enqueue_fetch` (the resident branch is the
# one that made its own; the queued branches get theirs from
# `Request::new`). Seen red at the parent commit: 4 lines in two files
# (the heap pushes in `spawn_at`, `drain_wakes` and `run_until`; the
# resident branch's `Ticket::new()`).
echo "==> resident request path: heap pushes only through enqueue, no cell for a resident fetch"
if awk 'FNR == 1 { t = 0; f = 0 }
        /^#\[cfg\(test\)\]/ { t = 1 }
        t { next }
        FILENAME ~ /sched\.rs$/ {
          if (/^fn enqueue\(/) f = 1
          if (!f && /runq\.push\(/) { print FILENAME ":" FNR ": " $0; bad = 1 }
          if (f && /^}$/) f = 0
        }
        FILENAME ~ /service\.rs$/ {
          if (/^    fn enqueue_fetch\(/) f = 1
          if (f && /Ticket::new\(\)/) { print FILENAME ":" FNR ": " $0; bad = 1 }
          if (f && /^    }$/) f = 0
        }
        END { exit !bad }' crates/sim/src/sched.rs crates/core/src/service.rs; then
  echo "  a same-instant wake pays the heap, or a resident fetch allocates a cell: enqueue through the front slot, return Ticket::resident"
  exit 1
fi

# The cold dispatch path (DESIGN.md §6j): a request's way from the
# request queue to a drive allocates only the request. The fair queue
# walks its window in place and notes deferrals through `range_mut`, the
# device scheduler re-walks its queue, and each I/O lane refills its own
# table of loaded volumes. In the non-test part (up to the first
# column-0 `#[cfg(test)]`) of crates/core/src the gate fails on a
# `collect`, `Vec::new`, `Vec::with_capacity` or `.sort` inside `fn
# pop_ready`, `fn fair_pick` or `fn take_for_drive`, and on a
# `loaded_volumes()` call anywhere. Seen red at the parent commit: 5
# lines in three files (`pop_ready`'s held list and `fair_pick`'s
# candidate list, both `Vec::new()`; `take_for_drive`'s `collect` of
# eligible ops; the `loaded_volumes()` calls in ioserver.rs and
# recovery.rs).
echo "==> cold dispatch path: no scratch list in the queue picks, no collected drive table"
if awk 'FNR == 1 { t = 0; f = 0 }
        /^#\[cfg\(test\)\]/ { t = 1 }
        t { next }
        /^    (pub )?fn (pop_ready|fair_pick|take_for_drive)\(/ { f = 1 }
        f && /collect|Vec::new|Vec::with_capacity|\.sort/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        f && /^    }$/ { f = 0 }
        /loaded_volumes\(\)/ { print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit !bad }' crates/core/src/*.rs; then
  echo "  the dispatch path builds a throw-away list: walk the queues in place, refill the lane's table"
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
