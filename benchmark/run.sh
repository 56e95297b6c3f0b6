#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]]
#   benchmark/run.sh --check-repeat
#
# With --workload, the last line on stdout is that workload's result
# object; without, every workload runs in a process of its own. Metrics
# are printed as `workload metric value unit`; files go to benchmark/out/.
# Exits non-zero if the build fails or any op fails.
set -euo pipefail

here="$(dirname "$0")"
cargo build --release --offline --locked --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/hl-benchmark" --out "$here/out" "$@"
