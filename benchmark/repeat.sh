#!/usr/bin/env bash
# Runs the whole benchmark (end-to-end metrics, every workload) twice on
# this commit and compares the two sets of medians against the bounds in
# BENCHMARK.json. Exits non-zero when a host-time median moved by more
# than its bound, or when any sim_* value or allocs_per_io differs at all.
#
#   benchmark/repeat.sh [--seed N] [--seconds S]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
for pass in first second; do
    bash "$here/run.sh" --trace 0 "$@" >/dev/null
    mv "$here/out/results.json" "$here/out/results_$pass.json"
done
cd "$here/.."
exec "$CARGO_TARGET_DIR/release/reflex-benchmark" compare \
    "$here/out/results_first.json" "$here/out/results_second.json" BENCHMARK.json
