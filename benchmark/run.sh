#!/usr/bin/env bash
# Builds the benchmark package and runs it.
#
#   benchmark/run.sh                      every workload, untraced then traced
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                         one run, as BENCHMARK.json's driver calls it
#
# Metrics go to stdout as `workload metric unit value`, check verdicts to
# stderr, everything to benchmark/out/results.json; the last stdout line of
# a one-workload run is the driver's JSON object. See README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Run from the repo root so that a relative CARGO_TARGET_DIR lands there.
cd "$here/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/reflex-benchmark" run --out-dir "$here/out" "$@"
