#!/usr/bin/env bash
# The one command of the benchmark: builds the harness (release, offline)
# and hands it the arguments.
#
#   benchmark/run.sh [--seed N] [--reps R] [--trace]     every workload, every metric
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                         one workload; last line is the result JSON
#   benchmark/run.sh --write-expected | --selftest-slowdown | --check-repeat | --glossary
#
# Builds into $CARGO_TARGET_DIR when set (relative to the caller's
# directory, as cargo reads it), else into benchmark/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Quiet on success; cargo's own diagnostics on failure. Nothing is printed
# to stdout before the harness runs, so a failed build prints no result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/elsc-benchmark" --dir "$here" "$@"
