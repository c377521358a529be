#!/usr/bin/env bash
# Format, clippy and rustdoc with warnings denied, then the second-copy audits.
source "$(dirname "$0")/../lib.sh"
cargo fmt --all --check
cargo clippy --workspace --all-targets --offline -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
# Table-driven and offline. Each mechanism that was folded into one
# place — scheduler construction, the `schedule()` skeleton, the machine's
# `sched_call`, the observers' change log, the task record and event
# queue, `crates/bench` as rig + `figure1` + one microbench, and this CI
# as job scripts — has a row that fails when a second copy comes back.
bash ci/audit.sh
# The A/B runner's statistics (median, IQR, sign test, verdict) on
# synthetic samples; the runner itself builds and times, so CI only checks
# its arithmetic.
bash ci/ab.sh --selftest
