#!/usr/bin/env bash
# Overflow-checked release: smoke gate, 20k-task mega, oracle suites.
source "$(dirname "$0")/../lib.sh"
# Release builds wrap on integer overflow; this one panics. Cycle and
# count arithmetic at scale otherwise never runs checked. An overflow
# found here is a bug to fix, not a check to relax. Its own target dir
# leaves target/release unchecked.
RUSTFLAGS="-C overflow-checks=on" build --target-dir target/checked
bin=target/checked/release/elsc-sim
lab_gate "$bin" smoke BENCH_baseline.json

# The mega builtin's 20k-task cells (250 rooms x 20 users x 4 threads).
printf '%s\n' 'name = mega' 'workload = mega' 'sched = reg, elsc' 'shape = 2P' \
  'seed = 1592642302' 'rooms = 250' 'users = 20' 'messages = 1' 'think = 60000000' >"$T/mega.spec"
"$bin" lab sweep --spec-file "$T/mega.spec" --cache-dir "$T/cache" --out "$T/mega.json"
grep -q '"sched":"reg"' "$T/mega.json"
grep -q '"sched":"elsc"' "$T/mega.json"

# An oversized mq shape is an error, not a wrapped count.
expect_exit 1 "at most 256" "$bin" stress --tasks 900 --rounds 6 --cpus 300 --sched mq

# Debug assertions compile in the reference task-table walks that every
# judged decision's incremental snapshot and invariant check are asserted
# equal to (`machine::observe::reference`).
RUSTFLAGS="-C overflow-checks=on -C debug-assertions=on" cargo test --release --offline \
  --target-dir target/checked -p elsc-repro --test chaos --test observability
