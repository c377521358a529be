#!/usr/bin/env bash
# Cluster federation gate: worker invariance, baseline, chaos, watchdog.
source "$(dirname "$0")/../lib.sh"
build
# The same spec on one worker and on four, fresh caches: the merged
# per-cell ClusterReports — and with them the manifest — must be
# byte-identical (the federation invariant).
lab_gate "$BIN" cluster BENCH_cluster.json 4

# Partition-fault chaos smoke: per-node oracle, deterministic.
twice_cmp "$T/c.json" "$BIN" cluster --nodes 4 --dispatcher least-loaded --cpus 2 --rooms 4 \
  --users 4 --messages 3 --sched elsc --quiet --faults light --fault-seed 7 --oracle --report-json
grep -q '"kind":"cluster"' "$T/c.json"

# node_pause=1 pushes every pending event past every barrier, so no node
# dispatches and only the federation's barrier watchdog can end the run:
# exit 1 naming the watchdog, inside the timeout.
expect_exit 1 watchdog timeout 120 "$BIN" cluster --nodes 2 --cpus 2 --rooms 1 --users 2 \
  --messages 1 --sched elsc --faults node_pause=1
