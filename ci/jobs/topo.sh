#!/usr/bin/env bash
# Topology gate: every scheduler x flat/2N2C1T/2N4C2T, oracle on, and
# flat byte-identity.
source "$(dirname "$0")/../lib.sh"
build
lab_gate "$BIN" topo BENCH_topo.json

# The topology contract: a 1N{P}C1T tree must produce the same report
# JSON — to the byte — as plain --cpus P, for every native scheduler. Any
# topology bonus, migration scaling, or report field leaking into flat
# runs fails this cmp.
flat() { "$BIN" volanomark --rooms 2 --users 6 --messages 4 --quiet --sched "$@"; }
for sched in reg elsc heap aheap mq; do
  flat "$sched" --topology 1N4C1T --report-json "$T/tree.json"
  flat "$sched" --cpus 4 --report-json "$T/cpus.json"
  cmp "$T/tree.json" "$T/cpus.json"
done
