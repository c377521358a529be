#!/usr/bin/env bash
# Tier-1 gate: offline build and tests, observability smokes, and the two
# traced benchmark passes whose ratios CI bounds.
source "$(dirname "$0")/../lib.sh"
build
# `default-members` makes the bare command cover every crate.
cargo test -q --offline

# Two default schedulers, so one report per scheduler.
"$BIN" volanomark --rooms 2 --users 4 --messages 2 --profile --report-json "$T/out.json"
test -s "$T/out.json.reg"
test -s "$T/out.json.elsc"
twice_cmp "$T/t.jsonl" "$BIN" stress --tasks 8 --rounds 4 --quiet --sched elsc --trace-out

# traced WORKLOAD [METRIC BOUND]…: one traced benchmark pass; every rep is
# correct, none failed, and each METRIC is below its BOUND. The first such
# pass builds `benchmark/` against the workspace. Each ratio is
# instrumented / plain wall time of two runs inside one process, so the
# bounds do not depend on the runner's speed.
traced() {
  local out
  out=$(bash benchmark/run.sh --workload "$1" --seed 1592642302 --seconds 6 --trace 1 | tail -n 1)
  echo "$out"
  grep -q '"correct":true' <<<"$out"
  grep -q '"failed":0,' <<<"$out"
  shift
  while test $# -gt 0; do
    awk -v k="$1" -v max="$2" -v r="$(sed -n "s/.*\"$1\":{\"value\":\([0-9.eE+-]*\).*/\1/p" <<<"$out")" \
      'BEGIN { if (r == "" || r + 0 >= max) { print k " is " r ", not < " max; exit 1 } }'
    shift 2
  done
}
# `obs.trace_overhead_ratio` was 7.8-9.7 with the join-based JSON writer,
# 2.1-2.7 with the streaming one, 1.2-2.6 with static key fragments and
# 1.06-2.83 writing integers into a byte buffer from a digit-pair table;
# `chaos.oracle_overhead_ratio` 7.6 when every decision walked the whole
# task table twice, 3.1-3.5 on the change log, 2.5-3.3 judging the
# slot-indexed set in one pass and 1.25-2.61 reading the first pass and
# the list occupancy from a goodness index (24 passes on a host whose
# other tenants moved single runs by up to a third; the median pass read
# 1.69 and 1.97). Each bound is that last
# maximum + 20 %, and a bound is never raised: the trace's stays at 3.2.
# A dropped trace line is never acceptable.
traced volano-elsc-observed 'obs\.trace_overhead_ratio' 3.2 'chaos\.oracle_overhead_ratio' 3.2 \
  'obs\.trace_dropped' 1
# A .pol policy costs little more than native: policy:table / native elsc
# on the same cell. 2.3-3.1 while the VM copied every walked list and
# dispatched const+bin pairs per empty band; 1.2-1.5 with the live cursor,
# the empty-list exit and `bin.k` (bound 2); 0.70-1.38 over 6 passes with
# the band seek skipping empty lists natively. The bound is that last
# maximum + 20 %, the rule of the observer bounds above.
traced policy-table-10r 'policy\.overhead_ratio' 1.66

# Lock-plan override smoke.
for plan in percpu global; do
  "$BIN" stress --tasks 16 --rounds 4 --cpus 4 --sched mq --lock-plan "$plan" \
    --report-json "$T/$plan.json" --quiet
  grep -q "\"lock_plan\":\"$plan\"" "$T/$plan.json"
done
grep -q '"lock_domains":' "$T/percpu.json"

# mq, bubble, heap and aheap recalculate through the same
# `frame::recalculate` as reg and elsc, so their traces carry the
# recalc_start/recalc_end pair too.
"$BIN" volanomark --rooms 2 --users 6 --messages 4 --cpus 2 --quiet --sched mq \
  --trace-out "$T/mq.jsonl"
grep -q recalc_start "$T/mq.jsonl"
grep -q recalc_end "$T/mq.jsonl"
