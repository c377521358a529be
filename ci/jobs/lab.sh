#!/usr/bin/env bash
# Lab regression gate (smoke sweep vs BENCH_baseline.json) and two renders.
source "$(dirname "$0")/../lib.sh"
build
lab_gate "$BIN" smoke BENCH_baseline.json

# twice_render NAME CELLS EXECUTED: `lab render` sweeps through the cache
# exactly as `lab sweep` does, then prints the table. The cold run
# executes EXECUTED of CELLS cells, the warm one none, and both print the
# same table.
twice_render() {
  "$BIN" lab render "$1" --cache-dir "$T/cache" --out "$T/$1.json" | tee "$T/$1.cold"
  "$BIN" lab render "$1" --cache-dir "$T/cache" --out "$T/$1.json" >"$T/$1.warm"
  grep -q "$2 cells, $3 executed, $(($2 - $3)) cached" "$T/$1.cold"
  grep -q "$2 cells, 0 executed, $2 cached" "$T/$1.warm"
  cmp <(sed -n '/^====/,$p' "$T/$1.cold") <(sed -n '/^====/,$p' "$T/$1.warm")
}
twice_render figure4 16 16
grep -q "^4P " "$T/figure4.warm"

# `lab render contention` took over from `elsc-bench --bin contention`;
# the pinned rows are that binary's last printout. figure4 above already
# ran six of the 27 cells (reg and elsc on 1P/2P/4P at 20 rooms under
# their declared plan).
twice_render contention 27 21
# One processor never contends with itself: per design, the three plans
# print the same spin, acquisitions and throughput.
for sched in reg elsc mq; do
  n=$(awk -v s="$sched" '$1 == "1P" && $2 == s { print $4, $5, $6, $7 }' "$T/contention.warm" | sort -u | wc -l)
  test "$n" -eq 1 || { echo "1P $sched: $n distinct rows across plans"; exit 1; }
done
row() { awk -v s="$1" -v p="$2" '$1 == "4P" && $2 == s && $3 == p { print $4, $5, $7 }' "$T/contention.warm"; }
test "$(row mq percpu)" = "517277112 340745 22553"
test "$(row reg global)" = "7755622148 492432 13166"
