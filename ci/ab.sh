#!/usr/bin/env bash
# ci/ab.sh [--seed N] [--seconds S] PARENT-REV WORKLOAD PAIRS
#   Host-time A/B of the working tree against PARENT-REV on one benchmark
#   workload. Both sides are built from clean `git archive` copies at
#   equal-length paths (the working tree is archived from a tree object
#   written through a scratch index, untracked files included, so neither
#   build sees this checkout's target/ or benchmark/Cargo.lock), with
#   RUSTFLAGS="-C llvm-args=-align-all-functions=6" so code layout moves
#   no function across a cache line by accident. It then runs PAIRS pairs
#   of `benchmark/run.sh --workload WORKLOAD --seed N --seconds S
#   --trace 0`, the first side flipping every pair, and prints per
#   end-to-end metric the medians, IQRs, k/n (pairs the change won),
#   the two-sided sign-test p and a verdict: better, worse or
#   unresolved. Better (worse) needs p < 0.05 in that direction and a
#   median gap wider than the parent's IQR. One JSON record with both
#   revisions, `nproc` and every sample is appended to BENCH_host.jsonl.
#   Defaults: --seed 1592642302 --seconds 6.
# ci/ab.sh --selftest
#   Checks the statistics on synthetic samples (no build); ci/jobs/lint.sh
#   runs it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# stats BETTER PARENT CHANGE: BETTER is lower|higher; PARENT and CHANGE are
# space-separated samples, paired by position. Prints one line:
#   parent_median parent_q1 parent_q3 change_median change_q1 change_q3 k n p verdict
# Quartiles interpolate linearly between order statistics; tied pairs
# leave the sign test (n counts the untied ones).
stats() {
  awk -v better="$1" -v ps="$2" -v cs="$3" '
    function sort(a, n,   i, j, t) {
      for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
    }
    function q(a, n, f,   h, l) { h = (n - 1) * f + 1; l = int(h); return l >= n ? a[n] : a[l] + (h - l) * (a[l + 1] - a[l]) }
    function binom(n, k,   i, c) { c = 1; for (i = 1; i <= k; i++) c = c * (n - k + i) / i; return c }
    BEGIN {
      np = split(ps, p, " "); nc = split(cs, c, " ")
      if (np != nc || np == 0) { print "stats: unpaired samples" > "/dev/stderr"; exit 2 }
      k = 0; n = 0
      for (i = 1; i <= np; i++) {
        if (p[i] == c[i]) continue
        n++
        if ((better == "lower") == (c[i] < p[i])) k++
      }
      # Two-sided sign test: twice the tail beyond the larger side.
      m = k > n - k ? k : n - k; tail = 0
      for (i = m; i <= n; i++) tail += binom(n, i)
      pv = n == 0 ? 1 : 2 * tail / 2 ^ n; if (pv > 1) pv = 1
      for (i = 1; i <= np; i++) { sp[i] = p[i]; sc[i] = c[i] }
      sort(sp, np); sort(sc, nc)
      pm = q(sp, np, 0.5); p1 = q(sp, np, 0.25); p3 = q(sp, np, 0.75)
      cm = q(sc, nc, 0.5); c1 = q(sc, nc, 0.25); c3 = q(sc, nc, 0.75)
      gap = cm - pm; if (gap < 0) gap = -gap
      won = (better == "lower") == (cm < pm)
      verdict = "unresolved"
      if (pv < 0.05 && gap > p3 - p1 && cm != pm) verdict = (won && k > n - k) ? "better" : (!won && k < n - k) ? "worse" : "unresolved"
      printf "%.6g %.6g %.6g %.6g %.6g %.6g %d %d %.4g %s\n", pm, p1, p3, cm, c1, c3, k, n, pv, verdict
    }'
}

selftest() {
  local fails=0
  check() {
    local got
    got=$(stats "$2" "$3" "$4")
    if test "$got" != "$5"; then echo "selftest $1: got '$got', want '$5'"; fails=$((fails + 1)); fi
  }
  local ten='2.0 2.1 2.2 2.3 2.4 2.5 2.6 2.7 2.8 2.9'
  # All ten pairs faster by 1: p = 2/1024, gap 1 > IQR 0.45.
  check faster lower "$ten" '1.0 1.1 1.2 1.3 1.4 1.5 1.6 1.7 1.8 1.9' \
    '2.45 2.225 2.675 1.45 1.225 1.675 10 10 0.001953 better'
  # Identical samples: every pair tied, nothing to test.
  check ties lower "$ten" "$ten" '2.45 2.225 2.675 2.45 2.225 2.675 0 0 1 unresolved'
  # 8 of 10: p = 2 * 56/1024 = 0.1094, not resolved however large the gap.
  check eight lower "$ten" '1.0 1.1 1.2 1.3 1.4 1.5 1.6 1.7 3.8 3.9' \
    '2.45 2.225 2.675 1.45 1.225 1.675 8 10 0.1094 unresolved'
  # 9 of 10 (p = 0.02148) but a gap inside the parent's IQR.
  check narrow lower "$ten" '1.99 2.09 2.19 2.29 2.39 2.49 2.59 2.69 2.79 3.0' \
    '2.45 2.225 2.675 2.44 2.215 2.665 9 10 0.02148 unresolved'
  # A higher-is-better metric that fell on every pair.
  check slower higher '10 11 12 13 14 15' '5 6 7 8 9 10' \
    '12.5 11.25 13.75 7.5 6.25 8.75 0 6 0.03125 worse'
  # Odd count, unsorted input: the median is the middle order statistic.
  check odd lower '3 1 2 5 4' '2 0 1 4 3' '3 2 4 2 1 3 5 5 0.0625 unresolved'
  test "$fails" -eq 0 || exit 1
  echo "ab.sh selftest: ok"
}

usage() { echo "usage: ci/ab.sh [--seed N] [--seconds S] PARENT-REV WORKLOAD PAIRS | --selftest" >&2; exit 2; }

seed=1592642302 seconds=6 pos=()
while test $# -gt 0; do
  case $1 in
    --selftest) selftest; exit ;;
    --seed) seed=${2:-}; shift 2 || usage ;;
    --seconds) seconds=${2:-}; shift 2 || usage ;;
    -*) usage ;;
    *) pos+=("$1"); shift ;;
  esac
done
test ${#pos[@]} -eq 3 || usage
workload=${pos[1]} pairs=${pos[2]}
[[ $pairs =~ ^[1-9][0-9]?$ ]] || { echo "ab: PAIRS must be 1..99, not '$pairs'" >&2; exit 2; }
[[ $seed =~ ^[0-9]+$ ]] || { echo "ab: --seed must be a whole number" >&2; exit 2; }
[[ $seconds =~ ^[0-9]+(\.[0-9]+)?$ ]] || { echo "ab: --seconds must be a positive number" >&2; exit 2; }
parent=$(git rev-parse -q --verify "${pos[0]}^{commit}") || { echo "ab: no commit '${pos[0]}'" >&2; exit 2; }
head=$(git rev-parse HEAD)

T=$(mktemp -d)
trap 'rm -rf "$T"' EXIT
# The working tree as a tree object: HEAD's index plus every change and
# every untracked file that .gitignore does not exclude.
GIT_INDEX_FILE=$T/index git read-tree HEAD
GIT_INDEX_FILE=$T/index git add -A
tree=$(GIT_INDEX_FILE=$T/index git write-tree)
export RUSTFLAGS="-C llvm-args=-align-all-functions=6"
for side in p c; do
  mkdir "$T/$side"
  if test $side = p; then git archive "$parent" | tar -x -C "$T/p"; else git archive "$tree" | tar -x -C "$T/c"; fi
  echo "ab: building $side" >&2
  CARGO_TARGET_DIR="$T/$side/target" bash "$T/$side/benchmark/run.sh" --glossary >/dev/null
done

metrics=(wall_s decisions_per_s setup_s peak_rss_mb)
declare -A samples=()
run() {
  local out m v
  out=$(CARGO_TARGET_DIR="$T/$1/target" bash "$T/$1/benchmark/run.sh" --workload "$workload" \
    --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
  grep -q '"correct":true' <<<"$out" && grep -q '"failed":0,' <<<"$out" ||
    { echo "ab: a $1 run failed: $out" >&2; exit 1; }
  for m in "${metrics[@]}"; do
    v=$(sed -n "s/.*\"$m\":{\"value\":\([0-9.eE+-]*\).*/\1/p" <<<"$out")
    samples[$1.$m]+="${samples[$1.$m]:+ }$v"
  done
  printf '  %s %s' "$1" "$(sed -n 's/.*"wall_s":{"value":\([0-9.eE+-]*\).*/\1/p' <<<"$out")" >&2
}
for i in $(seq "$pairs"); do
  printf 'ab: pair %d/%d' "$i" "$pairs" >&2
  if test $((i % 2)) -eq 1; then run p; run c; else run c; run p; fi
  echo >&2
done

echo "ab: $workload, seed $seed, ${seconds} s runs, $pairs pairs, $(git rev-parse --short "$parent") -> working tree $tree"
printf '%-16s %-30s %-30s %8s %6s %8s %s\n' metric 'parent median (q1-q3)' 'change median (q1-q3)' delta k/n p verdict
json=""
for m in "${metrics[@]}"; do
  better=lower
  test "$m" = decisions_per_s && better=higher
  read -r pm p1 p3 cm c1 c3 k n pv verdict < <(stats "$better" "${samples[p.$m]}" "${samples[c.$m]}")
  delta=$(awk -v a="$pm" -v b="$cm" 'BEGIN { printf "%+.1f%%", a == 0 ? 0 : 100 * (b - a) / a }')
  printf '%-16s %-30s %-30s %8s %6s %8s %s\n' "$m" "$pm ($p1-$p3)" "$cm ($c1-$c3)" "$delta" "$k/$n" "$pv" "$verdict"
  json+="${json:+,}\"$m\":{\"better\":\"$better\",\"parent\":[${samples[p.$m]// /,}],\"change\":[${samples[c.$m]// /,}],"
  json+="\"median\":[$pm,$cm],\"iqr\":[[$p1,$p3],[$c1,$c3]],\"k\":$k,\"n\":$n,\"p\":$pv,\"verdict\":\"$verdict\"}"
done
printf '{"workload":"%s","seed":%s,"seconds":%s,"pairs":%s,"parent":"%s","change":{"head":"%s","tree":"%s"},"nproc":%s,"rustflags":"%s","date":"%s","metrics":{%s}}\n' \
  "$workload" "$seed" "$seconds" "$pairs" "$parent" "$head" "$tree" "$(nproc)" "$RUSTFLAGS" \
  "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$json" >>BENCH_host.jsonl
echo "ab: appended a record to BENCH_host.jsonl"
