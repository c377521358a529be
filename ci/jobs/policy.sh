#!/usr/bin/env bash
# Policy runtime conformance: verifier, strict oracle, watchdog, baseline.
source "$(dirname "$0")/../lib.sh"
build
# Every malformed fixture fails cleanly: exit 1 with a line:col message.
for f in policies/bad/*.pol; do
  expect_exit 1 "$f:[0-9]*:[0-9]*:" "$BIN" stress --tasks 4 --rounds 2 --quiet --sched "policy:$f"
done

# Nesting is bounded (docs/POLICY.md §1): 10 000 parentheses are one
# positioned error, and `ls` lists the file as invalid, where both used to
# overflow the stack and abort (exit 134).
mkdir "$T/deep"
{ printf 'policy p\nlists 1\nhook pick_next { let x = '; printf '(%.0s' $(seq 10000); printf 1
  printf ')%.0s' $(seq 10000); printf ' pick idle }\n'; } >"$T/deep/deep.pol"
expect_exit 1 "deep.pol:3:[0-9]*: nesting deeper than 128" "$BIN" stress --tasks 4 --rounds 2 \
  --quiet --sched "policy:$T/deep/deep.pol"
expect_exit 0 "INVALID: 3:[0-9]*: nesting deeper than 128" "$BIN" ls --policy-dir "$T/deep"

# policy:reg is held to the paper's §5 strict contract: any unexplained
# divergence from the O(n) reference scan fails (UP + 2P, 10 seeds).
for seed in 1 2 3 4 5 6 7 8 9 10; do
  for shape in --up "--cpus 2"; do
    # shellcheck disable=SC2086
    "$BIN" stress --tasks 24 --rounds 6 --seed "$seed" $shape --oracle --quiet \
      --sched policy:policies/reg.pol
  done
done

# The shipped binary links no interpreter. The tree-walking interpreter is
# the test-only `interp-reference` feature: elsc-policy's self
# dev-dependency turns it on for every test build — so the `test` job
# runs the differential suite (VM == reference on every bundled policy, a
# mutated corpus, every budget cut-off, whole machine runs) — and the v2
# resolver keeps it out of a release build, which this proves.
nm "$BIN" >"$T/symbols"
grep -q 'elsc_policy.*vm' "$T/symbols" || { echo "no policy symbols: the check proves nothing"; exit 1; }
if grep -i 'elsc_policy.*interp' "$T/symbols"; then echo "the binary links the interpreter"; exit 1; fi

# The backend knob is gone: the strict option check rejects it.
expect_exit 2 "unknown option --policy-backend" "$BIN" stress --tasks 4 --rounds 2 --quiet \
  --policy-backend vm

# The bytecode VM is fast enough to put a .pol policy beside the native
# designs at the mega builtin's 4k-task population.
printf '%s\n' 'name = mega-policy' 'workload = mega' 'sched = reg, elsc, policy:policies/reg.pol' \
  'shape = 2P' 'rooms = 50' 'users = 20' 'messages = 1' 'think = 60000000' >"$T/mega.spec"
"$BIN" lab sweep --spec-file "$T/mega.spec" --cache-dir "$T/cache" --out "$T/mega.json"
grep -q 'policy:reg' "$T/mega.json"

# The watchdog ejects starve.pol, the run completes (no oracle), and the
# ejection is deterministic.
twice_cmp "$T/starve.json" "$BIN" stress --tasks 8 --rounds 4 --cpus 2 --quiet \
  --sched policy:policies/starve.pol --report-json
grep -q '"eject_reason":"starvation"' "$T/starve.json"
grep -q '"ejected":true' "$T/starve.json"

# Native baseline beside the bundled programs. Cell ids embed the FNV
# digest of each program, so editing a bundled .pol without regenerating
# BENCH_policy.json fails here as a missing cell.
lab_gate "$BIN" policy BENCH_policy.json
