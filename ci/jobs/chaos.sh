#!/usr/bin/env bash
# Chaos sweep, fault determinism and the oracle's mutation self-test.
source "$(dirname "$0")/../lib.sh"
build
# Oracle sweep (50 cells): any unexplained divergence fails its cell.
"$BIN" lab sweep --spec chaos --cache-dir "$T/cache" --out chaos-manifest.json
test -s chaos-manifest.json

# Same fault seed, byte-identical report.
twice_cmp "$T/f.json" "$BIN" volanomark --rooms 2 --users 4 --messages 3 --sched elsc --quiet \
  --faults heavy --fault-seed 42 --oracle --report-json

# The core crate with a deliberate off-by-one in the goodness comparison,
# built into its own target dir. The oracle must reject it on *both*
# shapes: affinity slack is only granted when the expected task sits in a
# strictly lower static-goodness list, so a same-list one-point gap — the
# mutant's signature — is unexplained on SMP runs too, not just UP. The
# unmutated build stays clean on the same shapes.
build --features elsc/chaos-selftest --target-dir target/mutant
for shape in --up "--cpus 2"; do
  # shellcheck disable=SC2086
  expect_exit 1 "oracle:" target/mutant/release/elsc-sim volanomark --rooms 2 --users 4 \
    --messages 4 --sched elsc $shape --oracle --quiet
  # shellcheck disable=SC2086
  "$BIN" volanomark --rooms 2 --users 4 --messages 4 --sched elsc $shape --oracle --quiet
done
