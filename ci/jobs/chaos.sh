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

# Plans that cannot finish or say one thing twice are refused, not run:
# every write cut short never lands (the run hung until killed), and a
# repeated class, machine or cluster, silently kept its last rate.
expect_exit 1 "short_write.*below 1" timeout 60 "$BIN" volano --sched elsc --cpus 2 --rooms 1 \
  --users 4 --messages 2 --faults short_write=1
expect_exit 1 "given twice" timeout 60 "$BIN" volano --sched elsc --cpus 2 --rooms 1 \
  --users 4 --messages 2 --faults lock_hold=0.5,lock_hold=0.9
expect_exit 1 "cluster fault class 'partition' given twice" timeout 60 "$BIN" cluster --rooms 1 \
  --users 2 --messages 1 --faults partition=0.5,partition=0.0 --sched elsc

# A manifest nested 200 000 deep is an error naming its byte offset,
# not a stack overflow that aborts the process (exit 134).
{ head -c 200000 /dev/zero | tr '\0' '['; head -c 200000 /dev/zero | tr '\0' ']'; } >"$T/deep.json"
expect_exit 1 "nesting deeper than .* at byte [0-9]" "$BIN" lab compare --manifest "$T/deep.json" \
  --baseline "$T/deep.json"

# A flag the named workload does not take is refused in the spec
# grammar's words; each of these ran without it and exited 0.
refused() { expect_exit 1 "^error: '$1' is not a parameter of workload '$2'$" "$BIN" "${@:3}"; }
refused rooms kbuild kbuild --jobs 2 --units 6 --rooms 5
refused rooms kbuild kbuild --jobs 2 --units 6 --rooms 0
refused clients stress stress --tasks 2 --rounds 1 --clients 9
refused nodes volano volano --rooms 1 --users 2 --messages 1 --nodes 3
refused dispatcher volano volano --rooms 1 --users 2 --messages 1 --dispatcher bogus
refused epoch httpd httpd --clients 2 --workers 1 --requests 1 --epoch 0

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
