# Shared by ci/jobs/*.sh and ci/identity.sh; source it. Each check takes
# the binary it drives as an argument and reads no environment. Scratch
# files go to $T, removed on exit; manifests land as ./*-manifest.json.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
T=$(mktemp -d)
trap 'rm -rf "$T"' EXIT
BIN=target/release/elsc-sim

# The workspace has no external dependencies: every build is offline.
build() { cargo build --release --offline -p elsc-cli "$@"; }

# same_bytes A B: "same bytes" for this repo. A and B are identical apart
# from "wall_ratio", the one host-timed field a manifest carries.
same_bytes() {
  cmp -s <(sed -E 's/"wall_ratio":[0-9.eE+-]+//g' "$1") \
    <(sed -E 's/"wall_ratio":[0-9.eE+-]+//g' "$2")
}

# lab_gate BIN SPEC BASELINE [WORKERS]: a cold sweep into a fresh cache
# writes SPEC-manifest.json; a warm re-sweep must equal it byte for byte
# (given WORKERS: a cold sweep on 1 worker, then one on WORKERS); it must
# be BASELINE's bytes; and `lab compare` keeps the 2x wall_ratio gate and
# names any metric that moved.
lab_gate() {
  local bin=$1 spec=$2 base=$3 m=$2-manifest.json c
  c=$(mktemp -d -p "$T")
  local cold=(--cache-dir "$c/a") again=(--cache-dir "$c/a")
  if test $# -gt 3; then cold+=(--workers 1) again=(--cache-dir "$c/b" --workers "$4"); fi
  "$bin" lab sweep --spec "$spec" "${cold[@]}" --out "$m"
  "$bin" lab sweep --spec "$spec" "${again[@]}" --out "$c/again.json"
  cmp "$m" "$c/again.json"
  same_bytes "$m" "$base" || { echo "$m is not the bytes of $base"; return 1; }
  "$bin" lab compare --manifest "$m" --baseline "$base"
}

# twice_cmp OUT CMD…: runs CMD with OUT, then OUT.2, as its last
# argument; the two files must be byte-identical. OUT stays for greps.
twice_cmp() {
  local out=$1
  shift
  "$@" "$out"
  "$@" "$out.2"
  cmp "$out" "$out.2"
}

# expect_exit CODE PATTERN CMD…: CMD exits CODE and its output matches
# PATTERN (a panic exits 101, never the code asked for).
expect_exit() {
  local want=$1 pat=$2 rc=0 out
  shift 2
  out=$("$@" 2>&1) || rc=$?
  if test "$rc" -eq "$want" && grep -q -- "$pat" <<<"$out"; then return; fi
  printf 'exit %s (want %s matching /%s/): %s\n%s\n' "$rc" "$want" "$pat" "$*" "$out"
  return 1
}

# matrix BIN OUT: the canonical CLI matrix, run inside OUT so no output
# names a directory. Run N writes N.out, N.err, N.rc, N.json (N.json.S
# per scheduler S when several) and, in plain mode, the trace N.jsonl.
matrix() (
  local bin n=0 d r m nodes disp f root=$PWD
  bin=$(realpath "$1")
  mkdir -p "$2"
  cd "$2"
  one() {
    local rc=0
    "$bin" "$@" --report-json "$n.json" >"$n.out" 2>"$n.err" || rc=$?
    echo "$rc" >"$n.rc"
    n=$((n + 1))
  }
  local runs=("volano --rooms 2 --users 4 --messages 3 --up"
    "volano --rooms 2 --users 4 --messages 3 --cpus 2"
    "stress --tasks 16 --rounds 4 --cpus 4"
    "httpd --clients 16 --workers 4 --requests 3 --cpus 2")
  local modes=(plain --oracle "--faults heavy --fault-seed 42 --oracle")
  # shellcheck disable=SC2086  # runs and modes are word lists
  for d in reg elsc mq bubble "policy:$root/policies/table.pol" \
    "learned:$root/models/volano-mlp.model"; do
    for r in "${runs[@]}"; do
      # bubble runs on a NUMA tree in place of the run's flat shape
      test "$d" != bubble || r="${r% --*} --topology 2N2C1T"
      for m in "${modes[@]}"; do
        if test "$m" = plain; then one $r --sched "$d" --trace-out "$n.jsonl"; else one $r --sched "$d" $m; fi
      done
    done
  done
  # shellcheck disable=SC2086
  for nodes in 1 4; do for disp in least-loaded consistent-hash; do
    for f in "" "--faults light --fault-seed 7"; do
      one cluster --nodes $nodes --dispatcher $disp --cpus 2 --rooms 4 --users 4 \
        --messages 3 --sched reg,elsc --oracle $f
    done
  done; done
)
