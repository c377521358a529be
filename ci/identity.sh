#!/usr/bin/env bash
# ci/identity.sh PARENT-REV: proves a change moves no output byte. Builds
# PARENT-REV (a detached worktree) and the working tree offline, each in
# its own target dir; runs this tree's canonical CLI matrix (ci/lib.sh)
# with both binaries; re-sweeps the six committed builtins cold on one
# worker with this tree's binary. One verdict line per artifact class.
# Exit 0 when every class is identical, 1 when any differs, 2 on a usage
# or build error.
test $# -eq 1 || { echo "usage: ci/identity.sh PARENT-REV" >&2; exit 2; }
source "$(dirname "${BASH_SOURCE[0]}")/lib.sh"
rev=$(git rev-parse -q --verify "$1^{commit}") || { echo "identity: no commit '$1'" >&2; exit 2; }
trap 'git worktree remove --force "$T/parent" 2>/dev/null; rm -rf "$T"' EXIT
git worktree add -q --detach "$T/parent" "$rev" || exit 2
(cd "$T/parent" && build -q --target-dir "$T/pt") || exit 2
build -q --target-dir "$T/ct" || exit 2

matrix "$T/pt/release/elsc-sim" "$T/p"
matrix "$T/ct/release/elsc-sim" "$T/c"
mkdir "$T/m"
for s in smoke policy topo cluster learn mega; do
  case $s in smoke) f=baseline ;; mega) f=engine ;; *) f=$s ;; esac
  "$T/ct/release/elsc-sim" lab sweep --spec "$s" --workers 1 --cache-dir "$T/cache-$s" \
    --out "$T/m/BENCH_$f.json" >/dev/null
done

status=0
shopt -s nullglob
# verdict CLASS A B GLOBS: compares the files either directory holds.
verdict() {
  local k=0 n=0 first='' f
  # shellcheck disable=SC2086  # GLOBS is a word list of patterns
  for f in $( { (cd "$2" && printf '%s\n' $4); (cd "$3" && printf '%s\n' $4); } | sort -uV); do
    n=$((n + 1))
    test -f "$2/$f" && test -f "$3/$f" && same_bytes "$2/$f" "$3/$f" && continue
    k=$((k + 1)) first=${first:-$f}
  done
  if test "$k" -eq 0; then
    printf '%-20s identical (%d files)\n' "$1" "$n"
  else
    printf '%-20s DIFFERS (%d/%d; first: %s)\n' "$1" "$k" "$n" "$first"
    status=1
  fi
}
echo "identity: $(git rev-parse --short "$rev") vs the working tree"
verdict manifests-fresh "$T/m" . 'BENCH_*.json'
verdict manifests-committed . "$T/parent" 'BENCH_*.json'
verdict stdout "$T/p" "$T/c" '*.out'
verdict stderr "$T/p" "$T/c" '*.err'
verdict exit "$T/p" "$T/c" '*.rc'
verdict report "$T/p" "$T/c" '*.json *.json.*'
verdict trace "$T/p" "$T/c" '*.jsonl'
exit "$status"
