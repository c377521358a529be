#!/usr/bin/env bash
# Second-copy audits: every mechanism the repo has folded into one place
# stays in one place. Pure grep over the checked-out tree — no build, no
# network: `bash ci/audit.sh` from anywhere. CI's lint job calls it.
#
# One row per rule:   LO HI TEXT PATHS EXCEPT PATTERN
#   TEXT    whole    every line of every file under PATHS
#           shipped  each `*.rs` under PATHS up to its `#[cfg(test)]` tail,
#                    minus top-level `#[cfg(debug_assertions)]` items (the
#                    full-walk reference no release build has)
#           joined   shipped, newlines squashed (patterns that span lines)
#   PATHS   comma-separated globs; directories are walked
#   EXCEPT  regex over `path:line:` of hits that do not count, or `-`
#   PATTERN extended regex, to the end of the line
# The rule holds when LO <= hits <= HI (`-` = unbounded). A `1 1` or `1 -`
# row doubles as the staleness check of the `0 0` rows beside it: if the
# pattern matches nothing even at home, the audit has rotted, not the code.
set -u
cd "$(dirname "${BASH_SOURCE[0]}")/.."

rules() {
  cat <<'EOF'
# -- Native schedulers are constructed in one place, the lab registry
# (`lab::SchedId::build`); outside their own crate nothing calls these.
0 0 whole   crates/*/src  ^crates/(sched-ext/|lab/src/cell\.rs:)  (MultiQueue|Bubble|AffinityHeap|Heap)Scheduler::new

# -- One schedule() skeleton: what is not selection lives in
# `sched-api/src/frame.rs` only, and no design keeps a private scan.
0 0 shipped crates/*/src  ^crates/sched-api/src/frame\.rs:  recalc_entries \+= 1
1 - shipped crates/sched-api/src/frame.rs  -  recalc_entries \+= 1
0 0 shipped crates/*/src  ^crates/sched-api/src/frame\.rs:  charge[_a-z]*\(.*CostKind::SchedBase
1 - shipped crates/sched-api/src/frame.rs  -  charge[_a-z]*\(.*CostKind::SchedBase
0 0 shipped crates/*/src  ^crates/sched-api/src/frame\.rs:  SchedClass::Rr &&
1 - shipped crates/sched-api/src/frame.rs  -  SchedClass::Rr &&
0 0 shipped crates/*/src  -  fn (scan_queue|native_scan)\b

# -- One do_schedule pipeline: one `SchedCtx` literal and one lock-domain
# dance (both in `Machine::sched_call`), one task-table snapshot, one
# supervision record instead of the policy/learned twins.
1 1 shipped crates/machine/src  -  SchedCtx \{
1 1 shipped crates/machine/src  -  LockDomains::new\(
1 1 shipped crates/machine/src  -  TaskSnap::of
0 0 shipped crates/machine/src  -  struct (PolicyRun|LearnedRun)\b|fn eject_(policy|learned)\b

# -- Observers follow the change log: no full invariant walk and no
# task-table iteration per decision; the walk survives as the debug-build
# reference the incremental path is asserted equal to.
0 0 shipped crates/machine/src  -  check_task_invariants\(
0 0 joined  crates/machine/src/observe.rs  -  tasks[[:space:]]*\.iter(_mut)?\(\)
1 - whole   crates/machine/src/observe.rs  -  check_task_invariants\(
1 - shipped crates/machine/src/observe.rs  -  drain_touched

# -- The exchange follows the nodes' pipe change logs: no shipped walk over
# every bridge; the walk survives as the debug-build reference each
# exchange is asserted against.
0 0 joined  crates/cluster/src/federation.rs  -  in[[:space:]]+&(mut[[:space:]]+)?self\.bridges|self\.bridges[[:space:]]*\.(iter|iter_mut|into_iter)\(
1 - shipped crates/cluster/src/federation.rs  -  drain_pipe_log

# -- One task record, one event queue: the struct-of-arrays mirror, its
# write-back guard, the lane goodness twins and the selectable-heap cargo
# feature occur nowhere; the binary heap is simcore's test-only reference.
0 0 whole   crates,tests,examples,.github,ci  ^ci/audit\.sh:  HotLanes|LaneRefs|\bTaskMut\b|lane_goodness_|assert_lanes_in_lockstep|\.lanes\(\)|heap-queue
0 0 whole   crates,tests,examples,.github,ci  ^(crates/simcore/src/events\.rs|ci/audit\.sh):  HeapEventQueue
0 0 shipped crates/simcore/src/events.rs  -  HeapEventQueue
1 - whole   crates/simcore/src/events.rs  -  HeapEventQueue

# -- One experiment path: `crates/bench` is the rig, `figure1` and one
# microbench. Its one `SchedCtx` literal is `Rig::call`; it holds no
# Criterion look-alike, reads no environment and runs no workload (every
# experiment is a lab builtin printed by `elsc-sim lab render`).
1 1 shipped crates/bench  -  SchedCtx \{
0 0 shipped crates/bench  -  harness|criterion_group|ELSC_MESSAGES|(volanomark|httpd|stress)::run\(

# -- One superinstruction: `scan.best` is the policy VM's only fused op
# (the guard, compare-update and conditional-pick fusions are gone), and
# the mega builtin takes neither its policy nor its rooms from the
# environment (a spec file names a policy cell or a larger population).
0 0 whole   crates,docs,tests,examples,.github  -  ScanFilter|GtUpdate2|PickIfNe0|scan\.filter|gt\.update2|pick\.ifne0
0 0 whole   crates,docs,tests,examples,ci,.github,README.md,DESIGN.md,EXPERIMENTS.md,CONTRIBUTING.md  -  ELSC_MEGA_(POLICY|ROOMS)
1 - whole   crates/policy/src/vm.rs  -  ScanBest

# -- One CI: the workflow runs job scripts and names no command itself;
# every check lives once, in ci/lib.sh or a ci/jobs/*.sh line.
0 0 whole   .github  -  \bcargo\b|elsc-sim
1 - whole   ci/lib.sh  -  \bcargo\b|elsc-sim
EOF
}

# `path:line:text` of the shipped lines of every `*.rs` under the paths.
shipped() {
  find "$@" -name '*.rs' 2>/dev/null | sort | while read -r f; do
    awk '/^#\[cfg\(test\)\]/ { exit }
         /^#\[cfg\(debug_assertions\)\]/ { skip = 1 }
         !skip { print FILENAME ":" FNR ":" $0 }
         skip && /^}/ { skip = 0 }' "$f"
  done
}

fail=0
while read -r lo hi text paths except pattern; do
  case "$lo" in '' | '#'*) continue ;; esac
  # shellcheck disable=SC2086  # the globs are meant to expand
  set -- ${paths//,/ }
  case "$text" in
    whole) hits=$(grep -rnIE -e "$pattern" "$@" 2>/dev/null) ;;
    shipped) hits=$(shipped "$@" | grep -E -e "^[^:]*:[0-9]+:.*($pattern)") ;;
    joined) hits=$(shipped "$@" | sed 's/^[^:]*:[0-9]*://' | tr '\n' ' ' | grep -oE -e "$pattern") ;;
    *) echo "ci/audit.sh: bad row: $lo $hi $text $paths" >&2; exit 2 ;;
  esac
  test "$except" = - || hits=$(printf '%s\n' "$hits" | grep -vE -e "$except")
  n=$(printf '%s' "$hits" | grep -c '')
  if test "$n" -lt "$lo" || { test "$hi" != - && test "$n" -gt "$hi"; }; then
    echo "audit: /$pattern/ occurs $n times in $text $paths, want $lo..$hi"
    test -z "$hits" || printf '%s\n' "$hits" | sed 's/^/    /'
    fail=1
  fi
done < <(rules)

# No machine module has grown back into a file too long to read.
for f in crates/machine/src/*.rs; do
  n=$(shipped "$f" | grep -c '')
  test "$n" -le 600 || { echo "audit: $f has $n shipped lines, limit 600"; fail=1; }
done

# The experiment binaries are lab builtins now; Figure 1 draws structures.
bins=$(ls crates/bench/src/bin)
test "$bins" = figure1.rs || { echo "audit: crates/bench/src/bin holds: $bins (want figure1.rs only)"; fail=1; }

# The workflow's matrix is the job scripts plus `identity`, no more, no fewer.
jobs=$( (cd ci/jobs && ls -- *.sh | sed 's/\.sh$//'; echo identity) | sort | xargs)
matrix=$(sed -n 's/^ *job: \[\(.*\)\]$/\1/p' .github/workflows/ci.yml | tr -d ' ' | tr ',' '\n' | sort | xargs)
test "$jobs" = "$matrix" || { echo "audit: ci.yml matrix.job is [$matrix], want [$jobs]"; fail=1; }

test "$fail" -eq 0 && echo "audit: every rule holds"
exit "$fail"
