#!/usr/bin/env bash
# Second-copy audits: every mechanism the repo has folded into one place
# stays in one place. Pure grep over the checked-out tree — no build, no
# network: `bash ci/audit.sh` from anywhere. CI's lint job calls it.
#
# One row per rule:   LO HI TEXT PATHS EXCEPT PATTERN
#   TEXT    whole    every line of every file under PATHS
#           shipped  each `*.rs` under PATHS up to its `#[cfg(test)]` tail,
#                    minus top-level `#[cfg(debug_assertions)]` items (the
#                    full-walk reference no release build has), skipping
#                    every file a `#[cfg(test)]` or `#[cfg(any(test, …))]`
#                    `mod` declaration makes test-only
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
1 1 shipped crates/machine/src  -  \.lock_home\(
1 1 shipped crates/machine/src  -  TaskSnap::of
0 0 shipped crates/machine/src  -  struct (PolicyRun|LearnedRun)\b|fn eject_(policy|learned)\b

# -- One supervision seam: the `Scheduler` trait is the paper's five
# functions plus `name`, `nr_running`, `lock_plan`, `debug_check` and the
# `supervised` accessor. What only loaded schedulers need lives on the
# `Supervised` side-trait, and the policy's violation type in elsc-policy.
0 0 shipped crates,examples  -  fn (loaded_info|take_violation|learned_info|take_prediction|prediction_stats)\b
0 0 whole   crates,tests,examples  -  \b(PolicyLoadInfo|LearnedInfo)\b
1 1 shipped crates/sched-api/src  -  pub trait Supervised\b
0 0 shipped crates/sched-api/src  -  enum PolicyViolation\b

# -- Observers follow the change log: no full invariant walk and no
# task-table iteration per decision; the walk survives as the debug-build
# reference the incremental path is asserted equal to.
0 0 shipped crates/machine/src  -  check_task_invariants\(
0 0 joined  crates/machine/src/observe.rs  -  tasks[[:space:]]*\.iter(_mut)?\(\)
1 - whole   crates/machine/src/observe.rs  -  check_task_invariants\(
1 - shipped crates/machine/src/observe.rs  -  drain_touched\(reader,

# -- reg answers its goodness scan from the index, which follows the same
# change log: no shipped walk of the run queue in the crate (the virtual
# model still charges one); the walk survives as the debug-build
# reference every reg decision is asserted against.
0 0 shipped crates/sched-linux/src  -  scan_list|schedulable\(
1 - whole   crates/sched-linux/src  -  frame::scan_list\(
1 - shipped crates/sched-linux/src/index.rs  -  drain_touched\(reader,

# -- The exchange follows the nodes' pipe change logs: no shipped walk over
# every bridge; the walk survives as the debug-build reference each
# exchange is asserted against.
0 0 joined  crates/cluster/src/federation.rs  -  in[[:space:]]+&(mut[[:space:]]+)?self\.bridges|self\.bridges[[:space:]]*\.(iter|iter_mut|into_iter)\(
1 - shipped crates/cluster/src/federation.rs  -  drain_pipe_log

# -- One run-queue lock type: `sched_api::LockModel` owns the plan, the
# per-domain busy intervals and the call's held set, and is the only
# `DomainLocker` the machine lends; the single-lock type, the per-call
# view and its scratch storage occur nowhere.
0 0 whole   crates,tests  -  SimSpinLock|LockScratch|LockDomains\b
1 - whole   crates/sched-api/src/lockplan.rs  -  pub struct LockModel\b
1 1 whole   crates,tests,examples  -  impl DomainLocker for

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
0 0 shipped crates/bench  -  harness|criterion_group|(volanomark|httpd|stress)::run\(

# -- One superinstruction: `scan.best` is the policy VM's only fused op
# (the guard, compare-update and conditional-pick fusions are gone), and
# the mega builtin takes neither its policy nor its rooms from the
# environment (a spec file names a policy cell or a larger population).
0 0 whole   crates,docs,tests,examples,.github  -  ScanFilter|GtUpdate2|PickIfNe0|scan\.filter|gt\.update2|pick\.ifne0
0 0 whole   crates,docs,tests,examples,ci,.github,README.md,DESIGN.md,EXPERIMENTS.md,CONTRIBUTING.md  -  ELSC_MEGA_(POLICY|ROOMS)
1 - whole   crates/policy/src/vm.rs  -  ScanBest

# -- One workload registry (`lab::WorkloadCell`): a workload's parameter
# names and lab defaults are spelled in `lab/src/cell.rs` only; the spec
# grammar and the CLI read them from there.
0 0 shipped crates/lab/src/spec.rs,crates/cli/src/main.rs,crates/cli/src/args.rs  -  "(jobs|units|clients|requests|tasks|rounds|burst|nodes)"
1 - shipped crates/lab/src/cell.rs  -  "(jobs|units|clients|requests|tasks|rounds|burst|nodes)"

# -- One static-goodness order: the sorted member set is defined once, in
# `sched-api/src/order.rs`; reg's index keeps no copy, and heap and aheap
# share one queue record on it (`sched-ext/src/sorted.rs`) instead of
# per-task maps, with the hooks, prologue and epilogue written there once.
# Their `BTreeMap` predecessors survive only as the test-only twins.
0 0 whole   crates  ^crates/sched-api/src/order\.rs:  struct (Member|Members)\b
0 0 whole   crates/sched-linux  -  struct (Member|Members)\b
1 - whole   crates/sched-api/src/order.rs  -  struct (Member|Members)\b
0 0 shipped crates/sched-ext/src/heap.rs,crates/sched-ext/src/affinity_heap.rs,crates/sched-ext/src/sorted.rs  -  HashMap|BTreeMap<(Tid|Key)\b
1 - whole   crates/sched-ext/tests/twins  -  HashMap|BTreeMap<(Tid|Key)\b
0 0 shipped crates/sched-ext/src/heap.rs,crates/sched-ext/src/affinity_heap.rs  -  fn (add_to|del_from|move_first|move_last)_runqueue|fn schedule\(|frame::commit
1 - shipped crates/sched-ext/src/sorted.rs  -  fn (add_to|del_from|move_first|move_last)_runqueue|fn schedule\(|frame::commit

# -- One run-queue list bank: the list half of the four run-queue
# manipulators (surgery, ListOp charges, counts, `nr_running`, each task's
# list) lives in `sched-api/src/queues.rs`, which reg, mq, bubble and the
# `.pol` host share. A bank is built there, in ELSC's table and in ktask's
# own code only; `rq_hint` is written there and in ELSC's table only; the
# policy host's side table and the 256-queue cap a one-byte `rq_hint`
# forced are gone (the staleness rows read the change log that records
# their removal).
0 0 shipped crates/*/src  ^crates/(sched-api/src/queues\.rs|core/src/|ktask/src/)  Lists::new\(
1 - shipped crates/sched-api/src/queues.rs  -  Lists::new\(
0 0 shipped crates/*/src  ^crates/(sched-api/src/queues\.rs|core/src/table\.rs):  rq_hint = [^=]
1 - shipped crates/sched-api/src/queues.rs  -  rq_hint = [^=]
0 0 whole   crates/policy/src  -  list_of|remember_list
1 - whole   CHANGES.md  -  list_of|remember_list
0 0 whole   crates,tests,examples,docs,ci,.github,benchmark,README.md,DESIGN.md,EXPERIMENTS.md,CONTRIBUTING.md  ^ci/audit\.sh:  MAX_QUEUES|fn fits\b
1 - whole   CHANGES.md  -  MAX_QUEUES|fn fits\b

# -- Every sweep is a spec file: the builtins are `specs/*.spec` and the
# paper-length runs the recipes `specs/paper/*.spec`; no environment
# variable rewrites a builtin (`benchmark/` still scrubs the two removed
# names from its children's environment; the staleness row reads the
# change log that records their removal).
0 0 whole   crates,docs,tests,examples,ci,.github,.claude,specs,README.md,DESIGN.md,EXPERIMENTS.md,CONTRIBUTING.md  ^ci/audit\.sh:  ELSC_(MESSAGES|ITERATIONS)
1 - whole   CHANGES.md  -  ELSC_(MESSAGES|ITERATIONS)

# -- One goodness: `goodness_ignoring_yield_on` over the declared
# topology (on a flat tree, the classic +15 rule). The flat twins, which
# let `policy:*` ignore the tree, occur nowhere; `order.rs`'s
# `Member::goodness` is a sort key's accessor, not a weight function.
0 0 whole   crates,tests,examples  ^crates/sched-api/src/order\.rs:  fn goodness_ignoring_yield\b|pub fn goodness\b
1 1 whole   crates  -  pub fn goodness_ignoring_yield_on\b

# -- One counter table: the 18 per-CPU counters are named once, in
# `elsc_stats::CpuStats::COUNTERS`, which the proc rendering and the JSON
# export both read.
1 1 whole   crates  -  ^ *\("idle_cycles",

# -- One CI: the workflow runs job scripts and names no command itself;
# every check lives once, in ci/lib.sh or a ci/jobs/*.sh line.
0 0 whole   .github  -  \bcargo\b|elsc-sim
1 - whole   ci/lib.sh  -  \bcargo\b|elsc-sim
EOF
}

# The files whose whole module is declared test-only: a `mod NAME;` under
# `#[cfg(test)]` or `#[cfg(any(test, …))]`, other attributes (a `#[path]`
# among them) allowed between. The declarations say which files these
# are, so a new test-only module needs no edit here.
test_only() {
  find crates src -name '*.rs' 2>/dev/null | sort | while read -r f; do
    awk -v f="$f" '
      BEGIN {
        dir = f
        if (f ~ /\/(lib|main|mod)\.rs$/) sub(/\/[^\/]*$/, "", dir); else sub(/\.rs$/, "", dir)
      }
      /^[[:space:]]*#\[cfg\((any\()?test[,)]/ { armed = 1; path = ""; next }
      armed && /^[[:space:]]*#\[path = "/ { path = $0; sub(/^[^"]*"/, "", path); sub(/".*/, "", path); next }
      armed && /^[[:space:]]*#\[/ { next }
      armed && /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/ {
        name = $0; sub(/^.*mod /, "", name); sub(/;.*/, "", name)
        if (path != "") print dir "/" path; else print dir "/" name ".rs\n" dir "/" name "/mod.rs"
      }
      { armed = 0 }' "$f"
  done
}
test_only_files=$(test_only)

# `path:line:text` of the shipped lines of every `*.rs` under the paths.
shipped() {
  find "$@" -name '*.rs' 2>/dev/null | sort | grep -vxF -e "$test_only_files" | while read -r f; do
    awk '/^#\[cfg\(test\)\]/ { exit }
         /^#\[cfg\(debug_assertions\)\]/ { skip = 1 }
         !skip { print FILENAME ":" FNR ":" $0 }
         skip && /^}/ { skip = 0 }' "$f"
  done
}

# The shipped-lines ledger: each crate's shipped lines under `crates/*/src`
# and their total, the figures ci/shipped-lines.txt records.
ledger() {
  for d in crates/*/src; do
    printf '%-20s %6d\n' "${d%/src}" "$(shipped "$d" | grep -c '')"
  done | awk '{ print; n += $2 } END { printf "%-20s %6d\n", "total", n }'
}
if test "${1:-}" = --ledger; then ledger; exit 0; fi

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

# Shipped lines per crate, against the committed ledger: a change that
# moves a total re-records it (`bash ci/audit.sh --ledger >
# ci/shipped-lines.txt`) and gives the reason in CHANGES.md.
now=$(ledger)
printf '%s\n' "$now" | sed 's/^/shipped /'
if ! printf '%s\n' "$now" | cmp -s - ci/shipped-lines.txt; then
  echo "audit: shipped lines differ from ci/shipped-lines.txt:"
  printf '%s\n' "$now" | awk 'NR == FNR { was[$1] = $2; next }
    $2 != was[$1] { printf "    %-20s %6d -> %6d (%+d)\n", $1, was[$1], $2, $2 - was[$1] }' \
    ci/shipped-lines.txt -
  fail=1
fi

test "$fail" -eq 0 && echo "audit: every rule holds"
exit "$fail"
