//! Differential fuzzing: the bytecode VM versus the reference
//! interpreter (built for every test run by the crate's self
//! dev-dependency with `interp-reference`, so tier-1 runs this file).
//!
//! The contract under test: **every** verified `.pol` program produces
//! identical decisions *and* identical `PolicyInsn`-equivalent budget
//! outcomes on the VM and on the reference — same picks, same violations (including the exact `insns` value at a
//! budget blowout), same examined-task counts, same virtual cycles.
//! The corpus is the bundled policies plus verifier-accepted mutants of
//! them (the PR 5 mutation corpus, regenerated deterministically from
//! the simulator's own [`SimRng`]), driven through a perturbed
//! scheduling scenario at both a generous and a deliberately tight
//! budget so mid-hook aborts are exercised on both sides. Two whole
//! machine runs close the file: full-report byte equality, and an
//! identical watchdog ejection.

use std::fs;
use std::path::PathBuf;

use elsc_ktask::{CpuId, MmId, TaskSpec, TaskState, TaskTable, Tid};
use elsc_machine::behavior::Script;
use elsc_machine::{Machine, MachineConfig, Op, RunReport};
use elsc_netsim::Msg;
use elsc_policy::{load_str, HookKind, PolicyScheduler, Program, DEFAULT_BUDGET};
use elsc_sched_api::{SchedConfig, SchedCtx, Scheduler, Supervised, Verdict};
use elsc_simcore::{CostModel, CycleMeter, SimRng};
use elsc_stats::SchedStats;

fn policies_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../policies")
}

fn read_corpus() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = fs::read_dir(policies_dir())
        .expect("policies dir")
        .filter_map(|e| {
            let p = e.ok()?.path();
            if p.extension().is_some_and(|x| x == "pol") {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                Some((name, fs::read_to_string(&p).expect("readable corpus file")))
            } else {
                None
            }
        })
        .collect();
    out.sort();
    out
}

fn below(rng: &mut SimRng, n: usize) -> usize {
    rng.below(n as u64) as usize
}

/// One executor's full observable trace of a driven scenario.
#[derive(Debug, PartialEq)]
struct Trace {
    picks: Vec<usize>,
    violations: Vec<Option<&'static str>>,
    insns: u64,
    tasks_examined: u64,
    recalc_entries: u64,
    idle_scheduled: u64,
    cycles: u64,
}

/// `prog` on the VM, or on the reference interpreter.
fn scheduler(prog: &Program, nr_cpus: usize, reference: bool) -> PolicyScheduler {
    let sched = PolicyScheduler::new(prog.clone(), nr_cpus).expect("verified programs compile");
    if reference {
        sched.into_reference()
    } else {
        sched
    }
}

/// Drives `prog` through a deterministic perturbed scenario (blocking,
/// waking, yields, ticks) and records everything the machine could
/// observe.
fn drive(prog: &Program, reference: bool, budget: u64, steps: u32) -> Trace {
    let cfg = SchedConfig::up();
    let mut sched = scheduler(prog, cfg.nr_cpus, reference).with_budget(budget);
    let mut tasks = TaskTable::new();
    let mut stats = SchedStats::new(cfg.nr_cpus);
    let mut meter = CycleMeter::new();
    let costs = CostModel::default();
    let idle = tasks.spawn(&TaskSpec::named("idle").priority(1));
    tasks.task_mut(idle).counter = 0;
    tasks.task_mut(idle).has_cpu = true;

    let with = |sched: &mut PolicyScheduler,
                tasks: &mut TaskTable,
                stats: &mut SchedStats,
                meter: &mut CycleMeter,
                f: &mut dyn FnMut(&mut PolicyScheduler, &mut SchedCtx<'_>) -> Tid|
     -> Tid {
        let mut ctx = SchedCtx {
            tasks,
            stats,
            meter,
            costs: &costs,
            cfg: &cfg,
            probe: None,
            locks: None,
        };
        f(sched, &mut ctx)
    };

    let mut workers = Vec::new();
    for name in ["a", "b", "c"] {
        let tid = tasks.spawn(&TaskSpec::named(name));
        with(
            &mut sched,
            &mut tasks,
            &mut stats,
            &mut meter,
            &mut |s, ctx| {
                s.add_to_runqueue(ctx, tid);
                tid
            },
        );
        workers.push(tid);
    }

    let mut picks = Vec::new();
    let mut violations = Vec::new();
    let mut current = idle;
    for step in 0..steps {
        let r = u64::from(step)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407)
            >> 33;
        match r % 13 {
            0 => {
                if workers.contains(&current) {
                    tasks.task_mut(current).state = TaskState::Interruptible;
                }
            }
            1 => {
                for &t in &workers {
                    if tasks.task(t).state == TaskState::Interruptible {
                        tasks.task_mut(t).state = TaskState::Running;
                        with(
                            &mut sched,
                            &mut tasks,
                            &mut stats,
                            &mut meter,
                            &mut |s, ctx| {
                                s.add_to_runqueue(ctx, t);
                                t
                            },
                        );
                        break;
                    }
                }
            }
            2 => {
                if workers.contains(&current) {
                    tasks.task_mut(current).policy.yielded = true;
                }
            }
            3 => {
                let cur = current;
                with(
                    &mut sched,
                    &mut tasks,
                    &mut stats,
                    &mut meter,
                    &mut |s, ctx| {
                        s.on_tick(ctx, 0 as CpuId, cur);
                        cur
                    },
                );
            }
            _ => {
                if workers.contains(&current) && tasks.task(current).counter > 0 {
                    tasks.task_mut(current).counter -= 1;
                }
            }
        }
        let prev = current;
        current = with(
            &mut sched,
            &mut tasks,
            &mut stats,
            &mut meter,
            &mut |s, ctx| s.schedule(ctx, 0, prev, idle),
        );
        picks.push(current.index());
        violations.push(match sched.take_verdict() {
            Verdict::Broken(label) => Some(label),
            _ => None,
        });
    }
    let s = stats.cpu(0);
    Trace {
        picks,
        violations,
        insns: sched.counters()[0],
        tasks_examined: s.tasks_examined,
        recalc_entries: s.recalc_entries,
        idle_scheduled: s.idle_scheduled,
        cycles: meter.take(),
    }
}

fn assert_vm_matches_reference(name: &str, prog: &Program, budget: u64, steps: u32) {
    let vm = drive(prog, false, budget, steps);
    let interp = drive(prog, true, budget, steps);
    assert_eq!(vm, interp, "{name}: VM diverged at budget {budget}");
}

#[test]
fn bundled_policies_match_the_reference_at_generous_and_tight_budgets() {
    for (name, src) in &read_corpus() {
        let prog = load_str(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        for budget in [DEFAULT_BUDGET, 96, 7] {
            assert_vm_matches_reference(name, &prog, budget, 120);
        }
    }
}

#[test]
fn verifier_accepted_mutants_match_the_reference() {
    let corpus = read_corpus();
    let mut rng = SimRng::new(0x00D1_FFE2_E4C1_A11E);
    for (name, src) in &corpus {
        let mut accepted = 0u32;
        let mut attempts = 0u32;
        while accepted < 40 && attempts < 4000 {
            attempts += 1;
            let mut s: Vec<char> = src.chars().collect();
            match below(&mut rng, 4) {
                0 => {
                    let i = below(&mut rng, s.len());
                    s.remove(i);
                }
                1 => {
                    let i = below(&mut rng, s.len());
                    let j = below(&mut rng, s.len());
                    s.swap(i, j);
                }
                2 => s.truncate(below(&mut rng, s.len())),
                _ => {
                    let i = below(&mut rng, s.len());
                    let j = i + below(&mut rng, s.len() - i);
                    let dup: Vec<char> = s[i..j].to_vec();
                    s.extend(dup);
                }
            }
            let mutated: String = s.into_iter().collect();
            let Ok(prog) = load_str(&mutated) else {
                continue;
            };
            accepted += 1;
            // A tightish budget so some mutants abort mid-hook: the
            // violation (and its exact insns) must match too.
            let budget = [DEFAULT_BUDGET, 128][(accepted % 2) as usize];
            let label = format!("{name} mutant #{accepted}");
            assert_vm_matches_reference(&label, &prog, budget, 60);
        }
        assert!(
            accepted >= 10,
            "{name}: mutation should yield verifier-accepted variants (got {accepted})"
        );
    }
}

/// Budget-exhaustion mid-hook on the VM path: the decision aborts, the
/// host substitutes its safe fallback, and the recorded violation is
/// byte-identical to the interpreter's.
#[test]
fn vm_budget_exhaustion_mid_hook_matches_interp_exactly() {
    let src = "policy hog\nlists 1\nhook pick_next {\n\
               let acc = 0\n\
               repeat 512 { acc = acc + counter(prev) }\n\
               pick idle }";
    let prog = load_str(src).unwrap();
    for budget in 1..=64u64 {
        assert_vm_matches_reference("hog", &prog, budget, 24);
    }
}

/// Programs aimed at the VM's own paths — the live `foreach` cursor, the
/// empty-list exit of `for.begin`, and `bin.k` — each held to the
/// reference at the generous budget and at every budget from 1 to 96,
/// so aborts land inside each of them.
const VM_PATH_PROGRAMS: [(&str, &str); 4] = [
    (
        // Effects mid-walk, then `break`: `set_counter` (tick) and
        // `recalc()` (pick_next) write task fields while a cursor sits
        // on the list; neither may move it.
        "mid-walk effects",
        "policy midwalk\nlists 2\n\
         hook enqueue { enqueue_back(counter(task) % 2) }\n\
         hook tick {\n\
           foreach t in list(0) {\n\
             set_counter(t, counter(t) - 3)\n\
             if counter(t) < 5 { break }\n\
           }\n\
         }\n\
         hook pick_next {\n\
           foreach t in list(0) {\n\
             if counter(t) == 0 { recalc() break }\n\
             requeue_back(t)\n\
           }\n\
           foreach t in list(0) { if can_schedule(t) { pick t } }\n\
           foreach t in list(1) { if can_schedule(t) { requeue_back(t) pick t } }\n\
           if runnable(prev) { pick prev }\n\
           pick idle\n\
         }\n",
    ),
    (
        // Two cursors on one list at once, the inner one broken out of.
        "nested walks",
        "policy nested\nlists 1\n\
         hook enqueue { enqueue_back(0) }\n\
         hook pick_next {\n\
           let best = nil\n\
           let n = 0\n\
           foreach a in list(0) {\n\
             foreach b in list(0) {\n\
               if counter(b) > counter(a) { n = n + 1 }\n\
               if n > 4 { break }\n\
             }\n\
             if can_schedule(a) { if n % 2 == 0 { best = a } }\n\
           }\n\
           if best != nil { requeue_back(best) pick best }\n\
           if runnable(prev) { pick prev }\n\
           pick idle\n\
         }\n",
    ),
    (
        // Mostly empty lists: every band but 3 exits at `for.begin`,
        // including inside a non-empty outer walk.
        "empty lists",
        "policy empties\nlists 8\n\
         hook enqueue { enqueue_back(3) }\n\
         hook pick_next {\n\
           let i = 0\n\
           let found = nil\n\
           repeat 8 {\n\
             foreach t in list(i) {\n\
               foreach u in list(i + 1) { found = u }\n\
               if can_schedule(t) { found = t  break }\n\
             }\n\
             i = i + 1\n\
           }\n\
           foreach t in list(7) { pick t }\n\
           if found != nil { requeue_back(found) pick found }\n\
           pick idle\n\
         }\n",
    ),
    (
        // A literal right operand for every binary operator, `/ 0` and
        // `% 0` included, in all three hooks that compute.
        "literal operands",
        "policy literals\nlists 4\n\
         hook enqueue {\n\
           let c = counter(task)\n\
           enqueue_back((c + 1) * 3 / 2 % 4 - 1)\n\
         }\n\
         hook tick {\n\
           let c = counter(task)\n\
           set_counter(task, c / 0 + c % 0 + (c == 3) + (c != 4) + (c < 5) + \
             (c <= 6) + (c > 7) + (c >= 8) + c * 2 - 1)\n\
         }\n\
         hook pick_next {\n\
           let i = 0\n\
           repeat 4 {\n\
             foreach t in list(i % 4) {\n\
               if can_schedule(t) { if counter(t) / 2 >= 0 { requeue_back(t) pick t } }\n\
             }\n\
             i = i - -1\n\
           }\n\
           if runnable(prev) { pick prev }\n\
           pick idle\n\
         }\n",
    ),
];

/// `reg.pol`'s two-pass selection loop with its loop variable, filter
/// and score swapped for the given names.
macro_rules! reg_loop {
    ($var:literal, $filter:literal, $score:literal) => {
        concat!(
            "policy regloop\nlists 1\n",
            "hook enqueue { enqueue_front(0) }\n",
            "hook pick_next {\n",
            "  let best = idle\n",
            "  let c = -1000\n",
            "  repeat 2 {\n",
            "    c = -1000\n",
            "    best = idle\n",
            "    if runnable(prev) { c = prev_goodness()  best = prev }\n",
            "    foreach ",
            $var,
            " in list(0) {\n",
            "      if ",
            $filter,
            "(",
            $var,
            ") {\n",
            "        let g = ",
            $score,
            "(",
            $var,
            ")\n",
            "        if g > c { c = g  best = ",
            $var,
            " }\n",
            "      }\n",
            "    }\n",
            "    if c != 0 { pick best }\n",
            "    recalc()\n",
            "  }\n",
            "  pick best\n",
            "}\n",
        )
    };
}

/// The `pick_next` shapes around `scan.best`, the one fused op, with
/// whether each compiles to it: a guard, a compare-update and a
/// conditional pick on their own, selection loops filtered, scored or
/// named one step off the fused shape, and the fused loop itself. Held
/// to the reference like [`VM_PATH_PROGRAMS`].
const FUSION_SHAPES: [(&str, bool, &str); 7] = [
    (
        "guards",
        false,
        "policy guards\nlists 2\n\
         hook enqueue { enqueue_back(counter(task) % 2)  if runnable(task) { enqueue_front(0) } }\n\
         hook tick { if runnable(task) { set_counter(task, counter(task) - 1) } }\n\
         hook pick_next {\n\
           if runnable(prev) { if counter(prev) > 2 { pick prev } }\n\
           foreach t in list(0) { if can_schedule(t) { requeue_back(t) pick t } }\n\
           foreach t in list(1) { if runnable(t) { if can_schedule(t) { pick t } } }\n\
           if runnable(prev) { pick prev }\n\
           pick idle\n\
         }\n",
    ),
    (
        "compare-update outside a scan",
        false,
        "policy gtupdate\nlists 1\n\
         hook enqueue { enqueue_back(0) }\n\
         hook pick_next {\n\
           let best = idle\n\
           let c = -1000\n\
           let h = list_head(0)\n\
           if h != nil {\n\
             let g = goodness(h)\n\
             if g > c { c = g  best = h }\n\
           }\n\
           let p = prev_goodness()\n\
           if p > c { c = p  best = prev }\n\
           if c > 0 { if can_schedule(best) { requeue_back(best) pick best } }\n\
           if runnable(prev) { pick prev }\n\
           pick idle\n\
         }\n",
    ),
    (
        "conditional pick",
        false,
        "policy ifne\nlists 1\n\
         hook enqueue { enqueue_back(0) }\n\
         hook pick_next {\n\
           let best = list_head(0)\n\
           let c = counter(best) - 3\n\
           if c != 0 { pick best }\n\
           c = counter(prev)\n\
           best = prev\n\
           if runnable(prev) { if c != 0 { pick best } }\n\
           recalc()\n\
           c = list_len(0)\n\
           best = list_head(0)\n\
           if c != 0 { pick best }\n\
           pick idle\n\
         }\n",
    ),
    (
        "runnable-filtered loop",
        false,
        reg_loop!("t", "runnable", "goodness"),
    ),
    (
        "counter-scored loop",
        false,
        reg_loop!("t", "can_schedule", "counter"),
    ),
    // The loop variable shadows the winner, so `best = best` writes the
    // loop variable and the outer `best` is never set.
    (
        "shadowed reg loop",
        false,
        reg_loop!("best", "can_schedule", "goodness"),
    ),
    ("reg loop", true, reg_loop!("t", "can_schedule", "goodness")),
];

/// A band walk over `lists` lists: `let b = start`, then `repeat count`
/// of a `foreach` over `list(index)` that takes the first schedulable
/// task, followed by `tail` (the latch and anything after it). Tasks
/// land on `counter % lists`, so most lists are empty; the pick after
/// the walk reads `b`, so where the walk left it is observable.
macro_rules! band_walk {
    ($lists:literal, $start:literal, $count:literal, $index:literal, $tail:literal) => {
        concat!(
            "policy band\nlists ",
            $lists,
            "\nhook enqueue { enqueue_back(counter(task) % ",
            $lists,
            ") }\n",
            "hook tick { set_counter(task, counter(task) - 1) }\n",
            "hook pick_next {\n",
            "  let b = ",
            $start,
            "\n  let c = 0\n  let step = 1\n",
            "  repeat ",
            $count,
            " {\n",
            "    foreach t in list(",
            $index,
            ") {\n",
            "      if can_schedule(t) { requeue_back(t) pick t }\n",
            "    }\n",
            "    ",
            $tail,
            "\n  }\n",
            "  foreach t in list(b) { if runnable(t) { pick t } }\n",
            "  if runnable(prev) { pick prev }\n",
            "  pick idle\n",
            "}\n",
        )
    };
}

/// The `repeat` band walks around the `for.begin` seek, with whether
/// each compiles to it: the walks it must take (down, up, a step of
/// 3, through negative indices, a counter that runs out first, a
/// `break` in the walk, and the seek nested in an outer `repeat`), and
/// the near misses that keep the plain lowering. Held to the reference
/// like [`VM_PATH_PROGRAMS`].
const SEEK_SHAPES: [(&str, bool, &str); 13] = [
    (
        "down by 1",
        true,
        band_walk!("8", "7", "8", "b", "b = b - 1"),
    ),
    ("up by 1", true, band_walk!("8", "0", "8", "b", "b = b + 1")),
    (
        "a step of 3",
        true,
        band_walk!("7", "2", "7", "b", "b = b + 3"),
    ),
    (
        "through negative indices",
        true,
        band_walk!("3", "1", "10", "b", "b = b - 1"),
    ),
    (
        "the counter runs out first",
        true,
        band_walk!("16", "0", "3", "b", "b = b + 1"),
    ),
    (
        "break in the walk",
        true,
        "policy brk\nlists 6\n\
         hook enqueue { enqueue_back(counter(task) % 6) }\n\
         hook pick_next {\n\
           let found = nil\n\
           let b = 5\n\
           repeat 6 {\n\
             foreach t in list(b) {\n\
               if can_schedule(t) { found = t  break }\n\
             }\n\
             b = b - 1\n\
           }\n\
           if found != nil { requeue_back(found) pick found }\n\
           if runnable(prev) { pick prev }\n\
           pick idle\n\
         }\n",
    ),
    (
        "nested in a repeat",
        true,
        "policy twice\nlists 30\n\
         hook enqueue { enqueue_back(counter(task) + 4) }\n\
         hook pick_next {\n\
           repeat 2 {\n\
             let band = nr_lists - 1\n\
             repeat 30 {\n\
               foreach t in list(band) {\n\
                 if can_schedule(t) { if counter(t) > 0 { requeue_back(t) pick t } }\n\
               }\n\
               band = band - 1\n\
             }\n\
             recalc()\n\
           }\n\
           pick idle\n\
         }\n",
    ),
    (
        "the latch assigns another variable",
        false,
        band_walk!("8", "7", "8", "b", "c = b - 1"),
    ),
    (
        "the step is a variable",
        false,
        band_walk!("8", "7", "8", "b", "b = b - step"),
    ),
    (
        "a statement after the latch",
        false,
        band_walk!("8", "7", "8", "b", "b = b - 1  c = c + 1"),
    ),
    (
        "a multiplying latch",
        false,
        band_walk!("8", "1", "8", "b", "b = b * 3"),
    ),
    (
        "a computed list index",
        false,
        band_walk!("8", "6", "8", "b + 1", "b = b - 1"),
    ),
    (
        "percpu.pol's guard",
        false,
        "policy guard\nlists 8\n\
         hook enqueue { enqueue_back(counter(task) % 8) }\n\
         hook pick_next {\n\
           let i = 0\n\
           repeat 64 {\n\
             if i < nr_lists {\n\
               foreach t in list(i) { if can_schedule(t) { requeue_back(t) pick t } }\n\
             }\n\
             i = i + 1\n\
           }\n\
           if runnable(prev) { pick prev }\n\
           pick idle\n\
         }\n",
    ),
];

/// Whether `src`'s `pick_next` holds an op `has` accepts, with the
/// disassembly to show when it does not match.
fn pick_next_has(name: &str, src: &str, has: fn(&elsc_policy::Insn) -> bool) -> (bool, String) {
    let sched = PolicyScheduler::load_str(src, 1).unwrap_or_else(|e| panic!("{name}: {e}"));
    let chunk = sched
        .compiled()
        .chunk(HookKind::PickNext)
        .expect("pick_next");
    (chunk.code.iter().any(has), chunk.disasm())
}

#[test]
fn vm_path_programs_match_the_reference_at_every_budget() {
    let fusion_shapes = FUSION_SHAPES.iter().map(|&(name, fused, src)| {
        let (scan_best, disasm) = pick_next_has(name, src, |i| i.op == elsc_policy::Op::ScanBest);
        assert_eq!(scan_best, fused, "{name}: scan.best\n{disasm}");
        (name, src)
    });
    let seek_shapes = SEEK_SHAPES.iter().map(|&(name, seeks, src)| {
        let (seek, disasm) =
            pick_next_has(name, src, |i| i.op == elsc_policy::Op::ForBegin && i.d == 1);
        assert_eq!(seek, seeks, "{name}: seek\n{disasm}");
        (name, src)
    });
    for (name, src) in VM_PATH_PROGRAMS
        .into_iter()
        .chain(fusion_shapes)
        .chain(seek_shapes)
    {
        let prog = load_str(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        for budget in std::iter::once(DEFAULT_BUDGET).chain(1..=96) {
            assert_vm_matches_reference(name, &prog, budget, 120);
        }
    }
}

/// A whole machine run of `prog` (three writers and a reader on one
/// pipe) on the VM or on the reference.
fn machine_run(cfg: MachineConfig, prog: &Program, budget: u64, reference: bool) -> RunReport {
    let sched = scheduler(prog, cfg.nr_cpus(), reference).with_budget(budget);
    let mut m = Machine::new(cfg.with_max_secs(50.0), Box::new(sched));
    let pipe = m.create_pipe(2);
    for i in 0..3u32 {
        m.spawn(
            &TaskSpec::named("w").mm(MmId(i + 1)),
            Box::new(Script::new(
                (0..6)
                    .map(|k| Op::write_after(30_000, pipe, Msg::tagged(k)))
                    .collect(),
            )),
        );
    }
    m.spawn(
        &TaskSpec::named("r").mm(MmId(9)),
        Box::new(Script::new(
            (0..18).map(|_| Op::read_after(10_000, pipe)).collect(),
        )),
    );
    m.run().expect("completes")
}

/// The machine-level contract: a whole run's report is byte-identical
/// on the VM and on the reference — same schedule, same cycles, same
/// `PolicyInsn` totals — for `reg.pol` (`scan.best`) and `table.pol`
/// (the band walk's seek).
#[test]
fn full_runs_are_byte_identical_to_the_reference() {
    for name in ["reg.pol", "table.pol"] {
        let src = fs::read_to_string(policies_dir().join(name)).expect(name);
        let prog = load_str(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let json = |reference| {
            machine_run(MachineConfig::smp(2), &prog, DEFAULT_BUDGET, reference).to_json()
        };
        assert_eq!(json(false), json(true), "{name}");
    }
}

/// Budget exhaustion mid-`pick_next` on the VM: the watchdog ejects at
/// the same virtual instant, with the same frozen instruction count, as
/// under the reference interpreter.
#[test]
fn vm_budget_exhaustion_ejects_exactly_like_the_reference() {
    let src = "policy spin\nlists 1\nhook enqueue { enqueue_front(0) }\n\
               hook pick_next {\n  repeat 1024 { let x = 1 }\n\
               if runnable(prev) { pick prev }\n  pick idle\n}\n";
    let prog = load_str(src).expect("loads");
    let vm = machine_run(MachineConfig::up(), &prog, 64, false);
    let p = vm.policy.as_ref().expect("policy summary present");
    assert!(p.ejected);
    assert_eq!(p.eject_reason, Some("budget_exhausted"));
    assert_eq!(
        vm.to_json(),
        machine_run(MachineConfig::up(), &prog, 64, true).to_json()
    );
}
