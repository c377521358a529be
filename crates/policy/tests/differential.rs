//! Differential fuzzing: the bytecode VM versus the reference
//! interpreter (built only with `--features interp-reference`).
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
use elsc_policy::{load_str, PolicyScheduler, Program, DEFAULT_BUDGET};
use elsc_sched_api::{SchedConfig, SchedCtx, Scheduler};
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
        violations.push(sched.take_violation().map(|v| v.label()));
    }
    let s = stats.cpu(0);
    Trace {
        picks,
        violations,
        insns: sched.policy_insns_executed(),
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
/// `PolicyInsn` totals.
#[test]
fn full_runs_are_byte_identical_to_the_reference() {
    let reg = fs::read_to_string(policies_dir().join("reg.pol")).expect("reg.pol");
    let prog = load_str(&reg).expect("reg.pol loads");
    let json =
        |reference| machine_run(MachineConfig::smp(2), &prog, DEFAULT_BUDGET, reference).to_json();
    assert_eq!(json(false), json(true));
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
