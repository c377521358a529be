//! Decision observers: what watches a `schedule()` call without being
//! part of it. Three are known at compile time — the queue-depth sample
//! (always on), the `--decision-trace` candidate burst and the chaos
//! oracle — so they are concrete `Machine` fields called in a fixed
//! order, not trait objects behind a registration API: an off observer
//! costs one `Option` test per decision, and the order of their emissions
//! is part of the trace format (`DESIGN.md` §6). The trace and the oracle
//! both read the runnable set as it stood *before* the scheduler ran:
//! [`TaskWatch`]'s slot-indexed [`RunnableSet`], which nothing copies.
//! Neither it nor the oracle's invariant check walks the task table: the
//! watch follows the table's change log, so a decision costs the
//! observers the tasks that were touched since the last one, not every
//! live task. Pure observation — no simulated cycle is charged, no task
//! state is touched.

use elsc_chaos::{task_invariants, Decision, DivergenceClass, RunnableSet, SlotSet, TaskSnap};
use elsc_ktask::{CpuId, LogReader, MmId, Task, TaskTable, Tid};
use elsc_learn::Recency;
use elsc_obs::{EventBus, ObsEvent};
use elsc_sched_api::topo_affinity_bonus;
use elsc_simcore::{Cycles, Topology};

use crate::cpu::CpuState;
use crate::machine::{is_idle_task, Machine};

/// The part of one decision's starting state that is not in the runnable
/// set: `prev`'s pre-call state and the deciding CPU's. Built by
/// [`Machine::observe_before`], handed back to [`Machine::observe_after`].
pub(crate) struct DecisionView {
    /// The deciding CPU, its outgoing task and its idle task.
    cpu: CpuId,
    prev: Tid,
    idle: Tid,
    /// Run-queue length entering the call.
    depth: u64,
    prev_mm: MmId,
    prev_yielded: bool,
    /// The deciding CPU's `yield_reruns` counter entering the call.
    yield_reruns: u64,
}

/// The `--decision-trace` observer: a `sched_candidate` burst before the
/// call, closed by the `sched_decision` label after it — one supervised
/// training row for `elsc-learn`.
#[derive(Default)]
pub(crate) struct DecisionTracer {
    /// The recency feature's clock, over traced decisions.
    recency: Recency,
}

impl DecisionTracer {
    fn before(
        &mut self,
        view: &DecisionView,
        runnable: &RunnableSet,
        bus: &mut EventBus,
        topo: &Topology,
        t: Cycles,
    ) {
        self.recency.tick();
        let cpu = view.cpu;
        for s in runnable.iter() {
            if s.tid != view.prev && s.has_cpu {
                continue;
            }
            bus.emit_at(
                t,
                ObsEvent::SchedCandidate {
                    cpu,
                    tid: s.tid,
                    counter: s.counter.max(0) as u64,
                    priority: s.priority.max(0) as u64,
                    rt: s.rt as u64,
                    mm_match: (s.mm == view.prev_mm) as u64,
                    affinity: topo_affinity_bonus(topo, cpu, s.processor).max(0) as u64,
                    recency: self.recency.of(s.tid),
                },
            );
        }
    }

    fn after(&mut self, view: &DecisionView, bus: &mut EventBus, next: Tid, t_done: Cycles) {
        bus.emit_at(
            t_done,
            ObsEvent::SchedDecision {
                cpu: view.cpu,
                prev: view.prev,
                chosen: next,
                depth: view.depth,
            },
        );
        if next != view.idle {
            self.recency.won(next);
        }
    }
}

/// Whether `t` belongs in the pre-decision view: runnable, and not one of
/// the CPUs' idle tasks.
fn is_work(t: &Task, cpus: &[CpuState]) -> bool {
    t.state.is_runnable() && !is_idle_task(cpus, t.tid)
}

/// The observers' picture of the task table, kept current from the
/// table's change log ([`TaskTable::drain_touched`]; the watch is one
/// reader of it, the baseline scheduler's goodness index may be another)
/// instead of by walking it. Both sets are read in slot order — which is
/// task-table order, so the candidate burst and the violation list come
/// out exactly as the full walks produce them (debug builds run those
/// beside it and compare, see [`reference`]):
///
/// * `runnable` — a [`TaskSnap`] of every runnable non-idle task, by slot:
///   what the tracer and the oracle read. A sync refreshes only the slots
///   the log hands over.
/// * `pending` — the slots touched since their task last *passed* the
///   invariants. A task that fails stays pending, so a violation nobody
///   repairs is counted again on every decision, as the full walk counts
///   it; a task that passed cannot start failing without being handed out
///   mutably, which puts it back.
///
/// **Condition:** between [`Machine::observe_before`] and the judge in
/// [`Machine::observe_after`] nothing syncs, so `runnable` is the state
/// the decision started from by construction — the scheduler's writes
/// wait in the change log. `frozen` marks the scheduler's part of that
/// window; a sync inside it is a debug-build panic.
#[derive(Default)]
pub(crate) struct TaskWatch {
    /// The watch's subscription to the change log, taken by its first
    /// sync.
    reader: Option<LogReader>,
    drained: Vec<u32>,
    runnable: RunnableSet,
    pending: SlotSet,
    violations: Vec<String>,
    frozen: bool,
}

impl TaskWatch {
    /// Applies everything the table logged since the last call. The first
    /// call subscribes to the log and is handed every occupied slot.
    fn sync(&mut self, tasks: &mut TaskTable, cpus: &[CpuState]) {
        debug_assert!(!self.frozen, "sync between a decision and its judge");
        let reader = self.reader.get_or_insert_with(|| tasks.subscribe());
        tasks.drain_touched(reader, &mut self.drained);
        for idx in self.drained.drain(..) {
            let idx = idx as usize;
            match tasks.slot(idx).filter(|t| is_work(t, cpus)) {
                Some(t) => self.runnable.insert(TaskSnap::of(t)),
                None => self.runnable.remove(idx),
            }
            self.pending.set(idx, true);
        }
    }

    /// Checks the run-queue invariants of every pending task, in
    /// task-table order, and returns the violations. Exact as of the last
    /// [`sync`](TaskWatch::sync).
    fn check(&mut self, tasks: &TaskTable) -> &[String] {
        self.violations.clear();
        let out = &mut self.violations;
        self.pending.retain(|idx| {
            let before = out.len();
            if let Some(t) = tasks.slot(idx) {
                task_invariants(tasks, t, out);
            }
            out.len() > before
        });
        &self.violations
    }
}

/// The full task-table walks [`TaskWatch`] replaces, run beside it on
/// every observed decision of a debug build — which is what tier-1 and
/// CI's `checked` job run, so every oracle test in the workspace checks
/// the incremental path against the reference.
#[cfg(debug_assertions)]
mod reference {
    use super::*;

    pub(super) fn assert_runnable(runnable: &RunnableSet, tasks: &TaskTable, cpus: &[CpuState]) {
        let work = tasks.iter().filter(|t| is_work(t, cpus));
        let full: Vec<TaskSnap> = work.map(TaskSnap::of).collect();
        let view: Vec<TaskSnap> = runnable.iter().copied().collect();
        assert_eq!(view, full, "incremental runnable set != full table walk");
    }

    pub(super) fn assert_violations(violations: &[String], tasks: &TaskTable) {
        assert_eq!(
            violations,
            elsc_chaos::check_task_invariants(tasks),
            "incremental invariant check != full table walk"
        );
    }
}

impl Machine {
    /// Pipeline step 2: sample the queue depth and freeze the view — the
    /// runnable set brought up to date from the change log, only if the
    /// trace or the oracle will read it — then emit the trace's
    /// candidates.
    pub(crate) fn observe_before(&mut self, cpu: CpuId, prev: Tid, t: Cycles) -> DecisionView {
        let depth = self.sched.nr_running() as u64;
        self.dists.record("runqueue_len", depth);
        self.bus
            .emit_at(t, ObsEvent::QueueDepthSample { cpu, depth });
        let pt = self.tasks.task(prev);
        let view = DecisionView {
            cpu,
            prev,
            idle: self.cpus[cpu].idle,
            depth,
            prev_mm: pt.mm,
            prev_yielded: pt.policy.yielded,
            yield_reruns: self.stats.cpu(cpu).yield_reruns,
        };
        if self.tracer.is_some() || self.oracle.is_some() {
            self.watch.sync(&mut self.tasks, &self.cpus);
            self.watch.frozen = true;
            #[cfg(debug_assertions)]
            reference::assert_runnable(&self.watch.runnable, &self.tasks, &self.cpus);
        }
        if let Some(tracer) = self.tracer.as_mut() {
            let topo = &self.cfg.sched.topology;
            tracer.before(&view, &self.watch.runnable, &mut self.bus, topo, t);
        }
        view
    }

    /// Pipeline step 4: close the trace burst with the label, then ask the
    /// oracle for the reference scan's pick over the frozen runnable set
    /// (read from the set's goodness index; only a recalculation pass
    /// walks it), classify the decision and check the run-queue invariants
    /// the scheduler must have preserved — on every task touched since it
    /// last passed them. The check has to come after the decision: an
    /// exiting `prev` is legitimately a linked zombie on entry, and only
    /// the decision unlinks it.
    pub(crate) fn observe_after(&mut self, view: DecisionView, next: Tid, t_done: Cycles) {
        // The decision is over; the judge below still reads the frozen set.
        self.watch.frozen = false;
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.after(&view, &mut self.bus, next, t_done);
        }
        if let Some(oracle) = self.oracle.as_mut() {
            let cpu = view.cpu;
            let verdict = oracle.judge_full(&Decision {
                cpu,
                prev: view.prev,
                idle: view.idle,
                prev_mm: view.prev_mm,
                prev_yielded: view.prev_yielded,
                chosen: next,
                yield_rerun: self.stats.cpu(cpu).yield_reruns > view.yield_reruns,
                search_limit: self.cfg.sched.search_limit(),
                smp: self.cfg.sched.smp,
                topology: self.cfg.sched.topology,
                runnable: &self.watch.runnable,
            });
            if verdict.class != DivergenceClass::Match {
                self.bus.emit_at(
                    t_done,
                    ObsEvent::OracleDivergence {
                        cpu,
                        chosen: next,
                        expected: verdict.expected,
                        class: verdict.class.label(),
                    },
                );
            }
            self.watch.sync(&mut self.tasks, &self.cpus);
            let violations = self.watch.check(&self.tasks);
            #[cfg(debug_assertions)]
            reference::assert_violations(violations, &self.tasks);
            if !violations.is_empty() {
                oracle.record_violations(violations);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{Op, Script};
    use crate::config::MachineConfig;
    use crate::machine::StepStatus;
    use elsc_chaos::check_task_invariants;
    use elsc_ktask::{Link, ListNode, TaskSpec, TaskState};
    use elsc_netsim::Msg;
    use elsc_simcore::SimRng;

    const EPOCH: u64 = 400_000; // 1 ms at 400 MHz

    /// `(decisions judged, invariant violations)` so far.
    fn judged(m: &Machine) -> (u64, u64) {
        let r = m.oracle.as_ref().expect("oracle on").report();
        (r.decisions, r.invariant_violations)
    }

    /// An oracle-judged UP machine, started: two tasks bouncing a message
    /// (a steady stream of decisions) and one task asleep for the whole
    /// window the test works in. Returns the sleeper.
    fn busy_machine_with_a_sleeper(sched: Box<dyn elsc_sched_api::Scheduler>) -> (Machine, Tid) {
        let cfg = MachineConfig::up()
            .with_max_secs(50.0)
            .with_poll_yields(0)
            .with_oracle(true);
        let mut m = Machine::new(cfg, sched);
        let (ping, pong) = (m.create_pipe(1), m.create_pipe(1));
        let rounds = 400;
        let a = (0..rounds).flat_map(|i| {
            [
                Op::write_after(20_000, ping, Msg::tagged(i)),
                Op::read_after(1_000, pong),
            ]
        });
        let b = (0..rounds).flat_map(|i| {
            [
                Op::read_after(1_000, ping),
                Op::write_after(20_000, pong, Msg::tagged(i)),
            ]
        });
        m.spawn(&TaskSpec::named("a"), Box::new(Script::new(a.collect())));
        m.spawn(&TaskSpec::named("b"), Box::new(Script::new(b.collect())));
        let sleeper = m.spawn(
            &TaskSpec::named("sleeper"),
            Box::new(Script::new(vec![Op::sleep_after(1_000, 30 * EPOCH)])),
        );
        m.start();
        (m, sleeper)
    }

    /// Steps one epoch and returns how many decisions were judged in it
    /// and how many violations they recorded.
    fn step(m: &mut Machine, barrier: &mut Cycles) -> (u64, u64) {
        let (d0, v0) = judged(m);
        *barrier += EPOCH;
        let status = m.step_until(*barrier).expect("no watchdog");
        assert!(matches!(status, StepStatus::Paused { .. }), "still running");
        let (d1, v1) = judged(m);
        (d1 - d0, v1 - v0)
    }

    /// A violation on a task nobody touches again is counted once per
    /// judged decision until it is repaired — what the full walk does,
    /// and what "check only what the last decision touched" does not.
    fn persisting_violation_is_counted_every_decision(
        sched: Box<dyn elsc_sched_api::Scheduler>,
        corrupt: impl Fn(&mut elsc_ktask::Task),
        repair: impl Fn(&mut elsc_ktask::Task),
        expect_detail: &str,
    ) {
        let (mut m, sleeper) = busy_machine_with_a_sleeper(sched);
        let mut barrier = Cycles::ZERO;
        let mut clean = 0;
        for _ in 0..3 {
            let (d, v) = step(&mut m, &mut barrier);
            assert_eq!(v, 0, "clean before the corruption");
            clean += d;
        }
        assert!(clean > 10, "the workload decides often ({clean})");
        assert!(m.tasks.task(sleeper).state.is_blocked(), "sleeper asleep");

        corrupt(m.tasks.task_mut(sleeper));
        let mut dirty = 0;
        for _ in 0..5 {
            let (d, v) = step(&mut m, &mut barrier);
            assert_eq!(v, d, "one violation per judged decision");
            dirty += d;
        }
        assert!(
            dirty > 10,
            "the violation outlived many decisions ({dirty})"
        );
        let report = m.oracle.as_ref().unwrap().report();
        let first = report.first_violation.as_deref().expect("recorded");
        let name = format!("task {} 'sleeper'", sleeper.index());
        assert!(first.starts_with(&name), "{first}");
        assert!(first.contains(expect_detail), "{first}");

        repair(m.tasks.task_mut(sleeper));
        for _ in 0..3 {
            let (d, v) = step(&mut m, &mut barrier);
            assert!(d > 0);
            assert_eq!(v, 0, "repaired: the count stops");
        }
        assert_eq!(judged(&m).1, dirty);
    }

    #[test]
    fn a_sleeping_tasks_bad_counter_is_counted_until_repaired() {
        for sched in [
            Box::new(elsc::ElscScheduler::new()) as Box<dyn elsc_sched_api::Scheduler>,
            Box::new(elsc_sched_linux::LinuxScheduler::new()),
        ] {
            persisting_violation_is_counted_every_decision(
                sched,
                |t| t.counter = 2 * t.priority + 1,
                |t| t.counter = t.priority,
                "counter 41 outside [0, 40]",
            );
        }
    }

    #[test]
    fn a_hand_linked_zombie_is_counted_until_repaired() {
        // Linked to a list head no scheduler walks from the task's side:
        // the run queue itself stays coherent, only the task's own record
        // claims membership.
        let linked = ListNode {
            next: Link::Head(0),
            prev: Link::Head(0),
        };
        persisting_violation_is_counted_every_decision(
            Box::new(elsc::ElscScheduler::new()),
            move |t| {
                t.state = TaskState::Zombie;
                t.run_list = linked;
            },
            |t| {
                t.state = TaskState::Interruptible;
                t.run_list = ListNode::detached();
            },
            "zombie still linked",
        );
    }

    /// Model test: random interleavings of every `TaskTable` mutator, with
    /// the watcher syncing at random points; after every sync the
    /// incremental snapshot and violation list equal the full walks'.
    #[test]
    fn watcher_equals_the_full_walks_under_random_mutation() {
        for seed in 0..8 {
            let mut rng = SimRng::new(0x7A5C_0000 + seed);
            let mut tasks = TaskTable::new();
            let idle = tasks.spawn(&TaskSpec::named("idle"));
            let cpus = [CpuState::new(0, idle)];
            let mut live = vec![idle];
            let mut watch = TaskWatch::default();
            // Arbitrary (also invalid) scheduling state, through whichever
            // `&mut Task` the step obtained.
            let scribble = |t: &mut elsc_ktask::Task, rng: &mut SimRng| {
                t.state = match rng.below(4) {
                    0 => TaskState::Running,
                    1 => TaskState::Interruptible,
                    2 => TaskState::Zombie,
                    _ => t.state,
                };
                t.counter = rng.below(2 * t.priority as u64 + 3) as i32 - 1;
                t.run_list = match rng.below(4) {
                    0 => ListNode::detached(),
                    1 => ListNode {
                        next: Link::Head(0),
                        prev: Link::Head(0),
                    },
                    2 => ListNode {
                        next: Link::Nil,
                        prev: Link::Head(0),
                    },
                    _ => t.run_list,
                };
            };
            for step in 0..2_000 {
                let pick = live[rng.below(live.len() as u64) as usize];
                match rng.below(10) {
                    0 | 1 => live.push(tasks.spawn(&TaskSpec::default())),
                    2 if pick != idle => {
                        tasks.task_mut(pick).run_list = ListNode::detached();
                        tasks.free(pick);
                        live.retain(|&t| t != pick);
                    }
                    3 => scribble(tasks.get_mut(pick).expect("live"), &mut rng),
                    4 => scribble(tasks.task_mut(pick), &mut rng),
                    5 => scribble(tasks.by_index_mut(pick.index()), &mut rng),
                    6 => {
                        for t in tasks.iter_mut() {
                            if rng.chance(0.1) {
                                scribble(t, &mut rng);
                            }
                        }
                    }
                    7 => {
                        tasks.recalc_counters(rng.chance(0.5));
                    }
                    _ => {
                        // Reads never disturb the picture.
                        let _ = (tasks.task(pick).counter, tasks.iter().count());
                    }
                }
                if rng.chance(0.5) {
                    continue; // several mutations between two syncs
                }
                watch.sync(&mut tasks, &cpus);
                let work = tasks.iter().filter(|t| is_work(t, &cpus));
                let full: Vec<TaskSnap> = work.map(TaskSnap::of).collect();
                let view: Vec<TaskSnap> = watch.runnable.iter().copied().collect();
                assert_eq!(view, full, "seed {seed} step {step}");
                let reference = check_task_invariants(&tasks);
                assert_eq!(watch.check(&tasks), reference, "seed {seed} step {step}");
                // Unrepaired violations are reported again, untouched.
                assert_eq!(watch.check(&tasks), reference, "seed {seed} step {step}");
            }
        }
    }
}
