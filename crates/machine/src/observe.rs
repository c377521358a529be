//! Decision observers: what watches a `schedule()` call without being
//! part of it. Three are known at compile time — the queue-depth sample
//! (always on), the `--decision-trace` candidate burst and the chaos
//! oracle — so they are concrete `Machine` fields called in a fixed
//! order, not trait objects behind a registration API: an off observer
//! costs one `Option` test per decision, and the order of their emissions
//! is part of the trace format (`DESIGN.md` §6). The trace and the oracle
//! both read the runnable set as it stood *before* the scheduler ran:
//! [`DecisionView`], filled by at most one task-table walk per decision
//! into a reused buffer. Pure observation — no simulated cycle is
//! charged, no task state is touched.

use std::collections::HashMap;

use elsc_chaos::{check_task_invariants, Decision, DivergenceClass, TaskSnap};
use elsc_ktask::{CpuId, MmId, Tid};
use elsc_obs::{EventBus, ObsEvent};
use elsc_sched_api::topo_affinity_bonus;
use elsc_simcore::{Cycles, Topology};

use crate::machine::{is_idle_task, Machine};

/// The scheduling state one decision starts from, frozen before the
/// scheduler under test mutates counters, clears `SCHED_YIELD` or
/// recalculates. Built by [`Machine::observe_before`], handed back to
/// [`Machine::observe_after`].
pub(crate) struct DecisionView {
    /// The deciding CPU, its outgoing task and its idle task.
    cpu: CpuId,
    prev: Tid,
    idle: Tid,
    /// Run-queue length entering the call.
    depth: u64,
    prev_mm: MmId,
    prev_yielded: bool,
    prev_runnable: bool,
    /// The deciding CPU's `yield_reruns` counter entering the call.
    yield_reruns: u64,
    /// Every runnable non-idle task, in task-table order; empty unless
    /// the trace or the oracle is on. Tasks executing elsewhere carry
    /// `has_cpu`, so each reader applies `can_schedule()` itself.
    snaps: Vec<TaskSnap>,
}

/// The `--decision-trace` observer: a `sched_candidate` burst before the
/// call, closed by the `sched_decision` label after it — one supervised
/// training row for `elsc-learn`.
#[derive(Default)]
pub(crate) struct DecisionTracer {
    /// Decisions traced so far (the recency feature's clock).
    decisions: u64,
    /// Per-task decision index of the last traced win.
    last_picked: HashMap<Tid, u64>,
}

impl DecisionTracer {
    fn before(&mut self, view: &DecisionView, bus: &mut EventBus, topo: &Topology, t: Cycles) {
        self.decisions += 1;
        let cpu = view.cpu;
        for s in &view.snaps {
            if s.tid != view.prev && s.has_cpu {
                continue;
            }
            let recency = self
                .last_picked
                .get(&s.tid)
                .map_or(255, |&won| (self.decisions - won).min(255));
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
                    recency,
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
            self.last_picked.insert(next, self.decisions);
        }
    }
}

impl Machine {
    /// Pipeline step 2: sample the queue depth and freeze the view — the
    /// table walk only if the trace or the oracle will read it — then
    /// emit the trace's candidates.
    pub(crate) fn observe_before(&mut self, cpu: CpuId, prev: Tid, t: Cycles) -> DecisionView {
        let depth = self.sched.nr_running() as u64;
        self.dists.record("runqueue_len", depth);
        self.bus
            .emit_at(t, ObsEvent::QueueDepthSample { cpu, depth });
        let pt = self.tasks.task(prev);
        let mut view = DecisionView {
            cpu,
            prev,
            idle: self.cpus[cpu].idle,
            depth,
            prev_mm: pt.mm,
            prev_yielded: pt.policy.yielded,
            prev_runnable: pt.state.is_runnable(),
            yield_reruns: self.stats.cpu(cpu).yield_reruns,
            snaps: std::mem::take(&mut self.snap_scratch),
        };
        if self.tracer.is_some() || self.oracle.is_some() {
            let cpus = &self.cpus;
            let work = self
                .tasks
                .iter()
                .filter(|t| t.state.is_runnable() && !is_idle_task(cpus, t.tid));
            view.snaps.extend(work.map(TaskSnap::of));
        }
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.before(&view, &mut self.bus, &self.cfg.sched.topology, t);
        }
        view
    }

    /// Pipeline step 4: close the trace burst with the label, then replay
    /// the reference O(n) scan over the view, classify the decision and
    /// check the run-queue invariants the scheduler must have preserved.
    pub(crate) fn observe_after(&mut self, mut view: DecisionView, next: Tid, t_done: Cycles) {
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
                prev_runnable: view.prev_runnable,
                chosen: next,
                yield_rerun: self.stats.cpu(cpu).yield_reruns > view.yield_reruns,
                search_limit: self.cfg.sched.search_limit(),
                smp: self.cfg.sched.smp,
                topology: self.cfg.sched.topology,
                snaps: &view.snaps,
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
            let violations = check_task_invariants(&self.tasks);
            if !violations.is_empty() {
                oracle.record_violations(&violations);
            }
        }
        view.snaps.clear();
        self.snap_scratch = view.snaps;
    }
}
