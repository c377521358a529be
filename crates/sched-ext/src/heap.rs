//! The §8 "heap" design: an ordered priority structure keyed by static
//! goodness.
//!
//! The paper suggests "sorting tasks by static goodness within heaps" so
//! the best task is found at the top. This prototype uses a balanced
//! ordered map (`BTreeMap`) as the priority structure — same asymptotics
//! as a heap (`O(log n)` insert/remove) with exact deletion, which a
//! binary heap would need tombstones for.
//!
//! Like ELSC, a running task is removed from the structure and re-keyed
//! on re-insertion (its `counter` changes while running, which would
//! silently corrupt an in-place key). Selection examines only the tasks
//! tied at the maximum key (up to the same `nr_cpus/2 + 5` limit),
//! evaluating dynamic bonuses among them; a yielded previous task is used
//! only as a fallback, inheriting ELSC's recalc-storm fix.

use std::collections::{BTreeMap, HashMap};

use elsc_ktask::{CpuId, TaskState, TaskTable, Tid};
use elsc_sched_api::{frame, topo_affinity_bonus, SchedCtx, Scheduler, MM_BONUS, RT_GOODNESS_BASE};
use elsc_simcore::CostKind;

/// Key of a queued task: `(static key, tie sequence)`. Higher key wins;
/// among ties, the *lowest* sequence is front-most.
type Key = (i32, u64);

/// Ordered-structure scheduler ("heap" in the paper's sketch).
#[derive(Debug, Default)]
pub struct HeapScheduler {
    /// Queued, not-running tasks ordered by key.
    queue: BTreeMap<Key, Tid>,
    /// Reverse index: each queued task's current key.
    keys: HashMap<Tid, Key>,
    /// Tasks marked on-queue while running (ELSC-style).
    running: usize,
    /// Tie counters: move_first assigns from `front`, normal adds and
    /// move_last from `back`.
    front: u64,
    back: u64,
}

/// Static key of a task: real-time tasks above everything.
pub(crate) fn static_key(t: &elsc_ktask::Task) -> i32 {
    if t.policy.class.is_realtime() {
        RT_GOODNESS_BASE + t.rt_priority
    } else {
        t.static_goodness()
    }
}

impl HeapScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        HeapScheduler {
            queue: BTreeMap::new(),
            keys: HashMap::new(),
            running: 0,
            front: u64::MAX / 2,
            back: u64::MAX / 2 + 1,
        }
    }

    fn insert(&mut self, tasks: &TaskTable, tid: Tid, at_front: bool) {
        let seq = if at_front {
            self.front -= 1;
            self.front
        } else {
            self.back += 1;
            self.back
        };
        let key = (static_key(tasks.task(tid)), seq);
        let old = self.queue.insert(key, tid);
        debug_assert!(old.is_none(), "key collision in heap scheduler");
        self.keys.insert(tid, key);
    }

    fn remove(&mut self, tid: Tid) -> bool {
        if let Some(key) = self.keys.remove(&tid) {
            let removed = self.queue.remove(&key);
            debug_assert_eq!(removed, Some(tid));
            true
        } else {
            false
        }
    }

    /// Rebuilds every key after a counter recalculation.
    fn rebuild(&mut self, tasks: &TaskTable) {
        let tids: Vec<Tid> = self.queue.values().copied().collect();
        self.queue.clear();
        self.keys.clear();
        for tid in tids {
            self.insert(tasks, tid, false);
        }
    }
}

impl Scheduler for HeapScheduler {
    fn name(&self) -> &'static str {
        "heap"
    }

    fn add_to_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        // O(log n) insertion; charged as an index plus a list op.
        ctx.meter.charge(ctx.costs, CostKind::TableIndex);
        ctx.meter.charge(ctx.costs, CostKind::ListOp);
        debug_assert!(!self.keys.contains_key(&tid), "double add");
        self.insert(ctx.tasks, tid, false);
    }

    fn del_from_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge(ctx.costs, CostKind::ListOp);
        if !self.remove(tid) {
            // Marked-running task leaving the queue.
            debug_assert!(self.running > 0, "del of unknown task");
            self.running -= 1;
        }
    }

    fn move_first_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge_n(ctx.costs, CostKind::ListOp, 2);
        if self.remove(tid) {
            self.insert(ctx.tasks, tid, true);
        }
    }

    fn move_last_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge_n(ctx.costs, CostKind::ListOp, 2);
        if self.remove(tid) {
            self.insert(ctx.tasks, tid, false);
        }
    }

    fn schedule(&mut self, ctx: &mut SchedCtx<'_>, cpu: CpuId, prev: Tid, idle: Tid) -> Tid {
        frame::charge_entry(ctx, cpu);

        let prev_yielded = ctx.tasks.task(prev).policy.yielded;
        // Previous-task handling (mirrors ELSC).
        if prev != idle {
            let runnable = ctx.tasks.task(prev).state == TaskState::Running;
            if runnable {
                // Refreshed before insertion, so the key is current.
                frame::refresh_rr_quantum(ctx, prev);
                debug_assert!(self.running > 0);
                self.running -= 1;
                ctx.meter.charge(ctx.costs, CostKind::TableIndex);
                ctx.meter.charge(ctx.costs, CostKind::ListOp);
                self.insert(ctx.tasks, prev, false);
            } else {
                ctx.meter.charge(ctx.costs, CostKind::ListOp);
                if !self.remove(prev) {
                    debug_assert!(self.running > 0);
                    self.running -= 1;
                }
            }
        }

        let limit = ctx.cfg.search_limit();
        let prev_mm = ctx.tasks.task(prev).mm;
        let next = loop {
            // Top of the structure: the maximum static key.
            let Some((&(top_key, _), _)) = self.queue.iter().next_back() else {
                break idle;
            };
            // Examine the tasks tied at the top key (bounded), evaluating
            // dynamic bonuses; remember a yielded fallback.
            let mut best: Option<(Tid, i32)> = None;
            let mut yielded_fallback: Option<Tid> = None;
            let mut exhausted = false;
            for (&(_, _seq), &tid) in self
                .queue
                .range((top_key, 0)..=(top_key, u64::MAX))
                .take(limit)
            {
                let p = ctx.tasks.task(tid);
                if ctx.cfg.smp && p.has_cpu && p.processor != cpu {
                    continue;
                }
                if !p.policy.class.is_realtime() && p.counter == 0 {
                    exhausted = true;
                    continue;
                }
                ctx.meter.charge(ctx.costs, CostKind::GoodnessEval);
                ctx.stats.cpu_mut(cpu).tasks_examined += 1;
                if p.policy.yielded {
                    if yielded_fallback.is_none() {
                        yielded_fallback = Some(tid);
                    }
                    continue;
                }
                let w = if p.policy.class.is_realtime() {
                    RT_GOODNESS_BASE + p.rt_priority
                } else {
                    // Distance-graded on declared topologies; the classic
                    // `{+15 same CPU, else 0}` on flat trees.
                    let mut w = p.static_goodness()
                        + topo_affinity_bonus(&ctx.cfg.topology, cpu, p.processor);
                    if p.mm == prev_mm {
                        w += MM_BONUS;
                    }
                    w
                };
                if best.is_none_or(|(_, b)| w > b) {
                    best = Some((tid, w));
                }
            }
            if let Some((tid, _)) = best {
                break tid;
            }
            if let Some(tid) = yielded_fallback {
                ctx.stats.cpu_mut(cpu).yield_reruns += 1;
                break tid;
            }
            if exhausted {
                // Top of the structure is out of quantum: recalculate,
                // then re-key everything queued.
                frame::recalculate(ctx, cpu, self.nr_running(), false);
                self.rebuild(ctx.tasks);
                continue;
            }
            // Everything at the top is running elsewhere; with equal keys
            // deeper entries are also at top_key... they were covered by
            // the range. Nothing runnable here.
            break idle;
        };

        if next != idle {
            ctx.meter.charge(ctx.costs, CostKind::ListOp);
            let was_queued = self.remove(next);
            debug_assert!(was_queued);
            self.running += 1;
        }
        if prev_yielded {
            ctx.tasks.task_mut(prev).policy.yielded = false;
        }
        frame::commit(ctx, cpu, prev, next, idle)
    }

    fn nr_running(&self) -> usize {
        self.queue.len() + self.running
    }

    fn debug_check(&self, tasks: &TaskTable) {
        assert_eq!(self.queue.len(), self.keys.len(), "index out of sync");
        for (&key, &tid) in &self.queue {
            assert_eq!(self.keys.get(&tid), Some(&key));
            assert_eq!(key.0, static_key(tasks.task(tid)), "stale key for {tid:?}");
        }
    }
}

// The trait contract says on_runqueue() reflects membership; the heap
// design tracks membership in its own index instead of the intrusive
// links. The machine model only consults schedulers through the trait, so
// this is sound, but we keep the marker consistent for cross-scheduler
// tests by leaving `run_list` untouched (always detached).

#[cfg(test)]
mod tests {
    use super::*;
    use elsc_ktask::{MmId, SchedClass, TaskSpec};
    use elsc_sched_api::SchedConfig;
    use elsc_simcore::{CostModel, CycleMeter};
    use elsc_stats::SchedStats;

    struct Rig {
        tasks: TaskTable,
        stats: SchedStats,
        meter: CycleMeter,
        costs: CostModel,
        cfg: SchedConfig,
        sched: HeapScheduler,
        idle: Tid,
    }

    impl Rig {
        fn new(cfg: SchedConfig) -> Rig {
            let mut tasks = TaskTable::new();
            let idle = tasks.spawn(&TaskSpec::named("idle").priority(1));
            tasks.task_mut(idle).counter = 0;
            tasks.task_mut(idle).has_cpu = true;
            Rig {
                tasks,
                stats: SchedStats::new(cfg.nr_cpus),
                meter: CycleMeter::new(),
                costs: CostModel::default(),
                cfg,
                sched: HeapScheduler::new(),
                idle,
            }
        }

        fn add(&mut self, tid: Tid) {
            let mut ctx = SchedCtx {
                tasks: &mut self.tasks,
                stats: &mut self.stats,
                meter: &mut self.meter,
                costs: &self.costs,
                cfg: &self.cfg,
                probe: None,
                locks: None,
            };
            self.sched.add_to_runqueue(&mut ctx, tid);
        }

        fn spawn(&mut self, name: &'static str) -> Tid {
            let tid = self.tasks.spawn(&TaskSpec::named(name));
            self.add(tid);
            tid
        }

        fn schedule(&mut self, cpu: CpuId, prev: Tid) -> Tid {
            let mut ctx = SchedCtx {
                tasks: &mut self.tasks,
                stats: &mut self.stats,
                meter: &mut self.meter,
                costs: &self.costs,
                cfg: &self.cfg,
                probe: None,
                locks: None,
            };
            let next = self.sched.schedule(&mut ctx, cpu, prev, self.idle);
            self.sched.debug_check(&self.tasks);
            next
        }
    }

    #[test]
    fn empty_schedules_idle() {
        let mut rig = Rig::new(SchedConfig::up());
        assert_eq!(rig.schedule(0, rig.idle), rig.idle);
        assert_eq!(rig.stats.cpu(0).idle_scheduled, 1);
    }

    #[test]
    fn picks_highest_static_goodness() {
        let mut rig = Rig::new(SchedConfig::up());
        let weak = rig.spawn("weak");
        let strong = rig.spawn("strong");
        rig.tasks.task_mut(weak).counter = 1;
        rig.tasks.task_mut(strong).counter = 20;
        // Keys were computed at insert; re-add with fresh counters.
        {
            let mut ctx = SchedCtx {
                tasks: &mut rig.tasks,
                stats: &mut rig.stats,
                meter: &mut rig.meter,
                costs: &rig.costs,
                cfg: &rig.cfg,
                probe: None,
                locks: None,
            };
            rig.sched.del_from_runqueue(&mut ctx, weak);
            rig.sched.add_to_runqueue(&mut ctx, weak);
        }
        assert_eq!(rig.schedule(0, rig.idle), strong);
    }

    #[test]
    fn exact_best_across_classes_unlike_elsc() {
        // The heap picks the absolute best static goodness, not just the
        // best within a bucket of 4.
        let mut rig = Rig::new(SchedConfig::up());
        let a = rig.spawn("a");
        let b = rig.spawn("b");
        rig.tasks.task_mut(a).counter = 19;
        rig.tasks.task_mut(b).counter = 20;
        for t in [a, b] {
            let mut ctx = SchedCtx {
                tasks: &mut rig.tasks,
                stats: &mut rig.stats,
                meter: &mut rig.meter,
                costs: &rig.costs,
                cfg: &rig.cfg,
                probe: None,
                locks: None,
            };
            rig.sched.del_from_runqueue(&mut ctx, t);
            rig.sched.add_to_runqueue(&mut ctx, t);
        }
        assert_eq!(rig.schedule(0, rig.idle), b);
    }

    #[test]
    fn running_task_is_out_of_structure() {
        let mut rig = Rig::new(SchedConfig::up());
        let a = rig.spawn("a");
        assert_eq!(rig.schedule(0, rig.idle), a);
        assert_eq!(rig.sched.nr_running(), 1);
        assert_eq!(rig.sched.queue.len(), 0);
        // Re-enters on the next schedule.
        let b = rig.spawn("b");
        rig.tasks.task_mut(b).counter = 1;
        {
            let mut ctx = SchedCtx {
                tasks: &mut rig.tasks,
                stats: &mut rig.stats,
                meter: &mut rig.meter,
                costs: &rig.costs,
                cfg: &rig.cfg,
                probe: None,
                locks: None,
            };
            rig.sched.del_from_runqueue(&mut ctx, b);
            rig.sched.add_to_runqueue(&mut ctx, b);
        }
        assert_eq!(rig.schedule(0, a), a, "prev re-wins on static goodness");
        assert_eq!(rig.sched.nr_running(), 2);
    }

    #[test]
    fn exhausted_tasks_trigger_recalc() {
        let mut rig = Rig::new(SchedConfig::up());
        let a = rig.spawn("a");
        assert_eq!(rig.schedule(0, rig.idle), a);
        rig.tasks.task_mut(a).counter = 0;
        let next = rig.schedule(0, a);
        assert_eq!(next, a);
        assert_eq!(rig.stats.cpu(0).recalc_entries, 1);
        assert_eq!(rig.tasks.task(a).counter, 20);
    }

    #[test]
    fn lone_yielder_reruns_without_recalc() {
        let mut rig = Rig::new(SchedConfig::up());
        let y = rig.spawn("y");
        assert_eq!(rig.schedule(0, rig.idle), y);
        rig.tasks.task_mut(y).policy.yielded = true;
        assert_eq!(rig.schedule(0, y), y);
        assert_eq!(rig.stats.cpu(0).recalc_entries, 0);
        assert_eq!(rig.stats.cpu(0).yield_reruns, 1);
    }

    #[test]
    fn mm_bonus_breaks_ties() {
        let mut rig = Rig::new(SchedConfig::up());
        let prev = rig.spawn("prev");
        rig.tasks.task_mut(prev).mm = MmId(5);
        assert_eq!(rig.schedule(0, rig.idle), prev);
        let kin = rig.tasks.spawn(&TaskSpec::named("kin").mm(MmId(5)));
        let stranger = rig.tasks.spawn(&TaskSpec::named("stranger").mm(MmId(6)));
        rig.add(kin);
        rig.add(stranger);
        rig.tasks.task_mut(prev).state = TaskState::Interruptible;
        assert_eq!(rig.schedule(0, prev), kin);
    }

    #[test]
    fn blocked_prev_leaves_structure() {
        let mut rig = Rig::new(SchedConfig::up());
        let a = rig.spawn("a");
        assert_eq!(rig.schedule(0, rig.idle), a);
        rig.tasks.task_mut(a).state = TaskState::Interruptible;
        assert_eq!(rig.schedule(0, a), rig.idle);
        assert_eq!(rig.sched.nr_running(), 0);
    }

    #[test]
    fn realtime_on_top() {
        let mut rig = Rig::new(SchedConfig::up());
        let other = rig.tasks.spawn(&TaskSpec::named("other"));
        rig.tasks.task_mut(other).counter = 40;
        rig.add(other);
        let rt = rig
            .tasks
            .spawn(&TaskSpec::named("rt").realtime(SchedClass::Fifo, 0));
        rig.add(rt);
        assert_eq!(rig.schedule(0, rig.idle), rt);
    }
}
