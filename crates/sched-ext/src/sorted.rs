//! The queue record `heap` and `aheap` share: the §5.2 reinsert
//! discipline around [`Members`] sets keyed by (static key, tie stamp).
//! A [`Design`] brings its partition, its tie and re-stamp rules and the
//! candidates of its selection pass; the run-queue hooks, the per-slot
//! filing, the prologue that re-files `prev`, the candidate test and the
//! epilogue that takes the pick out are written here once. A queued or
//! running task carries ELSC's off-list marker (`next` set, `prev` nil),
//! as the [`Scheduler`] contract asks of `on_runqueue()`.

use std::fmt::Debug;

use elsc_ktask::{CpuId, Link, ListNode, MmId, Task, TaskState, TaskTable, Tid};
use elsc_sched_api::order::{Member, Members};
use elsc_sched_api::{
    frame, topo_affinity_bonus, SchedConfig, SchedCtx, Scheduler, MM_BONUS, RT_GOODNESS_BASE,
};
use elsc_simcore::CostKind;

/// Static key of a task: real-time tasks above everything.
pub(crate) fn static_key(t: &Task) -> i32 {
    if t.policy.class.is_realtime() {
        RT_GOODNESS_BASE + t.rt_priority
    } else {
        t.static_goodness()
    }
}

/// What a sorted-queue design decides for itself.
pub trait Design: Default + Debug {
    /// The scheduler's name in reports.
    const NAME: &'static str;
    /// Whether the latest tail insert leads its ties (tail stamps count
    /// down) rather than the earliest.
    const LIFO: bool;
    /// Whether a recalculation re-stamps in ascending (old key, old
    /// stamp) order rather than ascending slot order.
    const RESTAMP_BY_KEY: bool;
    /// The set for tasks at home on (`processor`, `mm`), made if missing.
    fn set_mut(&mut self, home: Home) -> &mut Members;
    /// Called when a removal leaves the set of `home` empty.
    fn emptied(&mut self, _home: Home) {}
    /// The tasks one selection pass examines, in order, each with the key
    /// it competes at and the home its bonuses are weighed from.
    fn candidates<'a>(
        &'a self,
        tasks: &'a TaskTable,
        cfg: &SchedConfig,
    ) -> impl Iterator<Item = (&'a Task, i32, Home)>;
}

/// Where a task last ran and its address space: what its dynamic bonuses
/// depend on, and what a design may partition by.
pub type Home = (CpuId, MmId);

/// A run queue of tasks sorted by static key, partitioned by design `D`.
#[derive(Debug, Default)]
pub struct SortedQueue<D: Design> {
    /// The design's sets.
    pub(crate) design: D,
    /// Per slot, the home and member it is filed as, if queued.
    filed: Vec<Option<(Home, Member)>>,
    /// Tasks on the run queue: filed in a set, or running marked.
    nr: usize,
    /// The last stamp counted down, and the next counted up.
    down: i64,
    up: i64,
}

impl<D: Design> SortedQueue<D> {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stamps and records `t` at the front or the tail of its ties.
    fn stamp(&mut self, t: &Task, at_front: bool) -> (Home, Member) {
        let stamp = if at_front != D::LIFO {
            self.down -= 1;
            self.down
        } else {
            self.up += 1;
            self.up - 1
        };
        let slot = t.tid.index();
        if slot >= self.filed.len() {
            self.filed.resize(slot + 1, None);
        }
        let m = Member::new(static_key(t), stamp, slot, t.mm);
        *self.filed[slot].insert(((t.processor, t.mm), m))
    }

    fn insert(&mut self, tasks: &TaskTable, tid: Tid, at_front: bool) {
        let (home, m) = self.stamp(tasks.task(tid), at_front);
        self.design.set_mut(home).insert(m);
    }

    fn remove(&mut self, tid: Tid) -> bool {
        let Some((home, m)) = self.filed.get_mut(tid.index()).and_then(Option::take) else {
            return false;
        };
        let set = self.design.set_mut(home);
        set.remove(m.rank());
        if set.0.is_empty() {
            self.design.emptied(home);
        }
        true
    }

    /// The shared recalculation walk, then everything queued re-keyed and
    /// re-stamped at the tail in the design's order.
    fn recalculate(&mut self, ctx: &mut SchedCtx<'_>, cpu: CpuId) {
        frame::recalculate(ctx, cpu, self.nr_running(), false);
        let mut order: Vec<Member> = self.filed.iter().flatten().map(|f| f.1).collect();
        if D::RESTAMP_BY_KEY {
            order.sort_unstable_by_key(|m| (m.goodness(), m.stamp()));
        }
        let mut refiled: Vec<_> = order
            .iter()
            .map(|m| self.stamp(ctx.tasks.by_index(m.slot as usize), false))
            .collect();
        // Filed in ascending order, each member lands at its set's end.
        refiled.sort_unstable_by_key(|f| f.1.rank());
        self.design = D::default();
        for (home, m) in refiled {
            self.design.set_mut(home).insert(m);
        }
    }

    /// Files `tid` at the tail of its ties, charged as an index plus a
    /// list op.
    fn file(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge(ctx.costs, CostKind::TableIndex);
        ctx.meter.charge(ctx.costs, CostKind::ListOp);
        self.insert(ctx.tasks, tid, false);
    }

    fn requeue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid, at_front: bool) {
        ctx.meter.charge_n(ctx.costs, CostKind::ListOp, 2);
        if self.remove(tid) {
            self.insert(ctx.tasks, tid, at_front);
        }
    }
}

impl<D: Design> Scheduler for SortedQueue<D> {
    fn name(&self) -> &'static str {
        D::NAME
    }

    fn add_to_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        let t = ctx.tasks.task_mut(tid);
        debug_assert!(!t.on_runqueue(), "double add");
        t.run_list.next = Link::Head(0); // the off-list marker: queued, in no list
        self.nr += 1;
        self.file(ctx, tid);
    }

    fn del_from_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge(ctx.costs, CostKind::ListOp);
        self.remove(tid);
        self.nr -= 1;
        ctx.tasks.task_mut(tid).run_list = ListNode::detached();
    }

    fn move_first_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        self.requeue(ctx, tid, true);
    }

    fn move_last_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        self.requeue(ctx, tid, false);
    }

    fn schedule(&mut self, ctx: &mut SchedCtx<'_>, cpu: CpuId, prev: Tid, idle: Tid) -> Tid {
        frame::charge_entry(ctx, cpu);
        // A runnable prev is re-filed under its current key, after the
        // RR refresh; a blocked one leaves.
        let prev_yielded = ctx.tasks.task(prev).policy.yielded;
        if prev != idle && ctx.tasks.task(prev).state == TaskState::Running {
            frame::refresh_rr_quantum(ctx, prev);
            self.file(ctx, prev);
        } else if prev != idle {
            self.del_from_runqueue(ctx, prev);
        }

        let prev_mm = ctx.tasks.task(prev).mm;
        let next = loop {
            // The candidate test: a task running on another CPU is passed
            // over, an exhausted one only noted; any other costs a
            // goodness evaluation and is the fallback if it yielded, else
            // competes, the first of equals winning.
            let (mut best, mut yielded, mut exhausted) = (None, None, false);
            for (p, key, (home, mm)) in self.design.candidates(ctx.tasks, ctx.cfg) {
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
                    yielded = yielded.or(Some(p.tid));
                    continue;
                }
                // Distance-graded on declared topologies; the classic
                // `{+15 same CPU, else 0}` on flat trees.
                let mut w = key;
                if !p.policy.class.is_realtime() {
                    w += topo_affinity_bonus(&ctx.cfg.topology, cpu, home);
                    w += MM_BONUS * (mm == prev_mm) as i32;
                }
                if best.is_none_or(|(_, b)| w > b) {
                    best = Some((p.tid, w));
                }
            }
            if let Some((tid, _)) = best {
                break tid;
            }
            if let Some(tid) = yielded {
                ctx.stats.cpu_mut(cpu).yield_reruns += 1;
                break tid;
            }
            if !exhausted {
                break idle;
            }
            self.recalculate(ctx, cpu);
        };

        // The pick leaves its set and runs marked on-queue.
        if next != idle {
            ctx.meter.charge(ctx.costs, CostKind::ListOp);
            let was_queued = self.remove(next);
            debug_assert!(was_queued);
        }
        if prev_yielded {
            ctx.tasks.task_mut(prev).policy.yielded = false;
        }
        frame::commit(ctx, cpu, prev, next, idle)
    }

    fn nr_running(&self) -> usize {
        self.nr
    }

    fn debug_check(&self, tasks: &TaskTable) {
        for (slot, f) in self.filed.iter().enumerate() {
            let Some((home, m)) = *f else { continue };
            let t = tasks.by_index(slot);
            let name = tasks.name(t.tid);
            assert!(t.on_runqueue() && !t.in_list(), "{name} unmarked");
            assert_eq!(home, (t.processor, t.mm), "{name} in the wrong set");
            assert_eq!(m.goodness(), static_key(t), "stale key for {name}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AffinityHeapScheduler, HeapScheduler};
    use elsc_ktask::TaskSpec;
    use elsc_sched_api::{Rig, SchedConfig};

    /// Three tasks of equal static key added in order, then one pick.
    fn first_pick<D: Design>(sched: SortedQueue<D>) -> (Rig<SortedQueue<D>>, [Tid; 3], Tid) {
        let mut rig = Rig::new(SchedConfig::up(), sched);
        let tids = [0, 1, 2].map(|_| rig.tasks.spawn(&TaskSpec::named("t")));
        for t in tids {
            rig.add(t);
        }
        let next = rig.schedule(0, rig.idle(0));
        (rig, tids, next)
    }

    #[test]
    fn heap_ties_are_fifo_and_aheap_ties_lifo() {
        let (_, tids, next) = first_pick(HeapScheduler::new());
        assert_eq!(next, tids[0], "heap: the earliest tail insert leads");
        let (_, tids, next) = first_pick(AffinityHeapScheduler::new());
        assert_eq!(next, tids[2], "aheap: the latest tail insert leads");
    }

    #[test]
    fn heap_designs_mark_their_tasks_on_the_run_queue() {
        fn check<D: Design>(sched: SortedQueue<D>) {
            let (mut rig, [a, b, c], next) = first_pick(sched);
            let marked = |rig: &Rig<SortedQueue<D>>, t: Tid| {
                let task = rig.tasks.task(t);
                (task.on_runqueue(), task.in_list())
            };
            for t in [a, b, c] {
                assert_eq!(
                    marked(&rig, t),
                    (true, false),
                    "{}: queued or running",
                    D::NAME
                );
            }
            rig.tasks.task_mut(next).state = TaskState::Interruptible;
            let after = rig.schedule(0, next);
            assert_eq!(
                marked(&rig, next),
                (false, false),
                "{}: blocked prev",
                D::NAME
            );
            let waiting = [a, b, c].into_iter().find(|&t| t != next && t != after);
            let waiting = waiting.expect("a third task");
            rig.del(waiting);
            assert_eq!(
                marked(&rig, waiting),
                (false, false),
                "{}: deleted",
                D::NAME
            );
            assert_eq!(marked(&rig, after), (true, false), "{}: running", D::NAME);
            assert_eq!(rig.sched.nr_running(), 1);
        }
        check(HeapScheduler::new());
        check(AffinityHeapScheduler::new());
    }
}
