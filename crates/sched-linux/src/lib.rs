//! The baseline scheduler: Linux 2.3.99-pre4's `schedule()` (paper §3).
//!
//! The run queue is a single circular doubly-linked list of all
//! `TASK_RUNNING` tasks, kept in no particular order. Task selection
//! examines the *entire* list, evaluating `goodness()` for every task not
//! currently executing on another processor, and picks the maximum — ties
//! go to the task closer to the front. If the best weight is zero (every
//! runnable task out of quantum, or the only candidate just yielded), the
//! scheduler recalculates the counters of **every task in the system** and
//! scans again.
//!
//! This is the O(n)-per-invocation algorithm whose cost the paper measures
//! at 37–55 % of kernel time under VolanoMark. The virtual model charges
//! the walk: one `GoodnessEval` and one `tasks_examined` per schedulable
//! task, so that cost surfaces in the simulated machine the same way. The
//! host does not walk: it answers from a goodness index (`index.rs`) fed by
//! the run-queue hooks and the task table's change log, which returns the
//! walk's pick and the walk's count. Debug builds run the walk beside it
//! on every decision and assert that both agree.
#![warn(missing_docs)]

mod index;

use elsc_ktask::{CpuId, Lists, TaskTable, Tid};
use elsc_sched_api::frame::{self, Entered};
use elsc_sched_api::{RunQueues, SchedCtx, Scheduler};
use elsc_simcore::CostKind;

use index::GoodnessIndex;

/// The stock Linux 2.3.99-pre4 scheduler ("reg" in the paper's figures).
#[derive(Debug)]
pub struct LinuxScheduler {
    /// The single run-queue list (`runqueue_head`) and `nr_running`.
    rq: RunQueues,
    /// The host's answer to the goodness scan.
    index: GoodnessIndex,
}

impl Default for LinuxScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl LinuxScheduler {
    /// Creates an empty run queue.
    pub fn new() -> Self {
        LinuxScheduler {
            rq: RunQueues::new(1),
            index: GoodnessIndex::default(),
        }
    }

    /// The run queue: list 0 of the bank, for a wrapper that walks it
    /// before falling back to [`select`](LinuxScheduler::select), and for
    /// tests and examples that read the queue order.
    pub fn run_list(&self) -> &Lists {
        self.rq.lists()
    }

    /// The stock selection (§3.3): `prev` first, then the O(n) goodness
    /// scan of the whole run queue — every task not executing on a
    /// processor, ties to the task closer to the front — recalculating
    /// every counter in the system and scanning again while the best
    /// weight is zero. Each scan charges the walk it models and is
    /// answered by the index.
    #[inline]
    pub fn select(
        &mut self,
        ctx: &mut SchedCtx<'_>,
        cpu: CpuId,
        prev: Tid,
        idle: Tid,
        entered: Entered,
    ) -> Tid {
        let (lists, index) = (self.rq.lists(), &mut self.index);
        frame::select(
            ctx,
            cpu,
            prev,
            idle,
            entered,
            self.rq.nr_running(),
            |ctx, _| {
                let (best, n) = index.best(lists, ctx.tasks, ctx.cfg, cpu, prev, entered.prev_mm);
                #[cfg(debug_assertions)]
                reference::assert_walk_agrees(lists, ctx, cpu, prev, entered.prev_mm, best, n);
                ctx.meter.charge_n(ctx.costs, CostKind::GoodnessEval, n);
                ctx.stats.cpu_mut(cpu).tasks_examined += n;
                best
            },
        )
    }

    /// Empties the run queue front to back, leaving each task detached,
    /// for a wrapper that is being ejected (`learned:*`). Running tasks
    /// stay linked and adds go to the front, so a reversed re-add into a
    /// fresh `LinuxScheduler` reproduces the queue order exactly.
    pub fn drain(&mut self, ctx: &mut SchedCtx<'_>) -> Vec<Tid> {
        let out = self.rq.drain(ctx);
        self.index.clear(ctx.tasks);
        out
    }
}

impl Scheduler for LinuxScheduler {
    fn name(&self) -> &'static str {
        "reg"
    }

    /// Newly created or awakened tasks go to the *front* of the run queue
    /// (paper §3.2).
    fn add_to_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge(ctx.costs, CostKind::ListOp);
        self.rq.insert(ctx, 0, true, tid);
        self.index.stamp_front(tid);
    }

    fn del_from_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        self.rq.remove(ctx, tid);
    }

    fn move_first_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        self.rq.requeue(ctx, tid, true);
        self.index.stamp_front(tid);
    }

    fn move_last_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        self.rq.requeue(ctx, tid, false);
        self.index.stamp_back(tid);
    }

    fn schedule(&mut self, ctx: &mut SchedCtx<'_>, cpu: CpuId, prev: Tid, idle: Tid) -> Tid {
        let entered = frame::enter(self, ctx, cpu, prev, idle);
        let next = self.select(ctx, cpu, prev, idle, entered);
        frame::commit(ctx, cpu, prev, next, idle)
    }

    fn nr_running(&self) -> usize {
        self.rq.nr_running()
    }

    fn debug_check(&self, tasks: &TaskTable) {
        self.rq.debug_check(tasks);
    }
}

/// The walk the index replaces, run beside it on every scan of a debug
/// build — tier-1 and CI's `checked` job — so every reg and `learned:*`
/// decision in the test suite checks the index against it.
#[cfg(debug_assertions)]
mod reference {
    use super::*;
    use elsc_ktask::MmId;

    /// Asserts that the O(n) walk of the run queue picks `best` and
    /// examines `n` tasks. The walk's own charges are rolled back: the
    /// caller charges the index's count.
    pub(super) fn assert_walk_agrees(
        lists: &Lists,
        ctx: &mut SchedCtx<'_>,
        cpu: CpuId,
        prev: Tid,
        prev_mm: MmId,
        best: (i32, Option<Tid>),
        n: u64,
    ) {
        let (meter, examined) = (*ctx.meter, ctx.stats.cpu(cpu).tasks_examined);
        let walked = frame::scan_list(lists, 0, ctx, cpu, prev, prev_mm);
        let walked_n = ctx.stats.cpu(cpu).tasks_examined - examined;
        *ctx.meter = meter;
        ctx.stats.cpu_mut(cpu).tasks_examined = examined;
        assert_eq!(
            (walked, walked_n),
            (best, n),
            "goodness index != the run-queue walk on cpu {cpu}, prev {prev:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsc_ktask::{MmId, SchedClass, TaskSpec, TaskState};
    use elsc_sched_api::{Rig, SchedConfig};
    use elsc_simcore::CostModel;

    /// A rig around a fresh `LinuxScheduler`.
    fn rig(cfg: SchedConfig) -> Rig<LinuxScheduler> {
        Rig::new(cfg, LinuxScheduler::new())
    }

    #[test]
    fn empty_queue_schedules_idle() {
        let mut rig = rig(SchedConfig::up());
        let next = rig.schedule(0, rig.idle(0));
        assert_eq!(next, rig.idle(0));
        assert_eq!(rig.stats.cpu(0).idle_scheduled, 1);
        // Footnote 1: no recalculation for an empty run queue.
        assert_eq!(rig.stats.cpu(0).recalc_entries, 0);
    }

    #[test]
    fn picks_highest_goodness() {
        let mut rig = rig(SchedConfig::up());
        let a = rig.spawn("a");
        let b = rig.spawn("b");
        rig.tasks.task_mut(a).counter = 5;
        rig.tasks.task_mut(b).counter = 15;
        let next = rig.schedule(0, rig.idle(0));
        assert_eq!(next, b);
        assert!(rig.tasks.task(b).has_cpu);
    }

    #[test]
    fn front_of_queue_wins_ties() {
        let mut rig = rig(SchedConfig::up());
        let a = rig.spawn("a");
        let b = rig.spawn("b");
        // Same counter/priority/mm; b was added later so it is at the
        // *front* (add inserts at the head).
        assert_eq!(
            rig.sched.run_list().collect(&rig.tasks, 0),
            vec![b.index() as u32, a.index() as u32]
        );
        let next = rig.schedule(0, rig.idle(0));
        assert_eq!(next, b);
    }

    #[test]
    fn scan_examines_whole_queue() {
        let mut rig = rig(SchedConfig::up());
        for _ in 0..10 {
            rig.spawn("t");
        }
        rig.schedule(0, rig.idle(0));
        assert_eq!(rig.stats.cpu(0).tasks_examined, 10);
        let before = rig.stats.cpu(0).tasks_examined;
        // Second call: the whole queue is examined again — the paper's
        // "redundant calculation".
        let t = rig.sched.run_list().collect(&rig.tasks, 0)[0];
        let running = rig.tasks.by_index(t as usize).tid;
        rig.schedule(0, running);
        assert_eq!(rig.stats.cpu(0).tasks_examined - before, 10);
    }

    #[test]
    fn zero_counters_trigger_system_wide_recalc() {
        let mut rig = rig(SchedConfig::up());
        let a = rig.spawn("a");
        let b = rig.spawn("b");
        rig.tasks.task_mut(a).counter = 0;
        rig.tasks.task_mut(b).counter = 0;
        // A blocked task elsewhere in the system also gets recalculated.
        let blocked = rig.tasks.spawn(&TaskSpec::named("blocked"));
        rig.tasks.task_mut(blocked).state = TaskState::Interruptible;
        rig.tasks.task_mut(blocked).counter = 4;

        let next = rig.schedule(0, rig.idle(0));
        assert_eq!(rig.stats.cpu(0).recalc_entries, 1);
        // 3 live non-idle tasks + idle = 4 recalculated.
        assert_eq!(rig.stats.cpu(0).recalc_tasks, 4);
        assert_eq!(rig.tasks.task(a).counter, 20);
        assert_eq!(rig.tasks.task(blocked).counter, 2 + 20);
        assert!(next == a || next == b);
    }

    #[test]
    fn yield_with_other_tasks_runs_the_other() {
        let mut rig = rig(SchedConfig::up());
        let y = rig.spawn("yielder");
        let o = rig.spawn("other");
        rig.tasks.task_mut(y).policy.yielded = true;
        rig.tasks.task_mut(y).has_cpu = true;
        let next = rig.schedule(0, y);
        assert_eq!(next, o);
        // The yield bit is consumed.
        assert!(!rig.tasks.task(y).policy.yielded);
    }

    #[test]
    fn yield_alone_triggers_recalc_storm() {
        // The pathological behaviour ELSC fixes (paper §5.2 end): a task
        // yielding with no other runnable task forces a system-wide
        // recalculation before being re-chosen.
        let mut rig = rig(SchedConfig::up());
        let y = rig.spawn("yielder");
        rig.tasks.task_mut(y).policy.yielded = true;
        rig.tasks.task_mut(y).has_cpu = true;
        let next = rig.schedule(0, y);
        assert_eq!(next, y);
        assert_eq!(rig.stats.cpu(0).recalc_entries, 1);
    }

    #[test]
    fn blocking_prev_leaves_the_queue() {
        let mut rig = rig(SchedConfig::up());
        let a = rig.spawn("a");
        let b = rig.spawn("b");
        rig.tasks.task_mut(a).has_cpu = true;
        rig.tasks.task_mut(a).state = TaskState::Interruptible;
        let next = rig.schedule(0, a);
        assert_eq!(next, b);
        assert!(!rig.tasks.task(a).on_runqueue());
        assert_eq!(rig.sched.nr_running(), 1);
    }

    #[test]
    fn smp_skips_tasks_running_elsewhere() {
        let mut rig = rig(SchedConfig::smp(2));
        let a = rig.spawn("a");
        let b = rig.spawn("b");
        rig.tasks.task_mut(a).has_cpu = true; // running on the other CPU
        rig.tasks.task_mut(a).counter = 40;
        rig.tasks.task_mut(b).counter = 1;
        let next = rig.schedule(0, rig.idle(0));
        assert_eq!(next, b, "the stronger task is unavailable");
    }

    #[test]
    fn affinity_bonus_steers_selection() {
        let mut rig = rig(SchedConfig::smp(2));
        let a = rig.spawn("a");
        let b = rig.spawn("b");
        // Equal static goodness; `a` last ran on CPU 1.
        rig.tasks.task_mut(a).processor = 1;
        rig.tasks.task_mut(b).processor = 0;
        // `b` is at the front (later add), so without the bonus it wins.
        let next = rig.schedule(1, rig.idle(0));
        assert_eq!(next, a);
    }

    #[test]
    fn mm_bonus_breaks_near_ties() {
        let mut rig = rig(SchedConfig::up());
        let prev = rig.spawn("prev");
        let kin = rig.spawn("kin");
        let stranger = rig.spawn("stranger");
        rig.tasks.task_mut(prev).mm = MmId(7);
        rig.tasks.task_mut(kin).mm = MmId(7);
        rig.tasks.task_mut(stranger).mm = MmId(8);
        // prev blocks; kin and stranger are otherwise identical, stranger
        // is in front of kin.
        rig.tasks.task_mut(prev).has_cpu = true;
        rig.tasks.task_mut(prev).state = TaskState::Interruptible;
        assert_eq!(
            rig.sched.run_list().collect(&rig.tasks, 0)[0],
            stranger.index() as u32
        );
        let next = rig.schedule(0, prev);
        assert_eq!(next, kin, "+1 mm bonus wins the tie");
    }

    #[test]
    fn rr_exhaustion_requeues_at_back_with_fresh_quantum() {
        let mut rig = rig(SchedConfig::up());
        let rr = rig
            .tasks
            .spawn(&TaskSpec::named("rr").realtime(SchedClass::Rr, 10));
        rig.add(rr);
        let other = rig
            .tasks
            .spawn(&TaskSpec::named("rr2").realtime(SchedClass::Rr, 10));
        rig.add(other);
        rig.tasks.task_mut(rr).counter = 0;
        rig.tasks.task_mut(rr).has_cpu = true;
        let next = rig.schedule(0, rr);
        // Both RT with equal rt_priority: prev would win ties, but RR
        // exhaustion moved it behind `other`... prev still wins because it
        // is evaluated first. The kernel behaves the same way; what must
        // hold is the quantum refresh and the queue order.
        assert_eq!(rig.tasks.task(rr).counter, rig.tasks.task(rr).priority);
        assert_eq!(
            rig.sched.run_list().collect(&rig.tasks, 0).last().copied(),
            Some(rr.index() as u32)
        );
        let _ = next;
    }

    #[test]
    fn realtime_always_beats_timesharing() {
        let mut rig = rig(SchedConfig::up());
        let normal = rig.spawn("normal");
        rig.tasks.task_mut(normal).counter = 40;
        let rt = rig
            .tasks
            .spawn(&TaskSpec::named("rt").realtime(SchedClass::Fifo, 0));
        rig.add(rt);
        // Even an exhausted FIFO task outranks the best SCHED_OTHER.
        rig.tasks.task_mut(rt).counter = 0;
        let next = rig.schedule(0, rig.idle(0));
        assert_eq!(next, rt);
    }

    #[test]
    fn scheduler_cost_scales_with_queue_length() {
        // The paper's core complaint: cycles per schedule() grow linearly.
        let cost_at = |n: usize| -> u64 {
            let mut rig = rig(SchedConfig::up());
            for _ in 0..n {
                rig.spawn("t");
            }
            rig.meter.take();
            rig.schedule(0, rig.idle(0));
            rig.meter.take()
        };
        let c10 = cost_at(10);
        let c100 = cost_at(100);
        let c1000 = cost_at(1000);
        assert!(c100 > c10);
        assert!(c1000 > c100);
        // Roughly linear: the per-task term dominates at 1000 tasks.
        let per_task = (c1000 - c100) as f64 / 900.0;
        let expected = CostModel::default().get(CostKind::GoodnessEval) as f64;
        assert!(
            (per_task - expected).abs() < 1.0,
            "per-task cost {per_task} should approximate {expected}"
        );
    }

    #[test]
    fn prev_stays_on_queue_while_running() {
        let mut rig = rig(SchedConfig::up());
        let a = rig.spawn("a");
        let next = rig.schedule(0, rig.idle(0));
        assert_eq!(next, a);
        // Unlike ELSC, the baseline keeps the running task linked.
        assert!(rig.tasks.task(a).on_runqueue());
        assert!(rig.tasks.task(a).in_list());
        assert_eq!(rig.sched.nr_running(), 1);
    }
}
