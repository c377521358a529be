//! The list half of the paper's four run-queue manipulators (§5.1),
//! written once for `reg`, `mq`, `bubble` and the `.pol` host: the
//! `ListOp` charges, the list surgery, the per-list counts and
//! `nr_running`, and each task's list, kept in `Task::rq_hint`. A design
//! keeps only which list a task goes to and how its scan reads the bank.

use elsc_ktask::{Lists, TaskTable, Tid};
use elsc_simcore::{CostKind, MAX_CPUS};

use crate::scheduler::SchedCtx;

// `rq_hint` is two bytes; the largest bank is one list per CPU.
const _: () = assert!(MAX_CPUS <= u16::MAX as usize + 1);

/// A bank of run lists with a count per list, `nr_running`, and each
/// queued task's list in its `rq_hint`.
#[derive(Debug)]
pub struct RunQueues {
    lists: Lists,
    counts: Vec<usize>,
    nr_running: usize,
}

impl RunQueues {
    /// Creates `n` empty lists; panics unless `1 <= n <= u16::MAX + 1`.
    pub fn new(n: usize) -> RunQueues {
        assert!((1..=u16::MAX as usize + 1).contains(&n), "{n} run lists");
        RunQueues {
            lists: Lists::new(n),
            counts: vec![0; n],
            nr_running: 0,
        }
    }

    /// The list bank, for a design's scan.
    #[inline]
    pub fn lists(&self) -> &Lists {
        &self.lists
    }

    /// Tasks on list `q`.
    #[inline]
    pub fn count(&self, q: usize) -> usize {
        self.counts[q]
    }

    /// Tasks on every list (running tasks included).
    #[inline]
    pub fn nr_running(&self) -> usize {
        self.nr_running
    }

    /// The list `tid` is filed on.
    #[inline]
    pub fn queue_of(tasks: &TaskTable, tid: Tid) -> usize {
        tasks.task(tid).rq_hint as usize
    }

    /// The fullest non-empty list other than `mine` among those `near`
    /// accepts; ties go to the last.
    pub fn fullest_other(&self, mine: usize, near: impl Fn(usize) -> bool) -> Option<usize> {
        (0..self.counts.len())
            .filter(|&q| q != mine && self.counts[q] > 0 && near(q))
            .max_by_key(|&q| self.counts[q])
    }

    /// Files `tid` at the front or back of list `q` (`add_to_runqueue`).
    /// Charges nothing: the caller charges its `ListOp` before whatever
    /// work of its own picks `q`.
    #[inline]
    pub fn insert(&mut self, ctx: &mut SchedCtx<'_>, q: usize, front: bool, tid: Tid) {
        let t = ctx.tasks.task_mut(tid);
        debug_assert!(!t.on_runqueue(), "double add to run queue");
        t.rq_hint = q as u16;
        self.link(ctx.tasks, q, front, tid);
        self.counts[q] += 1;
        self.nr_running += 1;
    }

    /// Unfiles `tid` (`del_from_runqueue`), charging one `ListOp`.
    #[inline]
    pub fn remove(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge(ctx.costs, CostKind::ListOp);
        self.unfile(ctx.tasks, tid);
    }

    /// Moves `tid` to the front or back of its own list
    /// (`move_first_runqueue` / `move_last_runqueue`), charging two
    /// `ListOp`s.
    #[inline]
    pub fn requeue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid, front: bool) {
        ctx.meter.charge_n(ctx.costs, CostKind::ListOp, 2);
        self.lists.remove(ctx.tasks, tid);
        self.link(ctx.tasks, Self::queue_of(ctx.tasks, tid), front, tid);
    }

    /// Moves `tid` to the front of list `to`, charging two `ListOp`s: a
    /// migration between queues.
    #[inline]
    pub fn move_to(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid, to: usize) {
        ctx.meter.charge_n(ctx.costs, CostKind::ListOp, 2);
        self.unfile(ctx.tasks, tid);
        self.insert(ctx, to, true, tid);
    }

    /// Empties every list front to back, list 0 first, charging one
    /// `ListOp` per task and leaving each detached.
    pub fn drain(&mut self, ctx: &mut SchedCtx<'_>) -> Vec<Tid> {
        let mut out = Vec::with_capacity(self.nr_running);
        for q in 0..self.counts.len() {
            while let Some(i) = self.lists.first(q) {
                let tid = ctx.tasks.by_index(i as usize).tid;
                self.remove(ctx, tid);
                out.push(tid);
            }
        }
        out
    }

    /// Checks every list's links, its count, each member's `rq_hint` and
    /// `nr_running`.
    pub fn debug_check(&self, tasks: &TaskTable) {
        for q in 0..self.counts.len() {
            self.lists.check(tasks, q);
            let members = self.lists.collect(tasks, q);
            assert_eq!(members.len(), self.counts[q], "count on {q}");
            let filed_here = |&i: &u32| tasks.by_index(i as usize).rq_hint as usize == q;
            assert!(members.iter().all(filed_here), "rq_hint on {q}");
        }
        let total: usize = self.counts.iter().sum();
        assert_eq!(total, self.nr_running, "nr_running out of sync");
    }

    #[inline]
    fn link(&mut self, tasks: &mut TaskTable, q: usize, front: bool, tid: Tid) {
        if front {
            self.lists.insert_front(tasks, q, tid);
        } else {
            self.lists.insert_back(tasks, q, tid);
        }
    }

    #[inline]
    fn unfile(&mut self, tasks: &mut TaskTable, tid: Tid) {
        self.counts[Self::queue_of(tasks, tid)] -= 1;
        self.nr_running -= 1;
        self.lists.remove(tasks, tid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Rig, SchedConfig};
    use elsc_ktask::TaskSpec;
    use elsc_simcore::CostModel;

    /// Runs `f` on a fresh three-list bank over four tasks; returns the
    /// rig (its bank, tasks and meter) and the tasks.
    fn with_bank(
        f: impl FnOnce(&mut RunQueues, &mut SchedCtx<'_>, &[Tid]),
    ) -> (Rig<RunQueues>, Vec<Tid>) {
        let mut rig = Rig::new(SchedConfig::up(), RunQueues::new(3));
        let tids: Vec<Tid> = (0..4)
            .map(|_| rig.tasks.spawn(&TaskSpec::default()))
            .collect();
        rig.call(|rq, ctx| f(rq, ctx, &tids));
        rig.sched.debug_check(&rig.tasks);
        (rig, tids)
    }

    #[test]
    fn manipulators_keep_counts_lists_and_charges() {
        let (
            Rig {
                sched: rq,
                tasks,
                meter,
                ..
            },
            t,
        ) = with_bank(|rq, ctx, t| {
            rq.insert(ctx, 0, true, t[0]);
            rq.insert(ctx, 0, false, t[1]);
            rq.insert(ctx, 2, true, t[2]);
            rq.insert(ctx, 2, true, t[3]);
            rq.requeue(ctx, t[0], false); // list 0: 1 0
            rq.requeue(ctx, t[2], true); // list 2: 2 3
            rq.move_to(ctx, t[3], 1);
            rq.remove(ctx, t[1]);
        });
        assert_eq!((rq.count(0), rq.count(1), rq.count(2)), (1, 1, 1));
        assert_eq!(rq.nr_running(), 3);
        assert_eq!(RunQueues::queue_of(&tasks, t[3]), 1);
        // Inserts charge nothing; requeue 2 + 2, move 2, remove 1.
        let op = CostModel::default().get(CostKind::ListOp);
        assert_eq!(meter.cycles(), 7 * op);
        assert_eq!(meter.charges(), 7);
    }

    #[test]
    fn drain_goes_list_by_list_front_to_back() {
        let (
            Rig {
                sched: rq,
                tasks,
                meter,
                ..
            },
            _,
        ) = with_bank(|rq, ctx, t| {
            rq.insert(ctx, 2, true, t[0]);
            rq.insert(ctx, 0, true, t[1]);
            rq.insert(ctx, 0, true, t[2]);
            rq.insert(ctx, 1, false, t[3]);
            assert_eq!(rq.drain(ctx), [t[2], t[1], t[3], t[0]]);
        });
        assert_eq!(rq.nr_running(), 0);
        assert!((0..3).all(|q| rq.count(q) == 0));
        assert!(tasks.iter().all(|t| !t.on_runqueue()));
        assert_eq!(meter.charges(), 4);
    }

    #[test]
    fn the_fullest_other_list_takes_the_last_of_equals() {
        let (Rig { sched: rq, .. }, _) = with_bank(|rq, ctx, t| {
            rq.insert(ctx, 0, true, t[0]);
            rq.insert(ctx, 1, true, t[1]);
            rq.insert(ctx, 2, true, t[2]);
        });
        assert_eq!(rq.fullest_other(0, |_| true), Some(2));
        assert_eq!(rq.fullest_other(2, |_| true), Some(1));
        assert_eq!(rq.fullest_other(0, |q| q == 1), Some(1));
        assert_eq!(rq.fullest_other(0, |q| q == 0), None);
    }
}
