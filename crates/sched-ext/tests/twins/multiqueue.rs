//! `mq` as it was before it moved onto `RunQueues`: its own list bank,
//! per-queue counts and `nr_running`, and the four run-queue hooks and
//! the steal migration written out by hand. Kept verbatim (the 256-queue
//! cap and the one-byte `rq_hint` casts aside) as the reference the
//! shared list bank is held to.

use elsc_ktask::{CpuId, Lists, TaskTable, Tid};
use elsc_sched_api::{frame, LockPlan, SchedCtx, Scheduler, IDLE_GOODNESS};
use elsc_simcore::CostKind;

/// Per-CPU run queues with stealing.
#[derive(Debug)]
pub struct MultiQueueScheduler {
    /// One list per CPU.
    lists: Lists,
    /// Tasks per queue.
    counts: Vec<usize>,
    nr_running: usize,
}

impl MultiQueueScheduler {
    /// Creates queues for `nr_cpus` processors.
    ///
    /// # Panics
    ///
    /// Panics if `nr_cpus == 0`.
    pub fn new(nr_cpus: usize) -> Self {
        assert!(nr_cpus > 0, "need at least one queue");
        MultiQueueScheduler {
            lists: Lists::new(nr_cpus),
            counts: vec![0; nr_cpus],
            nr_running: 0,
        }
    }
}

impl Scheduler for MultiQueueScheduler {
    fn name(&self) -> &'static str {
        "mq"
    }

    fn add_to_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge(ctx.costs, CostKind::ListOp);
        // Wakeups enqueue on the task's last processor.
        let q = ctx.tasks.task(tid).processor % self.counts.len();
        ctx.tasks.task_mut(tid).rq_hint = q as u16;
        self.lists.insert_front(ctx.tasks, q, tid);
        self.counts[q] += 1;
        self.nr_running += 1;
    }

    fn del_from_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge(ctx.costs, CostKind::ListOp);
        let q = ctx.tasks.task(tid).rq_hint as usize;
        self.lists.remove(ctx.tasks, tid);
        self.counts[q] -= 1;
        self.nr_running -= 1;
    }

    fn move_first_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge_n(ctx.costs, CostKind::ListOp, 2);
        let q = ctx.tasks.task(tid).rq_hint as usize;
        self.lists.remove(ctx.tasks, tid);
        self.lists.insert_front(ctx.tasks, q, tid);
    }

    fn move_last_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge_n(ctx.costs, CostKind::ListOp, 2);
        let q = ctx.tasks.task(tid).rq_hint as usize;
        self.lists.remove(ctx.tasks, tid);
        self.lists.insert_back(ctx.tasks, q, tid);
    }

    fn schedule(&mut self, ctx: &mut SchedCtx<'_>, cpu: CpuId, prev: Tid, idle: Tid) -> Tid {
        let entered = frame::enter(self, ctx, cpu, prev, idle);
        let my_q = cpu % self.counts.len();
        let (lists, counts) = (&self.lists, &self.counts);
        let next = frame::select(ctx, cpu, prev, idle, entered, self.nr_running, |ctx, c| {
            // Own queue first.
            let best = frame::scan_list(lists, my_q, ctx, cpu, prev, entered.prev_mm);
            // Steal from the fullest other queue when neither `prev` nor
            // our own queue offers a candidate — preferring victims that
            // share this CPU's LLC. A task stolen from a queue on the
            // same NUMA node keeps its working set warm in the shared
            // last-level cache; crossing the node boundary means a cold
            // start plus interconnect traffic (the machine charges a
            // doubled migration penalty for it). On a flat tree every
            // queue is same-node, so the preference degenerates to the
            // global fullest-queue pick.
            if best.1.is_some() || c != IDLE_GOODNESS {
                return best;
            }
            let topo = &ctx.cfg.topology;
            let others = || (0..counts.len()).filter(|&q| q != my_q && counts[q] > 0);
            let victim = others()
                .filter(|&q| topo.same_node(q, cpu))
                .max_by_key(|&q| counts[q])
                .or_else(|| others().max_by_key(|&q| counts[q]));
            match victim {
                Some(victim) => {
                    // Take the victim queue's lock domain before touching
                    // its list (two domains held, canonical order).
                    ctx.lock_queue_domain(victim);
                    frame::scan_list(lists, victim, ctx, cpu, prev, entered.prev_mm)
                }
                None => best,
            }
        });

        if next != idle && next != prev {
            // Migrate a stolen task to this CPU's queue so future wakeups
            // land here. Both the source and destination queue domains
            // must be held for the splice (the source was taken by the
            // steal scan; this is a free re-check).
            let q = ctx.tasks.task(next).rq_hint as usize;
            if q != my_q && ctx.tasks.task(next).in_list() {
                ctx.lock_queue_domain(q);
                ctx.meter.charge_n(ctx.costs, CostKind::ListOp, 2);
                self.lists.remove(ctx.tasks, next);
                self.counts[q] -= 1;
                ctx.tasks.task_mut(next).rq_hint = my_q as u16;
                self.lists.insert_front(ctx.tasks, my_q, next);
                self.counts[my_q] += 1;
            }
        }
        frame::commit(ctx, cpu, prev, next, idle)
    }

    fn nr_running(&self) -> usize {
        self.nr_running
    }

    /// Per-CPU queues want per-CPU locks: this is the §8 regime the
    /// paper could not evaluate under the global `runqueue_lock`.
    fn lock_plan(&self, _nr_cpus: usize) -> LockPlan {
        LockPlan::PerCpu
    }

    fn debug_check(&self, tasks: &TaskTable) {
        let mut total = 0;
        for q in 0..self.counts.len() {
            self.lists.check(tasks, q);
            assert_eq!(self.lists.len(tasks, q), self.counts[q], "count on {q}");
            total += self.counts[q];
        }
        assert_eq!(total, self.nr_running, "nr_running out of sync");
    }
}
