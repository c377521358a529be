//! The §8 "multi-priority-queue" design: per-CPU run queues.
//!
//! "Perhaps a multi-priority-queue solution would be more beneficial to
//! help the scheduler scale to multiple processors well." This prototype
//! gives each CPU its own (baseline-style, unsorted) run queue: wakeups
//! enqueue on the task's last processor, `schedule()` scans only its own
//! queue — an O(n / nr_cpus) scan — and steals the best task from the
//! busiest other queue when its own is empty. This is the direction the
//! Linux O(1) scheduler later took.
//!
//! The queues shard the paper's single `runqueue_lock` too: this
//! scheduler declares a [`LockPlan::PerCpu`] regime, so each queue is
//! guarded by its own lock domain. `schedule()` enters holding only its
//! own CPU's domain; the steal path takes the victim's domain through
//! [`SchedCtx::lock_queue_domain`] (kept deadlock-free by the
//! `double_rq_lock` canonical ordering in the locking layer) before
//! scanning the victim queue. Forcing `LockPlan::Global` via the
//! machine's lock-plan override separates the shorter-scan benefit from
//! the reduced-contention benefit in ablations. The system-wide counter
//! recalculation still runs under whatever the caller holds, as the
//! kernel's recalc loop did.

use elsc_ktask::{CpuId, TaskTable, Tid};
use elsc_sched_api::{frame, LockPlan, RunQueues, SchedCtx, Scheduler, IDLE_GOODNESS};
use elsc_simcore::CostKind;

/// Per-CPU run queues with stealing.
#[derive(Debug)]
pub struct MultiQueueScheduler {
    /// One list per CPU.
    rq: RunQueues,
}

impl MultiQueueScheduler {
    /// Creates queues for `nr_cpus` processors (at least one).
    pub fn new(nr_cpus: usize) -> Self {
        MultiQueueScheduler {
            rq: RunQueues::new(nr_cpus),
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
        let q = ctx.tasks.task(tid).processor % self.rq.lists().nr_lists();
        self.rq.insert(ctx, q, true, tid);
    }

    fn del_from_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        self.rq.remove(ctx, tid);
    }

    fn move_first_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        self.rq.requeue(ctx, tid, true);
    }

    fn move_last_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        self.rq.requeue(ctx, tid, false);
    }

    fn schedule(&mut self, ctx: &mut SchedCtx<'_>, cpu: CpuId, prev: Tid, idle: Tid) -> Tid {
        let entered = frame::enter(self, ctx, cpu, prev, idle);
        let rq = &self.rq;
        let my_q = cpu % rq.lists().nr_lists();
        let next = frame::select(ctx, cpu, prev, idle, entered, rq.nr_running(), |ctx, c| {
            // Own queue first.
            let best = frame::scan_list(rq.lists(), my_q, ctx, cpu, prev, entered.prev_mm);
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
            let victim = rq
                .fullest_other(my_q, |q| topo.same_node(q, cpu))
                .or_else(|| rq.fullest_other(my_q, |_| true));
            match victim {
                Some(victim) => {
                    // Take the victim queue's lock domain before touching
                    // its list (two domains held, canonical order).
                    ctx.lock_queue_domain(victim);
                    frame::scan_list(rq.lists(), victim, ctx, cpu, prev, entered.prev_mm)
                }
                None => best,
            }
        });

        if next != idle && next != prev {
            // Migrate a stolen task to this CPU's queue so future wakeups
            // land here. Both the source and destination queue domains
            // must be held for the splice (the source was taken by the
            // steal scan; this is a free re-check).
            let q = RunQueues::queue_of(ctx.tasks, next);
            if q != my_q && ctx.tasks.task(next).in_list() {
                ctx.lock_queue_domain(q);
                self.rq.move_to(ctx, next, my_q);
            }
        }
        frame::commit(ctx, cpu, prev, next, idle)
    }

    fn nr_running(&self) -> usize {
        self.rq.nr_running()
    }

    /// Per-CPU queues want per-CPU locks: this is the §8 regime the
    /// paper could not evaluate under the global `runqueue_lock`.
    fn lock_plan(&self, _nr_cpus: usize) -> LockPlan {
        LockPlan::PerCpu
    }

    fn debug_check(&self, tasks: &TaskTable) {
        self.rq.debug_check(tasks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsc_ktask::TaskSpec;
    use elsc_sched_api::{Rig, SchedConfig};

    fn rig(nr_cpus: usize) -> Rig<MultiQueueScheduler> {
        Rig::new(SchedConfig::smp(nr_cpus), MultiQueueScheduler::new(nr_cpus)).idle_per_cpu()
    }

    fn spawn_on(rig: &mut Rig<MultiQueueScheduler>, name: &'static str, cpu: CpuId) -> Tid {
        let tid = rig.tasks.spawn(&TaskSpec::named(name));
        rig.tasks.task_mut(tid).processor = cpu;
        rig.add(tid);
        tid
    }

    #[test]
    fn tasks_land_on_their_home_queue() {
        let mut rig = rig(2);
        let a = spawn_on(&mut rig, "a", 0);
        let b = spawn_on(&mut rig, "b", 1);
        assert_eq!(rig.schedule(0, rig.idle(0)), a);
        assert_eq!(rig.schedule(1, rig.idle(1)), b);
    }

    #[test]
    fn own_queue_scan_ignores_other_queues() {
        let mut rig = rig(2);
        let _a = spawn_on(&mut rig, "a", 0);
        let _b = spawn_on(&mut rig, "b", 0);
        rig.meter.take();
        rig.schedule(1, rig.idle(1)); // steals, but only after scanning its empty queue
                                      // Examined tasks should be the steal scan only (2 tasks).
        assert_eq!(rig.stats.cpu(1).tasks_examined, 2);
    }

    #[test]
    fn stealing_takes_from_busiest_queue() {
        let mut rig = rig(2);
        let _a = spawn_on(&mut rig, "a", 0);
        let _b = spawn_on(&mut rig, "b", 0);
        let stolen = rig.schedule(1, rig.idle(1));
        assert_ne!(stolen, rig.idle(1));
        // The stolen task now belongs to queue 1.
        assert_eq!(rig.tasks.task(stolen).rq_hint, 1);
    }

    #[test]
    fn stealing_prefers_a_same_node_victim_under_topology() {
        // 2N2C1T: node 0 = CPUs {0,1}, node 1 = {2,3}. Queue 0 is the
        // fullest, but queue 2 shares CPU 3's LLC — the steal must take
        // the node-mate's task, not cross the node boundary.
        let mut rig = rig(4);
        rig.cfg.topology = "2N2C1T".parse().unwrap();
        let _a = spawn_on(&mut rig, "a", 0);
        let _b = spawn_on(&mut rig, "b", 0);
        let _c = spawn_on(&mut rig, "c", 0);
        let d = spawn_on(&mut rig, "d", 2);
        let stolen = rig.schedule(3, rig.idle(3));
        assert_eq!(stolen, d, "same-node victim beats the fullest queue");
        // With every same-node queue now empty, the fullest remote queue
        // is still fair game (work beats locality when it's that or idle).
        let stolen2 = rig.schedule(3, rig.idle(3));
        assert_ne!(stolen2, rig.idle(3));
        assert_eq!(rig.tasks.task(stolen2).rq_hint, 3);
    }

    #[test]
    fn queues_past_256_keep_their_tasks() {
        // A one-byte queue hint would file CPU 299's task as queue 43.
        let mut rig = rig(300);
        let a = spawn_on(&mut rig, "a", 299);
        let b = spawn_on(&mut rig, "b", 299);
        assert_eq!(rig.tasks.task(a).rq_hint, 299);
        assert_eq!(rig.schedule(299, rig.idle(299)), b);
        // CPU 3 runs dry and steals `a` from queue 299.
        assert_eq!(rig.schedule(3, rig.idle(3)), a);
        assert_eq!(rig.tasks.task(a).rq_hint, 3);
        rig.sched.debug_check(&rig.tasks);
    }

    #[test]
    fn idle_when_everything_empty() {
        let mut rig = rig(2);
        assert_eq!(rig.schedule(0, rig.idle(0)), rig.idle(0));
        assert_eq!(rig.stats.cpu(0).idle_scheduled, 1);
    }

    #[test]
    fn scan_cost_divides_by_cpu_count() {
        // 40 tasks spread over 4 queues: a schedule() on one CPU scans
        // ~10 tasks, not 40.
        let mut rig = rig(4);
        for i in 0..40 {
            spawn_on(&mut rig, "t", i % 4);
        }
        rig.schedule(0, rig.idle(0));
        assert_eq!(rig.stats.cpu(0).tasks_examined, 10);
    }

    #[test]
    fn exhausted_queue_triggers_recalc() {
        let mut rig = rig(1);
        let a = spawn_on(&mut rig, "a", 0);
        rig.tasks.task_mut(a).counter = 0;
        let next = rig.schedule(0, rig.idle(0));
        assert_eq!(next, a);
        assert_eq!(rig.stats.cpu(0).recalc_entries, 1);
    }
}
