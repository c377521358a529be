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

use elsc_ktask::{CpuId, Lists, TaskTable, Tid};
use elsc_sched_api::{frame, LockPlan, SchedCtx, Scheduler, IDLE_GOODNESS};
use elsc_simcore::CostKind;

use crate::MAX_QUEUES;

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
    /// Panics if `nr_cpus == 0`, or exceeds [`MAX_QUEUES`] (a task
    /// remembers its queue in the one-byte `rq_hint`).
    pub fn new(nr_cpus: usize) -> Self {
        assert!(nr_cpus > 0, "need at least one queue");
        assert!(nr_cpus <= MAX_QUEUES, "mq: at most {MAX_QUEUES} queues");
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
        ctx.tasks.task_mut(tid).rq_hint = q as u8;
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
                ctx.tasks.task_mut(next).rq_hint = my_q as u8;
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

#[cfg(test)]
mod tests {
    use super::*;
    use elsc_ktask::TaskSpec;
    use elsc_sched_api::SchedConfig;
    use elsc_simcore::{CostModel, CycleMeter};
    use elsc_stats::SchedStats;

    struct Rig {
        tasks: TaskTable,
        stats: SchedStats,
        meter: CycleMeter,
        costs: CostModel,
        cfg: SchedConfig,
        sched: MultiQueueScheduler,
        idles: Vec<Tid>,
    }

    impl Rig {
        fn new(nr_cpus: usize) -> Rig {
            let cfg = SchedConfig::smp(nr_cpus);
            let mut tasks = TaskTable::new();
            let idles = (0..nr_cpus)
                .map(|c| {
                    let t = tasks.spawn(&TaskSpec::named("idle").priority(1));
                    tasks.task_mut(t).counter = 0;
                    tasks.task_mut(t).processor = c;
                    tasks.task_mut(t).has_cpu = true;
                    t
                })
                .collect();
            Rig {
                tasks,
                stats: SchedStats::new(nr_cpus),
                meter: CycleMeter::new(),
                costs: CostModel::default(),
                cfg,
                sched: MultiQueueScheduler::new(nr_cpus),
                idles,
            }
        }

        fn spawn_on(&mut self, name: &'static str, cpu: CpuId) -> Tid {
            let tid = self.tasks.spawn(&TaskSpec::named(name));
            self.tasks.task_mut(tid).processor = cpu;
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
            tid
        }

        fn schedule(&mut self, cpu: CpuId) -> Tid {
            let idle = self.idles[cpu];
            let mut ctx = SchedCtx {
                tasks: &mut self.tasks,
                stats: &mut self.stats,
                meter: &mut self.meter,
                costs: &self.costs,
                cfg: &self.cfg,
                probe: None,
                locks: None,
            };
            let next = self.sched.schedule(&mut ctx, cpu, idle, idle);
            self.sched.debug_check(&self.tasks);
            next
        }
    }

    #[test]
    fn tasks_land_on_their_home_queue() {
        let mut rig = Rig::new(2);
        let a = rig.spawn_on("a", 0);
        let b = rig.spawn_on("b", 1);
        assert_eq!(rig.schedule(0), a);
        assert_eq!(rig.schedule(1), b);
    }

    #[test]
    fn own_queue_scan_ignores_other_queues() {
        let mut rig = Rig::new(2);
        let _a = rig.spawn_on("a", 0);
        let _b = rig.spawn_on("b", 0);
        rig.meter.take();
        rig.schedule(1); // steals, but only after scanning its empty queue
                         // Examined tasks should be the steal scan only (2 tasks).
        assert_eq!(rig.stats.cpu(1).tasks_examined, 2);
    }

    #[test]
    fn stealing_takes_from_busiest_queue() {
        let mut rig = Rig::new(2);
        let _a = rig.spawn_on("a", 0);
        let _b = rig.spawn_on("b", 0);
        let stolen = rig.schedule(1);
        assert_ne!(stolen, rig.idles[1]);
        // The stolen task now belongs to queue 1.
        assert_eq!(rig.tasks.task(stolen).rq_hint, 1);
    }

    #[test]
    fn stealing_prefers_a_same_node_victim_under_topology() {
        // 2N2C1T: node 0 = CPUs {0,1}, node 1 = {2,3}. Queue 0 is the
        // fullest, but queue 2 shares CPU 3's LLC — the steal must take
        // the node-mate's task, not cross the node boundary.
        let mut rig = Rig::new(4);
        rig.cfg.topology = "2N2C1T".parse().unwrap();
        let _a = rig.spawn_on("a", 0);
        let _b = rig.spawn_on("b", 0);
        let _c = rig.spawn_on("c", 0);
        let d = rig.spawn_on("d", 2);
        let stolen = rig.schedule(3);
        assert_eq!(stolen, d, "same-node victim beats the fullest queue");
        // With every same-node queue now empty, the fullest remote queue
        // is still fair game (work beats locality when it's that or idle).
        let stolen2 = rig.schedule(3);
        assert_ne!(stolen2, rig.idles[3]);
        assert_eq!(rig.tasks.task(stolen2).rq_hint, 3);
    }

    #[test]
    fn idle_when_everything_empty() {
        let mut rig = Rig::new(2);
        assert_eq!(rig.schedule(0), rig.idles[0]);
        assert_eq!(rig.stats.cpu(0).idle_scheduled, 1);
    }

    #[test]
    fn scan_cost_divides_by_cpu_count() {
        // 40 tasks spread over 4 queues: a schedule() on one CPU scans
        // ~10 tasks, not 40.
        let mut rig = Rig::new(4);
        for i in 0..40 {
            rig.spawn_on("t", i % 4);
        }
        rig.schedule(0);
        assert_eq!(rig.stats.cpu(0).tasks_examined, 10);
    }

    #[test]
    fn exhausted_queue_triggers_recalc() {
        let mut rig = Rig::new(1);
        let a = rig.spawn_on("a", 0);
        rig.tasks.task_mut(a).counter = 0;
        let next = rig.schedule(0);
        assert_eq!(next, a);
        assert_eq!(rig.stats.cpu(0).recalc_entries, 1);
    }
}
