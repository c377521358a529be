//! The crate's one test rig: a design under test and everything a call
//! into it borrows, driven without the machine simulation — the shape of
//! `elsc_bench::rig::Rig`, generic over the design so its tests keep
//! their concrete scheduler's fields in reach.

use elsc_ktask::{CpuId, TaskSpec, TaskTable, Tid};
use elsc_sched_api::{SchedConfig, SchedCtx, Scheduler};
use elsc_simcore::{CostModel, CycleMeter};
use elsc_stats::SchedStats;

/// A design and the state its run-queue functions borrow.
pub(crate) struct Rig<S> {
    pub(crate) tasks: TaskTable,
    pub(crate) stats: SchedStats,
    pub(crate) meter: CycleMeter,
    pub(crate) costs: CostModel,
    pub(crate) cfg: SchedConfig,
    pub(crate) sched: S,
    /// The idle tasks, holding their processors: CPU 0's only, or one
    /// per CPU.
    pub(crate) idles: Vec<Tid>,
    /// CPU 0's idle task.
    pub(crate) idle: Tid,
}

impl<S: Scheduler> Rig<S> {
    /// A rig around `sched` with one idle task, on CPU 0.
    pub(crate) fn new(cfg: SchedConfig, sched: S) -> Rig<S> {
        Rig::with_idles(cfg, sched, 1)
    }

    /// A rig around `sched` with an idle task on every CPU.
    pub(crate) fn per_cpu(cfg: SchedConfig, sched: S) -> Rig<S> {
        let n = cfg.nr_cpus;
        Rig::with_idles(cfg, sched, n)
    }

    fn with_idles(cfg: SchedConfig, sched: S, n: usize) -> Rig<S> {
        let mut tasks = TaskTable::new();
        let idles: Vec<Tid> = (0..n)
            .map(|cpu| {
                let tid = tasks.spawn(&TaskSpec::named("idle").priority(1));
                let t = tasks.task_mut(tid);
                t.counter = 0;
                t.processor = cpu;
                t.has_cpu = true;
                tid
            })
            .collect();
        Rig {
            tasks,
            stats: SchedStats::new(cfg.nr_cpus),
            meter: CycleMeter::new(),
            costs: CostModel::default(),
            cfg,
            sched,
            idle: idles[0],
            idles,
        }
    }

    /// Calls into the design with the rig's state as its context — the
    /// crate's one `SchedCtx` literal.
    pub(crate) fn call<R>(&mut self, f: impl FnOnce(&mut S, &mut SchedCtx<'_>) -> R) -> R {
        let mut ctx = SchedCtx {
            tasks: &mut self.tasks,
            stats: &mut self.stats,
            meter: &mut self.meter,
            costs: &self.costs,
            cfg: &self.cfg,
            probe: None,
            locks: None,
        };
        f(&mut self.sched, &mut ctx)
    }

    /// Adds a task to the run queue.
    pub(crate) fn add(&mut self, tid: Tid) {
        self.call(|s, ctx| s.add_to_runqueue(ctx, tid));
    }

    /// Removes a task from the run queue.
    pub(crate) fn del(&mut self, tid: Tid) {
        self.call(|s, ctx| s.del_from_runqueue(ctx, tid));
    }

    /// One `schedule()` on `cpu` after `prev` (the CPU's idle task, or
    /// CPU 0's when it has none), then the design's consistency check.
    pub(crate) fn schedule(&mut self, cpu: CpuId, prev: Tid) -> Tid {
        let idle = *self.idles.get(cpu).unwrap_or(&self.idle);
        let next = self.call(|s, ctx| s.schedule(ctx, cpu, prev, idle));
        self.sched.debug_check(&self.tasks);
        next
    }

    /// One `schedule()` on `cpu` from its idle task.
    pub(crate) fn schedule_idle(&mut self, cpu: CpuId) -> Tid {
        self.schedule(cpu, self.idles[cpu])
    }
}
