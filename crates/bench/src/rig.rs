//! A raw-scheduler rig: drives the five run-queue functions directly,
//! without the machine simulation, so a timing loop around it measures the
//! algorithm's *host* cost and the meter reports its *simulated* cost.

use elsc_ktask::{MmId, TaskSpec, TaskTable, Tid};
use elsc_obs::EventBus;
use elsc_sched_api::{SchedConfig, SchedCtx, Scheduler};
use elsc_simcore::{CostModel, CycleMeter};
use elsc_stats::SchedStats;

use crate::SchedKind;

/// A scheduler and everything a call into it borrows.
pub struct Rig<S: Scheduler + ?Sized = dyn Scheduler> {
    /// The task table.
    pub tasks: TaskTable,
    /// Stats sink.
    pub stats: SchedStats,
    /// Simulated-cycle meter.
    pub meter: CycleMeter,
    /// Cost table.
    pub costs: CostModel,
    /// Machine shape.
    pub cfg: SchedConfig,
    /// Probe bus the scheduler emits into; `None` (no emission) unless a
    /// test attaches one.
    pub probe: Option<EventBus>,
    /// The scheduler under test.
    pub sched: Box<S>,
    /// Idle task for CPU 0.
    pub idle: Tid,
    /// The task currently "running" (prev for the next schedule call).
    pub current: Tid,
}

impl Rig {
    /// Builds a rig with `n` runnable default-priority tasks.
    pub fn new(kind: SchedKind, cfg: SchedConfig, n: usize) -> Rig {
        let mut rig = Rig::around(kind.build(cfg.topology), cfg);
        for i in 0..n {
            let tid = rig
                .tasks
                .spawn(&TaskSpec::named("load").mm(MmId(1 + (i % 8) as u32)));
            // Spread counters so static goodness varies across tasks.
            rig.tasks.task_mut(tid).counter = 1 + (i % 20) as i32;
            rig.tasks.task_mut(tid).processor = i % rig.cfg.nr_cpus;
            rig.add(tid);
        }
        rig
    }
}

impl<S: Scheduler + ?Sized> Rig<S> {
    /// An empty rig around `sched`: CPU 0's idle task holds the processor
    /// and nothing is runnable.
    pub fn around(sched: Box<S>, cfg: SchedConfig) -> Rig<S> {
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
            probe: None,
            sched,
            idle,
            current: idle,
        }
    }

    /// Calls into the scheduler with the rig's state as its context — the
    /// one place the crate builds a `SchedCtx`.
    pub fn call<R>(&mut self, f: impl FnOnce(&mut S, &mut SchedCtx<'_>) -> R) -> R {
        let mut ctx = SchedCtx {
            tasks: &mut self.tasks,
            stats: &mut self.stats,
            meter: &mut self.meter,
            costs: &self.costs,
            cfg: &self.cfg,
            probe: self.probe.as_mut(),
            locks: None,
        };
        f(&mut *self.sched, &mut ctx)
    }

    /// Adds a task to the run queue.
    pub fn add(&mut self, tid: Tid) {
        self.call(|s, ctx| s.add_to_runqueue(ctx, tid));
    }

    /// Removes a task from the run queue.
    pub fn del(&mut self, tid: Tid) {
        self.call(|s, ctx| s.del_from_runqueue(ctx, tid));
    }

    /// One `schedule()` call on CPU 0; the chosen task becomes `current`
    /// (so repeated calls model a hot scheduling loop, with the scheduler
    /// re-queuing the previous task itself).
    pub fn schedule_once(&mut self) -> Tid {
        let (prev, idle) = (self.current, self.idle);
        self.current = self.call(|s, ctx| s.schedule(ctx, 0, prev, idle));
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rig_builds_and_schedules() {
        for kind in SchedKind::ALL {
            let mut rig = Rig::new(kind.clone(), SchedConfig::smp(2), 50);
            assert_eq!(rig.sched.nr_running(), 50, "{}", kind.label());
            let next = rig.schedule_once();
            assert_ne!(next, rig.idle, "{}", kind.label());
            // A second call keeps working with prev = the chosen task.
            let again = rig.schedule_once();
            assert_ne!(again, rig.idle);
        }
    }

    #[test]
    fn simulated_cost_reg_linear_elsc_flat() {
        let cost = |kind: SchedKind, n: usize| {
            let mut rig = Rig::new(kind, SchedConfig::up(), n);
            rig.meter.take();
            for _ in 0..50 {
                rig.schedule_once();
            }
            rig.meter.take() as f64 / rig.stats.cpu(0).sched_calls as f64
        };
        let reg_1000 = cost(SchedKind::Reg, 1000);
        let reg_10 = cost(SchedKind::Reg, 10);
        let elsc_1000 = cost(SchedKind::Elsc, 1000);
        assert!(reg_1000 > reg_10 * 10.0);
        assert!(elsc_1000 < reg_1000 / 10.0);
    }
}
