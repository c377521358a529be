//! The one harness that drives a design without a machine around it.
//!
//! A [`Rig`] owns everything a [`SchedCtx`] borrows — the task table,
//! the statistics, the cycle meter, the cost table, the machine shape, an
//! optional probe bus and an optional [`LockModel`] — plus the idle task
//! of each CPU and the design itself. [`Rig::call`] lends that state to
//! one call into the design; it is the only place outside the machine
//! (`Machine::sched_call`) that builds a `SchedCtx`. Unit tests, doc
//! examples, the differential tests, the Figure 1 renderer and the
//! host-time probes of `schedule()` all drive designs through it.
//!
//! The [`frame`](crate::frame) example tests a design this way.

use elsc_ktask::{CpuId, TaskSpec, TaskTable, Tid};
use elsc_obs::EventBus;
use elsc_simcore::{CostModel, CycleMeter};
use elsc_stats::SchedStats;

use crate::config::SchedConfig;
use crate::lockplan::LockModel;
use crate::scheduler::{SchedCtx, Scheduler};

/// A design — a boxed [`Scheduler`], or a bare [`RunQueues`](crate::RunQueues)
/// bank — and everything a call into it borrows.
pub struct Rig<S: ?Sized = dyn Scheduler> {
    /// The task table.
    pub tasks: TaskTable,
    /// The statistics counters.
    pub stats: SchedStats,
    /// The simulated-cycle meter; never reset by the rig.
    pub meter: CycleMeter,
    /// The cost table (the calibrated default).
    pub costs: CostModel,
    /// The machine shape.
    pub cfg: SchedConfig,
    /// The probe bus the design emits into; `None` (no emission) unless
    /// a test attaches one.
    pub probe: Option<EventBus>,
    /// The lock model lent as [`SchedCtx::locks`]; `None` unless a test
    /// attaches one (and then takes and releases its domains itself).
    pub locks: Option<LockModel>,
    /// The design under test.
    pub sched: Box<S>,
    /// The task [`schedule_once`](Rig::schedule_once) last picked: CPU
    /// 0's `prev` for the next one.
    pub current: Tid,
    /// The idle tasks, holding their processors: CPU 0's only, or one
    /// per CPU.
    idles: Vec<Tid>,
}

impl<S> Rig<S> {
    /// A rig around `sched`: CPU 0's idle task holds the processor and
    /// nothing is runnable.
    pub fn new(cfg: SchedConfig, sched: S) -> Rig<S> {
        Rig::boxed(cfg, Box::new(sched))
    }
}

impl<S: ?Sized> Rig<S> {
    /// [`Rig::new`] around an already boxed design (a
    /// `Box<dyn Scheduler>` from a registry).
    pub fn boxed(cfg: SchedConfig, sched: Box<S>) -> Rig<S> {
        let mut tasks = TaskTable::new();
        let idle = spawn_idle(&mut tasks, 0);
        Rig {
            tasks,
            stats: SchedStats::new(cfg.nr_cpus),
            meter: CycleMeter::new(),
            costs: CostModel::default(),
            cfg,
            probe: None,
            locks: None,
            sched,
            current: idle,
            idles: vec![idle],
        }
    }

    /// Gives every other CPU an idle task holding its processor too. Call
    /// it before spawning anything, so the idle tasks are the table's
    /// first entries, CPU by CPU.
    pub fn idle_per_cpu(mut self) -> Rig<S> {
        debug_assert_eq!(self.tasks.len(), 1, "idle tasks come first");
        for cpu in 1..self.cfg.nr_cpus {
            self.idles.push(spawn_idle(&mut self.tasks, cpu));
        }
        self
    }

    /// `cpu`'s idle task, or CPU 0's when it has none of its own.
    pub fn idle(&self, cpu: CpuId) -> Tid {
        *self.idles.get(cpu).unwrap_or(&self.idles[0])
    }

    /// Calls into the design with the rig's state as its context — the
    /// one `SchedCtx` literal outside the machine.
    pub fn call<R>(&mut self, f: impl FnOnce(&mut S, &mut SchedCtx<'_>) -> R) -> R {
        let mut ctx = SchedCtx {
            tasks: &mut self.tasks,
            stats: &mut self.stats,
            meter: &mut self.meter,
            costs: &self.costs,
            cfg: &self.cfg,
            probe: self.probe.as_mut(),
            locks: self.locks.as_mut(),
        };
        f(&mut self.sched, &mut ctx)
    }
}

impl<S: Scheduler + ?Sized> Rig<S> {
    /// Adds a task to the run queue.
    pub fn add(&mut self, tid: Tid) {
        self.call(|s, ctx| s.add_to_runqueue(ctx, tid));
    }

    /// Removes a task from the run queue.
    pub fn del(&mut self, tid: Tid) {
        self.call(|s, ctx| s.del_from_runqueue(ctx, tid));
    }

    /// Spawns a default task named `name` and adds it to the run queue.
    pub fn spawn(&mut self, name: &'static str) -> Tid {
        let tid = self.tasks.spawn(&TaskSpec::named(name));
        self.add(tid);
        tid
    }

    /// One `schedule()` on `cpu` after `prev` (with `cpu`'s idle task),
    /// then the design's consistency check.
    pub fn schedule(&mut self, cpu: CpuId, prev: Tid) -> Tid {
        let idle = self.idle(cpu);
        let next = self.call(|s, ctx| s.schedule(ctx, cpu, prev, idle));
        self.sched.debug_check(&self.tasks);
        next
    }

    /// One `schedule()` on CPU 0 after [`current`](Rig::current), which
    /// the pick replaces — repeated calls model a hot scheduling loop,
    /// the design re-queuing the previous task itself. No consistency
    /// check: host-time probes time exactly the call.
    pub fn schedule_once(&mut self) -> Tid {
        let (prev, idle) = (self.current, self.idles[0]);
        self.current = self.call(|s, ctx| s.schedule(ctx, 0, prev, idle));
        self.current
    }
}

/// Spawns `cpu`'s idle task, holding the processor.
fn spawn_idle(tasks: &mut TaskTable, cpu: CpuId) -> Tid {
    let tid = tasks.spawn(&TaskSpec::named("idle").priority(1));
    let t = tasks.task_mut(tid);
    t.counter = 0;
    t.processor = cpu;
    t.has_cpu = true;
    tid
}
