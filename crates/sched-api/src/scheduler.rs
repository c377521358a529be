//! The `Scheduler` trait: the kernel's scheduling entry points.
//!
//! The paper changed exactly five functions (§5.1): the four run-queue
//! manipulators and `schedule()` itself. This trait is that surface, so
//! the baseline and ELSC (and the §8 future-work designs) plug into the
//! same machine unchanged — the paper's design goal 1.

use elsc_ktask::{CpuId, TaskTable, Tid};
use elsc_obs::{EventBus, ObsEvent};
use elsc_simcore::{CostModel, CycleMeter};
use elsc_stats::SchedStats;

use crate::config::SchedConfig;
use crate::lockplan::{LockModel, LockPlan};

/// Everything a scheduler may touch during one call.
///
/// Bundling the borrows keeps trait method signatures stable and mirrors
/// the kernel, where all of this is ambient global state guarded by
/// `runqueue_lock`.
pub struct SchedCtx<'a> {
    /// All tasks in the system (`for_each_task` domain).
    pub tasks: &'a mut TaskTable,
    /// Statistics counters (the paper's proc-exported instrumentation).
    pub stats: &'a mut SchedStats,
    /// Cycle accumulator: every primitive the scheduler performs is
    /// charged here and later advances the CPU's virtual clock.
    pub meter: &'a mut CycleMeter,
    /// Per-primitive cycle costs.
    pub costs: &'a CostModel,
    /// Machine configuration.
    pub cfg: &'a SchedConfig,
    /// Observability probe: when attached, schedulers emit structured
    /// events (recalc entry/exit, ...) into it. `None` in unit tests and
    /// microbenches, where emission would be noise.
    pub probe: Option<&'a mut EventBus>,
    /// The run-queue lock model: when attached (SMP machine runs), a scheduler
    /// that is about to touch *another* CPU's run-queue state must first
    /// call [`SchedCtx::lock_queue_domain`] for that CPU. `None` in unit
    /// tests, microbenches, and UP builds, where locking is free anyway.
    pub locks: Option<&'a mut LockModel>,
}

impl SchedCtx<'_> {
    /// Emits an observability event if a probe is attached; free
    /// otherwise.
    #[inline]
    pub fn emit(&mut self, event: ObsEvent) {
        if let Some(bus) = self.probe.as_deref_mut() {
            bus.emit(event);
        }
    }

    /// Ensures the lock domain guarding `queue_cpu`'s run queue is held
    /// before the scheduler touches that queue (a multi-queue steal, for
    /// example). No-op when the domain is already held, when no locking
    /// layer is attached, or under a [`LockPlan::Global`] plan (where the
    /// home domain already covers everything).
    ///
    /// The call reads `self.meter` to place the acquisition on the
    /// call's timeline, so charge all work *preceding* the queue access
    /// to the meter before calling this.
    #[inline]
    pub fn lock_queue_domain(&mut self, queue_cpu: CpuId) {
        let elapsed = self.meter.cycles();
        if let Some(l) = self.locks.as_deref_mut() {
            l.acquire_for_cpu(queue_cpu, elapsed);
        }
    }
}

/// A pluggable scheduler: the baseline, ELSC, or an experimental design.
///
/// # Contract
///
/// * `add_to_runqueue(t)` — `t` is runnable and not on the run queue;
///   afterwards `t.on_runqueue()` holds.
/// * `del_from_runqueue(t)` — `t` is on the run queue (possibly in the
///   ELSC "marked on-queue but off-list" state); afterwards
///   `t.on_runqueue()` is false.
/// * `move_first_runqueue` / `move_last_runqueue` — bias `t` within its
///   goodness ties (paper §5.1); `t` must be on the run queue *and*
///   currently linked in a list.
/// * `schedule(cpu, prev, idle)` — `prev` is the task leaving the CPU
///   (its `state` already reflects whether it remains runnable; its
///   `has_cpu` is still true). Returns the next task to run, which may be
///   `prev` or `idle`. On return the chosen task has `has_cpu == true`
///   and a different `prev` has lost it; `prev`'s `SCHED_YIELD` bit is
///   clear; a `prev` that entered not runnable is off the run queue; a
///   runnable `SCHED_RR` `prev` that entered with `counter == 0` has
///   `counter == priority`; every other task has had a fair evaluation
///   per the design's rules, and all cycles consumed were charged to
///   `ctx.meter`. The machine sets `processor` afterwards (so it can
///   detect migrations). The [`frame`](crate::frame) functions implement
///   these clauses once, for every design to call.
pub trait Scheduler {
    /// Human-readable name ("reg", "elsc", ...), used in reports.
    fn name(&self) -> &'static str;

    /// Places a newly-runnable task on the run queue.
    fn add_to_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid);

    /// Removes a task from the run queue.
    fn del_from_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid);

    /// Moves a task to the front of its goodness tie-break region.
    fn move_first_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid);

    /// Moves a task to the back of its goodness tie-break region.
    fn move_last_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid);

    /// Picks the next task to run on `cpu`.
    fn schedule(&mut self, ctx: &mut SchedCtx<'_>, cpu: CpuId, prev: Tid, idle: Tid) -> Tid;

    /// Number of runnable tasks currently accounted to the run queue
    /// (including tasks running on CPUs).
    fn nr_running(&self) -> usize;

    /// Declares the locking regime this scheduler's run-queue state
    /// needs. The machine sizes its lock-domain bank from this (unless
    /// overridden for an ablation). Default: the paper's single global
    /// `runqueue_lock`, so existing schedulers are unchanged.
    fn lock_plan(&self, _nr_cpus: usize) -> LockPlan {
        LockPlan::Global
    }

    /// Verifies internal invariants (tests/debug only). Default: no-op.
    fn debug_check(&self, _tasks: &TaskTable) {}

    /// The supervision surface of a scheduler that is *loaded* rather
    /// than compiled in (a `.pol` policy, a learned model). Native
    /// designs keep the `None` default: the machine never supervises,
    /// ticks into or ejects them.
    fn supervised(&mut self) -> Option<&mut dyn Supervised> {
        None
    }
}

impl dyn Scheduler {
    /// Cumulative policy-VM instructions executed: a loaded policy's
    /// first counter, 0 for every other scheduler.
    pub fn policy_insns_executed(&mut self) -> u64 {
        match self.supervised() {
            Some(s) if matches!(s.load(), Load::Policy { .. }) => s.counters()[0],
            _ => 0,
        }
    }
}

/// What a loaded scheduler reports at load time, so the machine can
/// announce it on the observability bus and pick its watchdog's limit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Load {
    /// A `.pol` program on the policy VM.
    Policy {
        /// `policy:<name>`, leaked to `'static` at load time.
        name: &'static str,
        /// Static instruction count across all hooks (the verifier's
        /// budget accounting).
        static_insns: u64,
        /// The runtime per-decision instruction budget in force.
        budget: u64,
    },
    /// A trained model (`learned:<model>`, see `elsc-learn`).
    Learned {
        /// `learned:<model stem>`, leaked to `'static` at load time.
        name: &'static str,
        /// Model architecture label (`"logreg"` or `"mlp"`).
        arch: &'static str,
    },
}

impl Load {
    /// The scheduler's reported name.
    pub fn name(&self) -> &'static str {
        match *self {
            Load::Policy { name, .. } | Load::Learned { name, .. } => name,
        }
    }
}

/// A loaded scheduler's own judgement of the decision it just made. The
/// machine's watchdog counts consecutive [`Verdict::Bad`]s against the
/// kind's limit and ejects on a [`Verdict::Broken`] at once; the reasons
/// are the labels the report and the ejection event carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Nothing to judge (a model made no prediction): the bad streak
    /// neither grows nor resets.
    Abstain,
    /// A sound decision: the bad streak resets.
    Sound,
    /// A bad decision: the bad streak grows.
    Bad(&'static str),
    /// A broken contract (a blown budget, an illegal pick, corrupted
    /// state): the scheduler must go now.
    Broken(&'static str),
}

/// What a loaded scheduler adds to the five entry points: the machine's
/// watchdog reads it through [`Scheduler::supervised`] and, on ejection,
/// drains the run queue into the vanilla baseline.
pub trait Supervised {
    /// The load-time facts.
    fn load(&self) -> Load;

    /// Takes the verdict on the last `schedule()` call. The machine
    /// asks once after every decision until it ejects the scheduler.
    fn take_verdict(&mut self) -> Verdict;

    /// Cumulative counters for the report: `[insns executed, 0]` for a
    /// policy, `[predictions, verified hits]` for a model.
    fn counters(&self) -> [u64; 2];

    /// Timer-tick hook: runs once per tick on a busy CPU, *after* the
    /// machine's own quantum bookkeeping, with `current` the running
    /// task. Policies run their `tick` hook here; models have none.
    fn on_tick(&mut self, _ctx: &mut SchedCtx<'_>, _cpu: CpuId, _current: Tid) {}

    /// Removes every task from the run queue and returns them in queue
    /// order (front to back, highest-priority list first), leaving each
    /// task detached (`!on_runqueue()`): ejection re-adds them, reversed,
    /// into a fresh baseline.
    fn drain(&mut self, ctx: &mut SchedCtx<'_>) -> Vec<Tid>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rig;
    use elsc_ktask::TaskSpec;

    /// A trivial scheduler used to exercise the trait object surface.
    struct NullSched {
        n: usize,
    }

    impl Scheduler for NullSched {
        fn name(&self) -> &'static str {
            "null"
        }

        fn add_to_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
            let t = ctx.tasks.task_mut(tid);
            t.run_list.next = elsc_ktask::Link::Head(0);
            t.run_list.prev = elsc_ktask::Link::Head(0);
            self.n += 1;
        }

        fn del_from_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
            let t = ctx.tasks.task_mut(tid);
            t.run_list = elsc_ktask::ListNode::detached();
            self.n -= 1;
        }

        fn move_first_runqueue(&mut self, _ctx: &mut SchedCtx<'_>, _tid: Tid) {}

        fn move_last_runqueue(&mut self, _ctx: &mut SchedCtx<'_>, _tid: Tid) {}

        fn schedule(&mut self, _ctx: &mut SchedCtx<'_>, _cpu: CpuId, prev: Tid, _idle: Tid) -> Tid {
            prev
        }

        fn nr_running(&self) -> usize {
            self.n
        }
    }

    #[test]
    fn trait_is_object_safe_and_usable() {
        let sched: Box<dyn Scheduler> = Box::new(NullSched { n: 0 });
        let mut rig = Rig::boxed(SchedConfig::up(), sched);
        rig.costs = CostModel::free();
        let tid = rig.tasks.spawn(&TaskSpec::default());
        assert_eq!(rig.sched.name(), "null");
        assert_eq!(rig.sched.lock_plan(4), LockPlan::Global);
        rig.add(tid);
        assert_eq!(rig.sched.nr_running(), 1);
        assert!(rig.tasks.task(tid).on_runqueue());
        let next = rig.call(|s, ctx| s.schedule(ctx, 0, tid, tid));
        assert_eq!(next, tid);
        rig.del(tid);
        assert_eq!(rig.sched.nr_running(), 0);
        rig.sched.debug_check(&rig.tasks);
    }
}
