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
use crate::lockplan::{DomainLocker, LockPlan};

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
    /// Lock-domain surface: when attached (SMP machine runs), a scheduler
    /// that is about to touch *another* CPU's run-queue state must first
    /// call [`SchedCtx::lock_queue_domain`] for that CPU. `None` in unit
    /// tests, microbenches, and UP builds, where locking is free anyway.
    pub locks: Option<&'a mut dyn DomainLocker>,
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

/// Metadata a loaded `.pol` policy reports to the machine, so the
/// machine can announce it on the observability bus at boot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PolicyLoadInfo {
    /// The policy's declared name (leaked to `'static` at load time).
    pub name: &'static str,
    /// Static instruction count across all hooks (the verifier's budget
    /// accounting).
    pub static_insns: u64,
    /// The runtime per-decision instruction budget in force.
    pub budget: u64,
}

/// Metadata a learned scheduler (`learned:<model>`, see `elsc-learn`)
/// reports to the machine, so the machine can announce the model at boot
/// and run the accuracy watchdog over it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LearnedInfo {
    /// The scheduler's reported name (`learned:<model stem>`, leaked to
    /// `'static` at load time).
    pub name: &'static str,
    /// Model architecture label (`"logreg"` or `"mlp"`).
    pub arch: &'static str,
}

/// A safety violation a loaded `.pol` policy committed, reported to the
/// machine's watchdog.
///
/// Native schedulers never produce these; the defaulted
/// [`Scheduler::take_violation`] returns `None`. The machine reacts by
/// *ejecting* the policy: swapping in the vanilla baseline scheduler and
/// emitting `PolicyEjected` on the observability bus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyViolation {
    /// A hook exceeded the per-decision instruction budget and was
    /// aborted; the policy runtime substituted a safe default.
    BudgetExhausted {
        /// Instructions executed when the budget tripped.
        insns: u64,
        /// The budget that was in force.
        budget: u64,
    },
    /// `pick_next` chose a task that is not legally runnable on this CPU
    /// (not on the run queue, blocked, or running elsewhere).
    BadPick,
    /// The policy corrupted its own bookkeeping (host-side list state
    /// desynchronized); the policy runtime recovered but the program is
    /// untrustworthy.
    StateCorrupt,
}

impl PolicyViolation {
    /// Static label used in obs events and reports.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyViolation::BudgetExhausted { .. } => "budget_exhausted",
            PolicyViolation::BadPick => "bad_pick",
            PolicyViolation::StateCorrupt => "state_corrupt",
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

    /// If this scheduler is a loaded `.pol` policy, its load metadata.
    /// Native schedulers return `None` (the default).
    fn loaded_info(&self) -> Option<PolicyLoadInfo> {
        None
    }

    /// Takes (and clears) the most recent safety violation, if any.
    ///
    /// The machine polls this after every `schedule()` call; a `Some`
    /// triggers watchdog ejection. Native schedulers never violate and
    /// keep the `None` default.
    fn take_violation(&mut self) -> Option<PolicyViolation> {
        None
    }

    /// Removes every task from the run queue and returns them in queue
    /// order (front to back, highest-priority list first), leaving each
    /// task detached (`!on_runqueue()`). Used by the machine's watchdog to
    /// migrate run-queue state into a replacement scheduler during
    /// ejection. Native schedulers are never ejected; the default panics
    /// to catch misuse.
    fn drain(&mut self, _ctx: &mut SchedCtx<'_>) -> Vec<Tid> {
        unreachable!("drain() called on a scheduler that cannot be ejected")
    }

    /// Cumulative policy-VM instructions executed (policy schedulers
    /// only; native schedulers report 0).
    fn policy_insns_executed(&self) -> u64 {
        0
    }

    /// If this scheduler drives its picks from a trained model, its
    /// load metadata. Native schedulers return `None` (the default).
    fn learned_info(&self) -> Option<LearnedInfo> {
        None
    }

    /// Takes (and clears) the outcome of the model prediction the last
    /// `schedule()` call made: `Some(true)` for a verified hit,
    /// `Some(false)` for a misprediction (the scheduler fell back to the
    /// native scan), `None` when no prediction was attempted (no
    /// candidates, or not a learned scheduler — the default).
    ///
    /// The machine polls this after every `schedule()` call on learned
    /// runs; a streak of `Some(false)` long enough to trip
    /// `MachineConfig::learn_eject_k` ejects the model.
    fn take_prediction(&mut self) -> Option<bool> {
        None
    }

    /// Cumulative `(predictions, verified hits)` the model has made
    /// (learned schedulers only; native schedulers report zeros).
    fn prediction_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Timer-tick hook: runs once per tick on a busy CPU, *after* the
    /// machine's own quantum bookkeeping, with `current` the running
    /// task. Loaded `.pol` policies use this to run their `tick` hook;
    /// native schedulers keep the no-op default (the machine only calls
    /// it for schedulers that report [`Scheduler::loaded_info`], so
    /// native runs stay byte-identical).
    fn on_tick(&mut self, _ctx: &mut SchedCtx<'_>, _cpu: CpuId, _current: Tid) {}
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut tasks = TaskTable::new();
        let tid = tasks.spawn(&TaskSpec::default());
        let mut stats = SchedStats::new(1);
        let mut meter = CycleMeter::new();
        let costs = CostModel::free();
        let cfg = SchedConfig::up();
        let mut ctx = SchedCtx {
            tasks: &mut tasks,
            stats: &mut stats,
            meter: &mut meter,
            costs: &costs,
            cfg: &cfg,
            probe: None,
            locks: None,
        };
        let mut sched: Box<dyn Scheduler> = Box::new(NullSched { n: 0 });
        assert_eq!(sched.name(), "null");
        assert_eq!(sched.lock_plan(4), LockPlan::Global);
        sched.add_to_runqueue(&mut ctx, tid);
        assert_eq!(sched.nr_running(), 1);
        assert!(ctx.tasks.task(tid).on_runqueue());
        let next = sched.schedule(&mut ctx, 0, tid, tid);
        assert_eq!(next, tid);
        sched.del_from_runqueue(&mut ctx, tid);
        assert_eq!(sched.nr_running(), 0);
        sched.debug_check(ctx.tasks);
    }
}
