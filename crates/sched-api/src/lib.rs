//! The scheduler interface shared by every run-queue design in this
//! reproduction.
//!
//! The paper's design goal 1 is "keep changes local to the scheduler; do
//! not change current interfaces" (§5). This crate *is* that interface:
//!
//! * [`mod@goodness`] — the selection heuristic of `kernel/sched.c` (§3.3.1),
//!   split into its static and dynamic parts the way ELSC exploits (§5).
//! * [`Scheduler`] — the five entry points the kernel exposes:
//!   `add_to_runqueue`, `del_from_runqueue`, `move_first_runqueue`,
//!   `move_last_runqueue`, and `schedule` itself.
//! * [`Supervised`] — what a *loaded* scheduler (a `.pol` policy, a
//!   learned model) adds, reached through [`Scheduler::supervised`]: its
//!   [`Load`] facts, a [`Verdict`] on each decision, report counters, the
//!   tick hook, and the drain the machine's watchdog ejects it with.
//! * [`frame`] — the parts of `schedule()` the paper left alone (entry,
//!   `prev` handling, the recalculation loop, the `has_cpu` hand-over)
//!   and the baseline's run-list goodness scan, written once for every
//!   design to call.
//! * [`order`] — the one static-goodness order: sorted sets of run-queue
//!   members keyed by (goodness, tie stamp), which reg's goodness index
//!   and the two §8 heap designs partition each their own way.
//! * [`RunQueues`] — the list half of the four run-queue manipulators for
//!   the designs that file tasks in a bank of unsorted run lists (`reg`,
//!   `mq`, `bubble`, the `.pol` host): insert, remove, requeue and
//!   migrate with their `ListOp` charges, the per-list counts and
//!   `nr_running`, each task's list in `Task::rq_hint`, the drain and
//!   the consistency check.
//! * [`resched::reschedule_idle`] — the wakeup placement logic shared by
//!   all schedulers (the paper keeps it unchanged).
//! * [`SchedConfig`] — machine-level knobs the schedulers see (CPU count,
//!   SMP vs UP build, ELSC search limit, declared topology tree).
//! * [`LockPlan`] — the locking regime each scheduler declares for its
//!   run-queue state (global, per-CPU, sharded, or per-NUMA-node), and
//!   [`LockModel`], the one model of those locks: a busy interval per
//!   domain plus the current call's held set, taken in `double_rq_lock`
//!   order. The machine lends it to schedulers as [`SchedCtx::locks`].
//! * [`Rig`] — a design and everything a call into it borrows, driven
//!   without a machine: the harness of every bare-scheduler test, doc
//!   example and host-time probe.
//!
//! The baseline lives in `elsc-sched-linux`, the paper's contribution in
//! the `elsc` crate, and the §8 future-work designs in `elsc-sched-ext`;
//! all are interchangeable behind this trait.
#![deny(missing_docs)]

pub mod config;
pub mod frame;
pub mod goodness;
pub mod lockplan;
pub mod order;
pub mod queues;
pub mod resched;
pub mod rig;
pub mod scheduler;

pub use config::SchedConfig;
pub use goodness::{
    goodness_ignoring_yield_on, rt_goodness, topo_affinity_bonus, IDLE_GOODNESS,
    LLC_AFFINITY_BONUS, MM_BONUS, PACKAGE_AFFINITY_BONUS, PROC_CHANGE_PENALTY, RT_GOODNESS_BASE,
    SMT_AFFINITY_BONUS,
};
pub use lockplan::{DomainAcquire, DomainStats, LockModel, LockPlan};
pub use queues::RunQueues;
pub use resched::{reschedule_idle, CpuView, WakeTarget};
pub use rig::Rig;
pub use scheduler::{Load, SchedCtx, Scheduler, Supervised, Verdict};

// The single-lock and per-domain rules of `LockModel`, each checked on a
// hand-computed case. The module names are those of the single-lock and
// domain-bank models the rules were first written for.
#[cfg(test)]
#[path = "lock_tests/lockdomain.rs"]
mod lockdomain;
#[cfg(test)]
#[path = "lock_tests/spinlock.rs"]
mod spinlock;
