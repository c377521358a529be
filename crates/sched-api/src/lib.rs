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
//! * [`frame`] — the parts of `schedule()` the paper left alone (entry,
//!   `prev` handling, the recalculation loop, the `has_cpu` hand-over)
//!   and the baseline's run-list goodness scan, written once for every
//!   design to call.
//! * [`resched::reschedule_idle`] — the wakeup placement logic shared by
//!   all schedulers (the paper keeps it unchanged).
//! * [`SchedConfig`] — machine-level knobs the schedulers see (CPU count,
//!   SMP vs UP build, ELSC search limit, declared topology tree).
//! * [`LockPlan`] — the locking regime each scheduler declares for its
//!   run-queue state (global, per-CPU, sharded, or per-NUMA-node), with
//!   [`LockDomains`] handling per-call multi-domain acquisition in
//!   `double_rq_lock` order.
//!
//! The baseline lives in `elsc-sched-linux`, the paper's contribution in
//! the `elsc` crate, and the §8 future-work designs in `elsc-sched-ext`;
//! all are interchangeable behind this trait.
#![deny(missing_docs)]

pub mod config;
pub mod frame;
pub mod goodness;
pub mod lockplan;
pub mod resched;
pub mod scheduler;

pub use config::SchedConfig;
pub use goodness::{
    goodness, goodness_ignoring_yield, goodness_ignoring_yield_on, rt_goodness,
    topo_affinity_bonus, IDLE_GOODNESS, LLC_AFFINITY_BONUS, MM_BONUS, PACKAGE_AFFINITY_BONUS,
    PROC_CHANGE_PENALTY, RT_GOODNESS_BASE, SMT_AFFINITY_BONUS,
};
pub use lockplan::{DomainAcquire, DomainLocker, LockDomains, LockPlan, LockScratch};
pub use resched::{reschedule_idle, CpuView, WakeTarget};
pub use scheduler::{LearnedInfo, PolicyLoadInfo, PolicyViolation, SchedCtx, Scheduler};
