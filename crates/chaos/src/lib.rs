//! elsc-chaos: deterministic fault injection and a differential
//! scheduler oracle.
//!
//! The paper's central claim (§5) is that ELSC makes *exactly* the
//! decisions the O(n) baseline would make, only cheaper — "the same task
//! is selected". This crate turns that sentence into machinery:
//!
//! * **Fault plan** ([`FaultPlan`] / [`FaultInjector`]): a seeded,
//!   independently-streamed RNG that perturbs the machine at configurable
//!   rates — delayed or dropped-then-retried reschedule IPIs, spurious
//!   `wake_up_process()` calls, timer-tick jitter, lock-holder delay
//!   inside a held run-queue domain, and netsim peer resets / short
//!   writes. Every fault is emitted as an `obs` event so traces stay
//!   diffable, and the same `--fault-seed` reproduces a byte-identical
//!   run report.
//!
//! * **Cluster fault plan** ([`ClusterFaultPlan`] / [`ClusterInjector`]):
//!   the same machinery one level up, for the federated multi-machine
//!   simulation — link partitions (messages held, never dropped),
//!   slow-link congestion windows, and whole-node pauses, drawn from
//!   their own salted streams so fabric faults never correlate with any
//!   node's internal fault schedule.
//!
//! * **Differential oracle** ([`Oracle`]): a pessimistic O(n) reference
//!   `goodness()` scan replayed beside the scheduler under test on every
//!   `schedule()` decision. Any divergence that is not explained by a
//!   documented, bounded-search-permitted tie is counted as
//!   *unexplained* — the §5 equivalence claim as a machine-checked
//!   invariant. A run-queue invariant checker
//!   ([`check_task_invariants`]) rides along.
//!
//! The oracle is a pure observer: it charges no simulated cycles and
//! never mutates task state, so enabling it cannot change the schedule
//! it is checking (the same non-perturbation contract the tracing
//! subsystem keeps).
#![warn(missing_docs)]
#![deny(missing_docs)]

mod cluster;
mod oracle;
mod plan;

pub use cluster::{ClusterFaultCounts, ClusterFaultPlan, ClusterInjector, SlowWindow};
pub use oracle::{
    check_task_invariants, task_invariants, ChaosSummary, Decision, DivergenceClass, Oracle,
    OracleMode, OracleReport, TaskSnap, Verdict,
};
pub use plan::{FaultCounts, FaultInjector, FaultPlan, IpiFault};
