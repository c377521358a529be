//! # ELSC: the scalable Linux scheduler
//!
//! This crate is the paper's primary contribution (Molloy & Honeyman,
//! *Scalable Linux Scheduling*, CITI TR 01-7, 2001): a table-based run
//! queue that keeps tasks sorted by **static goodness** so that
//! `schedule()` examines a small bounded number of candidates instead of
//! walking the whole run queue.
//!
//! ## The idea
//!
//! `goodness()` splits into two parts (§5):
//!
//! * a **static** part, `counter + priority`, which cannot change while a
//!   task waits on the run queue (its counter only ticks down while it is
//!   *running*, and it is off the table then);
//! * a **dynamic** part — the +15 processor-affinity and +1 shared-mm
//!   bonuses — which depends on which CPU and task are deciding.
//!
//! So the run queue becomes an array of 30 doubly-linked lists indexed by
//! static goodness ([`table::ElscTable`]). A `top` pointer tracks the
//! highest populated list; `schedule()` ([`sched::ElscScheduler`]) looks
//! only at the first few tasks (`nr_cpus/2 + 5`) of that list, evaluating
//! just the dynamic bonuses.
//!
//! Zero-counter tasks (runnable, quantum exhausted) are parked at the
//! *end* of the list they will belong to **after** the next counter
//! recalculation, computed from a *predicted counter* — so the global
//! recalculation never needs to re-index the table. A second pointer,
//! `next_top`, tracks them.
//!
//! ## Behavioural differences from the baseline (paper §5.2)
//!
//! 1. ELSC searches (essentially) one list, so a task one list down that
//!    would have won on bonuses can be passed over — visible in the
//!    "tasks scheduled on a new processor" statistic (Figure 6).
//! 2. A task that yields with nothing else runnable is simply re-run
//!    (if its counter is non-zero) instead of triggering a system-wide
//!    counter recalculation — the source of the orders-of-magnitude gap
//!    in recalculation frequency (Figure 2).
//!
//! ## Example
//!
//! ```
//! use elsc::ElscScheduler;
//! use elsc_sched_api::{Rig, SchedConfig};
//!
//! let mut rig = Rig::new(SchedConfig::up(), ElscScheduler::new());
//! let worker = rig.spawn("worker");
//! let next = rig.schedule(0, rig.idle(0));
//! assert_eq!(next, worker);
//! ```
#![warn(missing_docs)]

pub mod sched;
pub mod table;

pub use sched::ElscScheduler;
pub use table::{index_for, ElscTable, NR_LISTS, RT_BASE_LIST};
