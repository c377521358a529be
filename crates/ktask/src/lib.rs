//! The Linux 2.3.99 task model.
//!
//! This crate reproduces the scheduling-relevant slice of the kernel's
//! `struct task_struct` (the paper's Table 1) and the data structures the
//! two schedulers manipulate:
//!
//! * [`task::Task`] — `state`, `policy`, `counter`, `priority`,
//!   `rt_priority`, `mm`, `run_list`, `has_cpu`, `processor`.
//! * [`table::TaskTable`] — the "all tasks in the system" set that the
//!   counter-recalculation loop walks (`for_each_task` in the kernel).
//! * [`list`] — intrusive circular doubly-linked lists, the kernel's
//!   `list_head`, used by both run-queue designs.
//! * [`waitqueue::WaitQueue`] — blocked-task queues for the socket layer.
//! * [`recalc`] — the quantum recalculation
//!   `counter = counter/2 + priority`.
//!
//! Tasks are identified by generation-checked [`tid::Tid`] handles into the
//! table, the Rust-idiomatic equivalent of the kernel's task pointers: a
//! stale handle is detected instead of dereferencing freed memory.
//!
//! The [`task::Task`] in the table is the only copy of every one of those
//! fields: the goodness scans and the recalculation loop read it directly.
#![deny(missing_docs)]

pub mod list;
pub mod recalc;
pub mod table;
pub mod task;
pub mod tid;
pub mod waitqueue;

pub use list::{Link, ListNode, Lists};
pub use table::{LogReader, TaskTable, MAX_READERS};
pub use task::{CpuId, MmId, Policy, SchedClass, Task, TaskSpec, TaskState};
pub use tid::Tid;
pub use waitqueue::WaitQueue;

/// Default task priority (the kernel's `DEF_PRIORITY`): 20 ticks ≈ 200 ms.
pub const DEF_PRIORITY: i32 = 20;

/// Lowest permitted `SCHED_OTHER` priority.
pub const MIN_PRIORITY: i32 = 1;

/// Highest permitted `SCHED_OTHER` priority (paper §3.1: 1..40).
pub const MAX_PRIORITY: i32 = 40;

/// Highest permitted real-time priority (paper §3.1: 0..99).
pub const MAX_RT_PRIORITY: i32 = 99;
