//! Alternative scheduler designs from the paper's §8 ("Future Work").
//!
//! The paper closes by sketching two directions beyond the table-based
//! design:
//!
//! * "sorting tasks by static goodness within heaps ... One could choose
//!   the absolute best task available simply by examining the top of each
//!   heap" — [`heap::HeapScheduler`] (one global ordered structure) and
//!   [`affinity_heap::AffinityHeapScheduler`] (a heap per
//!   processor × address-space pair, giving *exact* selection).
//! * "perhaps a multi-priority-queue solution would be more beneficial to
//!   help the scheduler scale to multiple processors" —
//!   [`multiqueue::MultiQueueScheduler`], per-CPU run queues with work
//!   stealing (the direction Linux eventually took with the O(1)
//!   scheduler).
//!
//! A third design goes beyond the paper's sketches:
//! [`bubble::BubbleScheduler`] places whole address-space *groups* down
//! a declared NUMA/SMT topology tree — per-node queues, sticky group
//! homes, and whole-group re-homing on steal.
//!
//! A fourth replaces the selection heuristic itself:
//! [`learned::LearnedScheduler`] ranks candidates with an offline-trained
//! `elsc-learn` model and dispatches the prediction only after a bounded
//! goodness check — mispredictions pay a `Mispredict` penalty and fall
//! back to the full native scan, and persistent inaccuracy gets the model
//! ejected by the machine's watchdog.
//!
//! All plug into the same [`elsc_sched_api::Scheduler`] trait and are
//! compared against `reg` and `elsc` by the ablation benchmarks.
#![warn(missing_docs)]

pub mod affinity_heap;
pub mod bubble;
pub mod heap;
pub mod learned;
pub mod multiqueue;

/// The most queues `mq` (one per CPU) or `bubble` (one per NUMA node)
/// can be built with: a task remembers its queue in the one-byte
/// `Task::rq_hint`.
pub const MAX_QUEUES: usize = 1 << u8::BITS;

pub use affinity_heap::AffinityHeapScheduler;
pub use bubble::BubbleScheduler;
pub use heap::HeapScheduler;
pub use learned::LearnedScheduler;
pub use multiqueue::MultiQueueScheduler;
