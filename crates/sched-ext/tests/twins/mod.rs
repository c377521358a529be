//! The parent implementations of the heap and list-bank designs, and
//! reg's run-queue walk, test-only.

pub mod affinity_heap;
pub mod bubble;
pub mod heap;
pub mod multiqueue;
pub mod walk;
