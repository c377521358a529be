//! The parent implementations of the two heap designs, test-only.

pub mod affinity_heap;
pub mod heap;
