//! The raw-scheduler [`rig`] and what is built on it.
//!
//! Every experiment of the reproduction is a lab sweep printed by
//! `elsc-sim lab render <name>` (see `DESIGN.md` §5). What lives here is
//! what needs a scheduler *without* a machine around it:
//!
//! | target | what it is |
//! |---|---|
//! | [`rig::Rig`] | a registry design loaded with runnable tasks on [`elsc_sched_api::Rig`], which it derefs to; `benchmark/`'s `schedule()` probes drive it |
//! | `figure1` (bin) | Figure 1 — the two run-queue structures, built with the real data structures and printed |
//! | `micro` (bench) | host nanoseconds of the operations `benchmark/` has no probe for: `goodness()`, the ELSC table index, add/del and move per design, one `schedule()` per design |
//!
//! Schedulers come from the lab's registry: [`SchedKind`] is a re-export,
//! not a second table.
#![warn(missing_docs)]

pub mod rig;

pub use elsc_lab::SchedId as SchedKind;
