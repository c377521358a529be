//! Discrete-event simulation core for the ELSC scheduler reproduction.
//!
//! This crate holds the substrate every other simulation crate builds on:
//!
//! * [`clock::Cycles`] — the virtual time unit (CPU cycles).
//! * [`events::EventQueue`] — a stable, deterministic discrete-event queue.
//! * [`rng::SimRng`] — a small, fully deterministic xoshiro256** PRNG so
//!   that simulation runs are reproducible from a seed alone.
//! * [`spinlock::SimSpinLock`] — a busy-interval model of a contended
//!   kernel spinlock (the global `runqueue_lock` of Linux 2.3.99).
//! * [`lockdomain::LockModel`] — a bank of N independent spinlock
//!   domains, generalizing the single global lock into pluggable
//!   locking regimes (global, per-CPU, sharded).
//! * [`cost::CostModel`] / [`cost::CycleMeter`] — a table of per-primitive
//!   cycle costs and an accumulator used by the schedulers to charge their
//!   own work to the simulated CPU.
//! * [`topology::Topology`] — a declared machine topology tree
//!   (packages → NUMA nodes → cores → SMT siblings), with the flat
//!   per-CPU model as its one-level degenerate case.
//!
//! Nothing in this crate knows about tasks or scheduling; it is a generic
//! deterministic simulation toolkit.
#![deny(missing_docs)]

pub mod clock;
pub mod cost;
pub mod events;
pub mod histogram;
pub mod lockdomain;
pub mod rng;
pub mod spinlock;
pub mod topology;

pub use clock::Cycles;
pub use cost::{CostKind, CostModel, CycleMeter, COST_KINDS};
pub use events::{CalendarEventQueue, EventQueue};
pub use histogram::Histogram;
pub use lockdomain::{DomainStats, LockModel};
pub use rng::SimRng;
pub use spinlock::SimSpinLock;
pub use topology::Topology;
