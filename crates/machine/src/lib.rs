//! The simulated SMP machine.
//!
//! This crate ties the substrates together into the testbed the paper ran
//! on: processors with 10 ms timer ticks, a contended global run-queue
//! lock, context-switch and cache-migration costs, blocking socket
//! syscalls, and a pluggable scheduler behind the
//! [`elsc_sched_api::Scheduler`] trait.
//!
//! ## Execution model
//!
//! Tasks are coroutine-style [`behavior::Behavior`] state machines. When a
//! task runs, its behavior yields an [`behavior::Op`]: *compute N cycles,
//! then perform this syscall*. The machine advances a global discrete-event
//! clock; timer ticks decrement the running task's `counter` and trigger
//! preemption, blocking syscalls park tasks on wait queues, and wakeups
//! run the shared `reschedule_idle()` placement logic, sending IPIs to
//! idle CPUs.
//!
//! Crucially, **scheduler work is charged to the CPU's virtual clock**:
//! every cycle the scheduler spends scanning (metered through
//! [`elsc_simcore::CycleMeter`]) and every cycle spent spinning on the
//! run-queue lock delays the workload. That is the causal chain behind all
//! of the paper's throughput results.
//!
//! ## Example
//!
//! ```
//! use elsc_machine::behavior::{Behavior, Op, SysView};
//! use elsc_machine::{Machine, MachineConfig};
//! use elsc_ktask::TaskSpec;
//! use elsc_sched_linux::LinuxScheduler;
//!
//! /// Computes three bursts, then exits.
//! struct Bursts(u32);
//!
//! impl Behavior for Bursts {
//!     fn resume(&mut self, _sys: &mut SysView<'_>) -> Op {
//!         if self.0 == 0 {
//!             return Op::exit();
//!         }
//!         self.0 -= 1;
//!         Op::compute(10_000, elsc_machine::behavior::Syscall::Nop)
//!     }
//! }
//!
//! let mut m = Machine::new(MachineConfig::up(), Box::new(LinuxScheduler::new()));
//! m.spawn(&TaskSpec::named("worker"), Box::new(Bursts(3)));
//! let report = m.run().expect("run completes");
//! assert!(report.elapsed.get() >= 30_000);
//! ```
#![deny(missing_docs)]

pub mod behavior;
pub mod config;
pub mod cpu;
mod engine;
pub mod machine;
mod observe;
pub mod report;
mod report_build;
mod schedule;
mod supervise;
mod syscall;
mod wake;

pub use behavior::{Behavior, Op, SpawnReq, SysView, Syscall};
pub use config::MachineConfig;
pub use machine::{Machine, RunError, StepStatus};
pub use report::{Distributions, EngineSummary, Ledger, PolicySummary, RunReport, TopologySummary};

// Chaos types that appear in [`MachineConfig`] and [`RunReport`], so
// downstream users do not need a direct `elsc-chaos` dependency.
pub use elsc_chaos::{ChaosSummary, FaultPlan, OracleReport};
