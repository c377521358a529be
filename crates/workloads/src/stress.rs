//! Synthetic run-queue stress.
//!
//! Holds the run-queue length at an exact value so the microbenchmarks
//! can sweep "cycles per `schedule()` vs. number of runnable threads" —
//! the paper's core scalability claim — without workload noise.

use elsc_ktask::{MmId, TaskSpec};
use elsc_machine::{Behavior, Machine, MachineConfig, Op, RunReport, SysView};
use elsc_sched_api::Scheduler;

/// Stress parameters.
#[derive(Clone, Debug)]
pub struct StressConfig {
    /// Number of always-runnable spinner tasks.
    pub tasks: usize,
    /// Compute cycles between yields.
    pub burst: u64,
    /// Yields each task performs before exiting.
    pub rounds: usize,
    /// Whether tasks share one address space (affects the +1 mm bonus).
    pub shared_mm: bool,
}

impl Default for StressConfig {
    fn default() -> Self {
        StressConfig {
            tasks: 100,
            burst: 20_000,
            rounds: 50,
            shared_mm: true,
        }
    }
}

/// A spinner: `rounds` bursts separated by `sched_yield()`, then exit.
struct FiniteSpinner {
    burst: u64,
    rounds: usize,
}

impl Behavior for FiniteSpinner {
    fn resume(&mut self, sys: &mut SysView<'_>) -> Op {
        if self.rounds == 0 {
            return Op::exit();
        }
        self.rounds -= 1;
        sys.ledger.add("spins", 1);
        Op::yield_after(self.burst)
    }
}

/// Populates a machine with the stress tasks.
pub fn build(m: &mut Machine, cfg: &StressConfig) {
    m.reserve(cfg.tasks, 0);
    for i in 0..cfg.tasks {
        let mm = if cfg.shared_mm {
            MmId(1)
        } else {
            MmId(1 + i as u32)
        };
        m.spawn(
            &TaskSpec::named("spin").mm(mm),
            Box::new(FiniteSpinner {
                burst: cfg.burst,
                rounds: cfg.rounds,
            }),
        );
    }
}

/// Builds and runs the stress workload on a fresh machine.
///
/// # Panics
///
/// Panics if the simulation deadlocks or times out (a harness bug).
pub fn run(machine_cfg: MachineConfig, sched: Box<dyn Scheduler>, cfg: &StressConfig) -> RunReport {
    let mut m = Machine::new(machine_cfg, sched);
    build(&mut m, cfg);
    m.run().expect("stress run must complete")
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsc::ElscScheduler;
    use elsc_sched_linux::LinuxScheduler;

    fn tiny() -> StressConfig {
        StressConfig {
            tasks: 8,
            burst: 10_000,
            rounds: 5,
            shared_mm: true,
        }
    }

    #[test]
    fn every_spin_happens() {
        let cfg = tiny();
        let r = run(
            MachineConfig::up().with_max_secs(60.0),
            Box::new(LinuxScheduler::new()),
            &cfg,
        );
        assert_eq!(r.ledger.get("spins"), (cfg.tasks * cfg.rounds) as u64);
        assert_eq!(r.stats.total().yields, (cfg.tasks * cfg.rounds) as u64);
    }

    #[test]
    fn reg_cost_grows_with_tasks_elsc_does_not() {
        // The headline claim, end-to-end: average cycles per schedule().
        let cost = |sched: Box<dyn Scheduler>, tasks: usize| -> f64 {
            let cfg = StressConfig {
                tasks,
                burst: 10_000,
                rounds: 5,
                shared_mm: true,
            };
            let r = run(MachineConfig::up().with_max_secs(600.0), sched, &cfg);
            r.stats.total().cycles_per_schedule()
        };
        let reg_small = cost(Box::new(LinuxScheduler::new()), 10);
        let reg_big = cost(Box::new(LinuxScheduler::new()), 200);
        let elsc_small = cost(Box::new(ElscScheduler::new()), 10);
        let elsc_big = cost(Box::new(ElscScheduler::new()), 200);
        assert!(
            reg_big > reg_small * 3.0,
            "reg should degrade: {reg_small} -> {reg_big}"
        );
        assert!(
            elsc_big < elsc_small * 2.0,
            "elsc should stay flat: {elsc_small} -> {elsc_big}"
        );
        assert!(elsc_big < reg_big, "elsc must beat reg at scale");
    }

    #[test]
    fn smp_stress_completes() {
        let r = run(
            MachineConfig::smp(4).with_max_secs(60.0),
            Box::new(ElscScheduler::new()),
            &tiny(),
        );
        assert_eq!(r.ledger.get("spins"), 40);
    }
}
