//! The kernel-compile workload (paper Table 2).
//!
//! Models `make -jN bzImage`: a coordinator process keeps up to `jobs`
//! compile processes in flight. Each compile is a fresh process (its own
//! address space — exec) alternating CPU bursts with I/O waits, then
//! reports completion and exits; a final serial link step closes the run.
//!
//! This is the paper's *light-load* control experiment: the run queue
//! rarely exceeds `jobs` tasks, so both schedulers should finish in
//! essentially the same time, with ELSC's UP advantage coming from its
//! shared-mm early-exit in the search loop.

use elsc_ktask::{MmId, TaskSpec};
use elsc_machine::{Behavior, Machine, MachineConfig, Op, RunReport, SpawnReq, SysView, Syscall};
use elsc_netsim::{Msg, PipeId};
use elsc_sched_api::Scheduler;

/// Kernel-compile parameters.
#[derive(Clone, Debug)]
pub struct KbuildConfig {
    /// Parallelism (`make -j`); the paper used `-j4`.
    pub jobs: usize,
    /// Number of translation units to compile.
    pub translation_units: usize,
    /// Mean CPU cycles to compile one unit.
    pub compile_cycles: u64,
    /// I/O waits per unit (header reads, object writes).
    pub io_blocks_per_unit: usize,
    /// Mean cycles per I/O wait.
    pub io_block_cycles: u64,
    /// Cycles for the final serial link.
    pub link_cycles: u64,
    /// Jitter fraction on compile and I/O durations.
    pub jitter: f64,
}

impl Default for KbuildConfig {
    fn default() -> Self {
        KbuildConfig {
            jobs: 4,
            translation_units: 160,
            compile_cycles: 24_000_000,
            io_blocks_per_unit: 3,
            io_block_cycles: 1_200_000,
            link_cycles: 120_000_000,
            jitter: 0.3,
        }
    }
}

impl KbuildConfig {
    /// Expected serial CPU demand (for sanity checks), in cycles.
    pub fn serial_compute(&self) -> u64 {
        self.translation_units as u64 * self.compile_cycles + self.link_cycles
    }
}

/// One compile process: alternating compute and I/O, then a completion
/// token, then exit.
struct Compile {
    phases_left: usize,
    compute_per_phase: u64,
    io_cycles: u64,
    jitter: f64,
    done_pipe: PipeId,
    reported: bool,
}

impl Behavior for Compile {
    fn resume(&mut self, sys: &mut SysView<'_>) -> Op {
        if self.phases_left > 0 {
            self.phases_left -= 1;
            let compute = sys.rng.jitter(self.compute_per_phase, self.jitter);
            let io = sys.rng.jitter(self.io_cycles, self.jitter).max(1);
            return Op::sleep_after(compute, io);
        }
        if !self.reported {
            self.reported = true;
            sys.ledger.add("units_compiled", 1);
            return Op::write_after(2_000, self.done_pipe, Msg::tagged(0));
        }
        Op::exit()
    }
}

/// The `make` coordinator: keeps `jobs` compiles in flight, then links.
struct Make {
    cfg: KbuildConfig,
    remaining: usize,
    in_flight: usize,
    next_mm: u32,
    done_pipe: PipeId,
    linked: bool,
}

impl Make {
    fn compile_req(&mut self) -> Box<SpawnReq> {
        let phases = self.cfg.io_blocks_per_unit.max(1);
        let mm = MmId(self.next_mm);
        self.next_mm += 1;
        Box::new(SpawnReq {
            spec: TaskSpec::named("cc1").mm(mm),
            behavior: Box::new(Compile {
                phases_left: phases,
                compute_per_phase: self.cfg.compile_cycles / phases as u64,
                io_cycles: self.cfg.io_block_cycles,
                jitter: self.cfg.jitter,
                done_pipe: self.done_pipe,
                reported: false,
            }),
        })
    }
}

impl Behavior for Make {
    fn resume(&mut self, sys: &mut SysView<'_>) -> Op {
        if sys.last_read.is_some() {
            self.in_flight -= 1;
        }
        if self.remaining > 0 && self.in_flight < self.cfg.jobs {
            self.remaining -= 1;
            self.in_flight += 1;
            return Op::compute(20_000, Syscall::Spawn(self.compile_req()));
        }
        if self.in_flight > 0 {
            return Op::read_after(5_000, self.done_pipe);
        }
        if !self.linked {
            self.linked = true;
            sys.ledger.add("linked", 1);
            return Op::compute(self.cfg.link_cycles, Syscall::Nop);
        }
        Op::exit()
    }
}

/// Populates a machine with the kbuild workload.
pub fn build(m: &mut Machine, cfg: &KbuildConfig) {
    assert!(cfg.jobs > 0 && cfg.translation_units > 0);
    let done_pipe = m.create_pipe(cfg.jobs.max(1));
    m.spawn(
        &TaskSpec::named("make").mm(MmId(1000)),
        Box::new(Make {
            cfg: cfg.clone(),
            remaining: cfg.translation_units,
            in_flight: 0,
            next_mm: 1001,
            done_pipe,
            linked: false,
        }),
    );
}

/// Builds and runs the compile on a fresh machine.
///
/// # Panics
///
/// Panics if the simulation deadlocks or times out (a harness bug).
pub fn run(machine_cfg: MachineConfig, sched: Box<dyn Scheduler>, cfg: &KbuildConfig) -> RunReport {
    let mut m = Machine::new(machine_cfg, sched);
    build(&mut m, cfg);
    m.run().expect("kbuild run must complete")
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsc::ElscScheduler;
    use elsc_sched_linux::LinuxScheduler;

    fn tiny() -> KbuildConfig {
        KbuildConfig {
            jobs: 2,
            translation_units: 6,
            compile_cycles: 600_000,
            io_blocks_per_unit: 2,
            io_block_cycles: 100_000,
            link_cycles: 1_000_000,
            jitter: 0.2,
        }
    }

    #[test]
    fn compiles_every_unit_then_links() {
        let r = run(
            MachineConfig::up().with_max_secs(60.0),
            Box::new(LinuxScheduler::new()),
            &tiny(),
        );
        assert_eq!(r.ledger.get("units_compiled"), 6);
        assert_eq!(r.ledger.get("linked"), 1);
        // make + 6 compiles.
        assert_eq!(r.tasks_spawned, 7);
    }

    #[test]
    fn elapsed_at_least_serial_compute_up() {
        let cfg = tiny();
        let r = run(
            MachineConfig::up().with_max_secs(60.0),
            Box::new(ElscScheduler::new()),
            &cfg,
        );
        assert!(r.elapsed.get() >= cfg.serial_compute());
    }

    #[test]
    fn two_cpus_beat_one() {
        let cfg = KbuildConfig {
            jobs: 4,
            translation_units: 12,
            compile_cycles: 4_000_000,
            io_blocks_per_unit: 2,
            io_block_cycles: 200_000,
            link_cycles: 1_000_000,
            jitter: 0.2,
        };
        let one = run(
            MachineConfig::smp(1).with_max_secs(120.0),
            Box::new(LinuxScheduler::new()),
            &cfg,
        );
        let two = run(
            MachineConfig::smp(2).with_max_secs(120.0),
            Box::new(LinuxScheduler::new()),
            &cfg,
        );
        assert!(
            two.elapsed.get() < one.elapsed.get(),
            "2P {} !< 1P {}",
            two.elapsed,
            one.elapsed
        );
    }

    #[test]
    fn parallelism_is_bounded_by_jobs() {
        // With jobs=1 the elapsed time is at least the full serial demand
        // even on many CPUs.
        let cfg = KbuildConfig {
            jobs: 1,
            translation_units: 5,
            compile_cycles: 2_000_000,
            io_blocks_per_unit: 1,
            io_block_cycles: 50_000,
            link_cycles: 500_000,
            jitter: 0.0,
        };
        let r = run(
            MachineConfig::smp(4).with_max_secs(60.0),
            Box::new(LinuxScheduler::new()),
            &cfg,
        );
        assert!(r.elapsed.get() >= cfg.serial_compute());
    }
}
