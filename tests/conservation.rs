//! Conservation laws: every message sent is delivered exactly once, every
//! unit of work completes, and no runnable task falls off (or lingers
//! on) a run queue, regardless of scheduler or machine shape.

use elsc_ktask::{MmId, SchedClass, TaskSpec, TaskState, TaskTable, Tid};
use elsc_lab::SchedId;
use elsc_machine::MachineConfig;
use elsc_sched_api::{SchedConfig, SchedCtx, Scheduler};
use elsc_simcore::{CostModel, CycleMeter, SimRng, Topology};
use elsc_stats::SchedStats;
use elsc_workloads::httpd::{self, HttpdConfig};
use elsc_workloads::kbuild::{self, KbuildConfig};
use elsc_workloads::volanomark::{self, VolanoConfig};

/// Every native design in the registry, sized for a flat `nr_cpus` box.
fn all_schedulers(nr_cpus: usize) -> Vec<Box<dyn Scheduler>> {
    SchedId::NATIVE
        .iter()
        .map(|id| id.build(Topology::flat(nr_cpus)))
        .collect()
}

#[test]
fn volano_delivers_every_message_on_every_scheduler() {
    let cfg = VolanoConfig {
        rooms: 2,
        users_per_room: 6,
        messages_per_user: 3,
        ..VolanoConfig::default()
    };
    for cpus in [1, 2, 4] {
        for sched in all_schedulers(cpus) {
            let name = sched.name();
            let report =
                volanomark::run(MachineConfig::smp(cpus).with_max_secs(2_000.0), sched, &cfg);
            assert_eq!(
                report.ledger.get("messages"),
                cfg.total_deliveries(),
                "{name} on {cpus}P lost messages"
            );
            assert_eq!(
                report.messages_read,
                report.ledger.get("messages")
                    + cfg.total_deliveries() / cfg.users_per_room as u64 // c2s reads
                    + cfg.total_deliveries(), // outbox reads
                "{name} on {cpus}P pipe accounting off"
            );
        }
    }
}

#[test]
fn volano_up_build_matches_smp_semantics() {
    let cfg = VolanoConfig {
        rooms: 1,
        users_per_room: 5,
        messages_per_user: 4,
        ..VolanoConfig::default()
    };
    for sched in all_schedulers(1) {
        let name = sched.name();
        let report = volanomark::run(MachineConfig::up().with_max_secs(2_000.0), sched, &cfg);
        assert_eq!(
            report.ledger.get("messages"),
            cfg.total_deliveries(),
            "{name} on UP lost messages"
        );
    }
}

#[test]
fn kbuild_compiles_every_unit_on_every_scheduler() {
    let cfg = KbuildConfig {
        jobs: 3,
        translation_units: 10,
        compile_cycles: 1_000_000,
        io_blocks_per_unit: 2,
        io_block_cycles: 100_000,
        link_cycles: 2_000_000,
        jitter: 0.3,
    };
    for cpus in [1, 2] {
        for sched in all_schedulers(cpus) {
            let name = sched.name();
            let report = kbuild::run(MachineConfig::smp(cpus).with_max_secs(2_000.0), sched, &cfg);
            assert_eq!(
                report.ledger.get("units_compiled"),
                cfg.translation_units as u64,
                "{name} on {cpus}P dropped compile jobs"
            );
            assert_eq!(report.ledger.get("linked"), 1, "{name} must link once");
        }
    }
}

#[test]
fn httpd_serves_every_request_on_every_scheduler() {
    let cfg = HttpdConfig {
        workers: 3,
        clients: 8,
        requests_per_client: 4,
        ..HttpdConfig::default()
    };
    for cpus in [1, 4] {
        for sched in all_schedulers(cpus) {
            let name = sched.name();
            let report = httpd::run(MachineConfig::smp(cpus).with_max_secs(2_000.0), sched, &cfg);
            assert_eq!(
                report.ledger.get("requests_served"),
                cfg.total_requests(),
                "{name} on {cpus}P dropped requests"
            );
            assert_eq!(
                report.ledger.get("responses"),
                cfg.total_requests(),
                "{name} on {cpus}P lost responses"
            );
        }
    }
}

#[test]
fn every_spawned_task_exits() {
    let cfg = VolanoConfig {
        rooms: 1,
        users_per_room: 4,
        messages_per_user: 2,
        ..VolanoConfig::default()
    };
    for sched in all_schedulers(2) {
        let report = volanomark::run(MachineConfig::smp(2).with_max_secs(2_000.0), sched, &cfg);
        // 4 threads per user.
        assert_eq!(report.tasks_spawned, (cfg.users_per_room * 4) as u64);
    }
}

/// Kernel-level events the run-queue model injects on one CPU.
#[derive(Clone, Copy, Debug)]
enum KernelOp {
    /// Wake task `i` (no-op if already runnable).
    Wake(usize),
    /// The running task blocks and `schedule()` runs.
    Block,
    /// The running task is preempted (stays runnable).
    Preempt,
    /// The running task calls `sys_sched_yield()`.
    Yield,
    /// A timer tick drains one unit of the running task's quantum.
    Tick,
    /// Tie-break bias on a queued task.
    MoveFirst(usize),
    /// Tie-break bias on a queued task.
    MoveLast(usize),
}

const NR_TASKS: usize = 10;

/// One scheduler on a UP machine plus a model of which tasks are
/// runnable (`queued`) and which one holds the CPU.
struct RunQueueRig {
    tasks: TaskTable,
    stats: SchedStats,
    meter: CycleMeter,
    costs: CostModel,
    cfg: SchedConfig,
    sched: Box<dyn Scheduler>,
    idle: Tid,
    tids: Vec<Tid>,
    queued: [bool; NR_TASKS],
    current: Option<usize>,
}

impl RunQueueRig {
    fn new(sched: Box<dyn Scheduler>) -> RunQueueRig {
        let mut tasks = TaskTable::new();
        let idle = tasks.spawn(&TaskSpec::named("idle").priority(1));
        tasks.task_mut(idle).counter = 0;
        tasks.task_mut(idle).has_cpu = true;
        let tids = (0..NR_TASKS)
            .map(|i| {
                // Two real-time tasks among the SCHED_OTHER ones, so the
                // ELSC table's RT region sees the same op sequences.
                let spec = TaskSpec::named("t").mm(MmId(1 + (i % 3) as u32));
                let tid = tasks.spawn(&match i {
                    8 => spec.realtime(SchedClass::Fifo, 50),
                    9 => spec.realtime(SchedClass::Rr, 10),
                    _ => spec,
                });
                let mut t = tasks.task_mut(tid);
                t.state = TaskState::Interruptible;
                t.counter = 1 + (i % 20) as i32;
                tid
            })
            .collect();
        RunQueueRig {
            tasks,
            stats: SchedStats::new(1),
            meter: CycleMeter::new(),
            costs: CostModel::default(),
            cfg: SchedConfig::up(),
            sched,
            idle,
            tids,
            queued: [false; NR_TASKS],
            current: None,
        }
    }

    fn with_ctx<R>(&mut self, f: impl FnOnce(&mut dyn Scheduler, &mut SchedCtx<'_>) -> R) -> R {
        let mut ctx = SchedCtx {
            tasks: &mut self.tasks,
            stats: &mut self.stats,
            meter: &mut self.meter,
            costs: &self.costs,
            cfg: &self.cfg,
            probe: None,
            locks: None,
        };
        f(self.sched.as_mut(), &mut ctx)
    }

    fn schedule(&mut self) {
        let prev = self.current.map_or(self.idle, |i| self.tids[i]);
        let idle = self.idle;
        let next = self.with_ctx(|s, ctx| s.schedule(ctx, 0, prev, idle));
        // A blocked prev leaves the queue; a runnable one keeps its spot.
        if let Some(i) = self.current {
            self.queued[i] = self.tasks.task(prev).state.is_runnable();
        }
        let name = self.sched.name();
        self.current = self.tids.iter().position(|&t| t == next);
        match self.current {
            Some(i) => assert!(self.queued[i], "{name} picked a non-runnable task"),
            None => {
                assert_eq!(next, idle, "{name} picked an unknown task");
                assert!(
                    !self.queued.contains(&true),
                    "{name} idled with runnable work queued"
                );
            }
        }
    }

    fn apply(&mut self, op: KernelOp) {
        match op {
            KernelOp::Wake(i) if !self.queued[i] => {
                let tid = self.tids[i];
                self.tasks.task_mut(tid).state = TaskState::Running;
                self.with_ctx(|s, ctx| s.add_to_runqueue(ctx, tid));
                self.queued[i] = true;
            }
            KernelOp::Block => {
                if let Some(i) = self.current {
                    self.tasks.task_mut(self.tids[i]).state = TaskState::Interruptible;
                }
                self.schedule();
            }
            KernelOp::Preempt => self.schedule(),
            KernelOp::Yield => {
                if let Some(i) = self.current {
                    self.tasks.task_mut(self.tids[i]).policy.yielded = true;
                }
                self.schedule();
            }
            KernelOp::Tick => {
                if let Some(i) = self.current {
                    let mut t = self.tasks.task_mut(self.tids[i]);
                    t.counter = (t.counter - 1).max(0);
                }
            }
            KernelOp::MoveFirst(i) | KernelOp::MoveLast(i)
                if self.queued[i]
                    && self.current != Some(i)
                    && self.tasks.task(self.tids[i]).in_list() =>
            {
                let tid = self.tids[i];
                self.with_ctx(|s, ctx| match op {
                    KernelOp::MoveFirst(_) => s.move_first_runqueue(ctx, tid),
                    _ => s.move_last_runqueue(ctx, tid),
                });
            }
            KernelOp::Wake(_) | KernelOp::MoveFirst(_) | KernelOp::MoveLast(_) => {}
        }
        // After every step the scheduler's own structure is intact and
        // it counts exactly the model's runnable set.
        self.sched.debug_check(&self.tasks);
        let runnable = self.queued.iter().filter(|&&q| q).count();
        let name = self.sched.name();
        assert_eq!(self.sched.nr_running(), runnable, "{name}: nr_running");
    }
}

/// Every scheduler keeps its run-queue structure, its `nr_running` and
/// the work-conserving rule (never idle with runnable work, never pick a
/// blocked task) under arbitrary wake/block/preempt/yield/tick/move
/// sequences. `SimRng`-seeded; the first sequence is a failure an
/// earlier property run shrank to.
#[test]
fn run_queue_accounting_survives_random_kernel_ops_on_every_scheduler() {
    use KernelOp::*;
    let saved = [
        Wake(3),
        Wake(1),
        Block,
        Yield,
        Preempt,
        Yield,
        Wake(0),
        Block,
        Wake(0),
        Wake(0),
        Wake(1),
    ];
    for seed in 0..64u64 {
        let mut rng = SimRng::new(0x5EED_0B5E ^ seed);
        let mut ops = if seed == 0 {
            saved.to_vec()
        } else {
            Vec::new()
        };
        for _ in 0..1 + rng.below(150) {
            let i = rng.below(NR_TASKS as u64) as usize;
            ops.push(match rng.below(7) {
                0 => Wake(i),
                1 => Block,
                2 => Preempt,
                3 => Yield,
                4 => Tick,
                5 => MoveFirst(i),
                _ => MoveLast(i),
            });
        }
        for sched in all_schedulers(1) {
            let mut rig = RunQueueRig::new(sched);
            for &op in &ops {
                rig.apply(op);
            }
        }
    }
}
