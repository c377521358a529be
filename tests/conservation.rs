//! Conservation laws: every message sent is delivered exactly once, every
//! unit of work completes, and no runnable task falls off (or lingers
//! on) a run queue, regardless of scheduler or machine shape.

use std::cell::Cell;
use std::rc::Rc;

use elsc_bench::rig::Rig;
use elsc_ktask::{MmId, SchedClass, TaskSpec, TaskState, Tid};
use elsc_lab::SchedId;
use elsc_machine::MachineConfig;
use elsc_obs::{CallbackSink, EventBus, ObsEvent, ObsRecord};
use elsc_sched_api::{SchedConfig, Scheduler};
use elsc_simcore::{SimRng, Topology};
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

/// One scheduler driving CPU 0 of a UP or SMP machine, plus a model of
/// which tasks are runnable (`queued`) and which one holds the CPU. On
/// an SMP shape every other CPU stays parked on its idle task.
struct RunQueueRig {
    /// The scheduler, its task table and meters; its probe bus has one
    /// sink counting `recalc_start` events.
    rig: Rig,
    recalc_starts: Rc<Cell<u64>>,
    tids: Vec<Tid>,
    queued: [bool; NR_TASKS],
    current: Option<usize>,
}

impl RunQueueRig {
    fn new(sched: Box<dyn Scheduler>, cfg: SchedConfig) -> RunQueueRig {
        // The rig brings CPU 0's idle task; the other CPUs' follow it.
        let mut rig = Rig::around(sched, cfg);
        let tasks = &mut rig.tasks;
        for cpu in 1..rig.cfg.nr_cpus {
            let idle = tasks.spawn(&TaskSpec::named("idle").priority(1));
            let t = tasks.task_mut(idle);
            t.counter = 0;
            t.processor = cpu;
            t.has_cpu = true;
        }
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
                let t = tasks.task_mut(tid);
                t.state = TaskState::Interruptible;
                t.counter = 1 + (i % 20) as i32;
                // Spread last-run CPUs, so per-CPU designs have remote
                // queues for CPU 0 to steal from.
                t.processor = i % rig.cfg.nr_cpus;
                tid
            })
            .collect();
        let recalc_starts = Rc::new(Cell::new(0));
        let mut bus = EventBus::new(0);
        let seen = Rc::clone(&recalc_starts);
        bus.add_sink(Box::new(CallbackSink::new(move |rec: &ObsRecord| {
            if matches!(rec.event, ObsEvent::RecalcStart { .. }) {
                seen.set(seen.get() + 1);
            }
        })));
        rig.probe = Some(bus);
        RunQueueRig {
            rig,
            recalc_starts,
            tids,
            queued: [false; NR_TASKS],
            current: None,
        }
    }

    fn schedule(&mut self) {
        let prev = self.current.map_or(self.rig.idle, |i| self.tids[i]);
        let idle = self.rig.idle;
        let (prev_runnable, rr_exhausted) = {
            let p = self.rig.tasks.task(prev);
            let runnable = p.state.is_runnable();
            (
                runnable,
                runnable && p.policy.class == SchedClass::Rr && p.counter == 0,
            )
        };
        let next = self.rig.call(|s, ctx| s.schedule(ctx, 0, prev, idle));
        let name = self.rig.sched.name();
        // The trait's `# Contract`, clause by clause.
        {
            let p = self.rig.tasks.task(prev);
            assert!(!p.policy.yielded, "{name} left prev's SCHED_YIELD set");
            assert!(
                self.rig.tasks.task(next).has_cpu,
                "{name}: pick lacks has_cpu"
            );
            if next != prev {
                assert!(!p.has_cpu, "{name}: switched-out prev kept has_cpu");
            }
            if prev != idle && !prev_runnable {
                assert!(!p.on_runqueue(), "{name}: blocked prev still queued");
            }
            if rr_exhausted {
                assert_eq!(p.counter, p.priority, "{name}: RR quantum not refreshed");
            }
        }
        // The machine records where the pick runs.
        self.rig.tasks.task_mut(next).processor = 0;
        // A blocked prev leaves the queue; a runnable one keeps its spot.
        if let Some(i) = self.current {
            self.queued[i] = prev_runnable;
        }
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
                self.rig.tasks.task_mut(tid).state = TaskState::Running;
                self.rig.call(|s, ctx| s.add_to_runqueue(ctx, tid));
                self.queued[i] = true;
            }
            KernelOp::Block => {
                if let Some(i) = self.current {
                    self.rig.tasks.task_mut(self.tids[i]).state = TaskState::Interruptible;
                }
                self.schedule();
            }
            KernelOp::Preempt => self.schedule(),
            KernelOp::Yield => {
                if let Some(i) = self.current {
                    self.rig.tasks.task_mut(self.tids[i]).policy.yielded = true;
                }
                self.schedule();
            }
            KernelOp::Tick => {
                if let Some(i) = self.current {
                    let t = self.rig.tasks.task_mut(self.tids[i]);
                    t.counter = (t.counter - 1).max(0);
                }
            }
            KernelOp::MoveFirst(i) | KernelOp::MoveLast(i)
                if self.queued[i]
                    && self.current != Some(i)
                    && self.rig.tasks.task(self.tids[i]).in_list() =>
            {
                let tid = self.tids[i];
                self.rig.call(|s, ctx| match op {
                    KernelOp::MoveFirst(_) => s.move_first_runqueue(ctx, tid),
                    _ => s.move_last_runqueue(ctx, tid),
                });
            }
            KernelOp::Wake(_) | KernelOp::MoveFirst(_) | KernelOp::MoveLast(_) => {}
        }
        // After every step the scheduler's own structure is intact and
        // it counts exactly the model's runnable set.
        self.rig.sched.debug_check(&self.rig.tasks);
        let runnable = self.queued.iter().filter(|&&q| q).count();
        let name = self.rig.sched.name();
        assert_eq!(self.rig.sched.nr_running(), runnable, "{name}: nr_running");
    }

    /// What the sequence cost, for the pinned totals.
    fn totals(&self) -> Totals {
        let t = self.rig.stats.total();
        [
            self.rig.meter.cycles(),
            self.rig.meter.charges(),
            t.tasks_examined,
            t.recalc_entries,
            t.recalc_tasks,
            t.yield_reruns,
        ]
    }
}

/// `[meter.cycles(), meter.charges(), tasks_examined, recalc_entries,
/// recalc_tasks, yield_reruns]`, summed over the 64 sequences.
type Totals = [u64; 6];

/// The designs under the model: every native row of the registry, plus
/// the two loadable kinds that run on the shared `schedule()` frame.
const MODEL_ROWS: [&str; 9] = [
    "reg",
    "elsc",
    "heap",
    "aheap",
    "mq",
    "bubble",
    "policy:policies/reg.pol",
    "policy:policies/table.pol",
    "learned:models/volano-mlp.model",
];

/// Totals per [`MODEL_ROWS`] entry on the UP build, captured at the
/// commit before the designs moved onto `elsc_sched_api::frame`. Virtual
/// cost is part of every design's contract: a refactor must not move it.
const PINNED_UP: [Totals; 9] = [
    [2635750, 7513, 3068, 118, 1298, 0],
    [2538425, 8280, 1523, 20, 220, 279],
    [2518450, 7819, 1336, 19, 209, 321],
    [2564615, 8591, 2086, 20, 220, 161],
    [2635750, 7513, 3068, 118, 1298, 0],
    [2635750, 7513, 3068, 118, 1298, 0],
    [3448830, 88821, 3068, 118, 1298, 0],
    [8017380, 455315, 338, 1415, 15565, 0],
    [2882920, 13085, 8140, 118, 1298, 0],
];

/// The same under `SchedConfig::smp(2)` with CPU 1 parked idle, which
/// takes the scans' `has_cpu` skip branch instead of the UP `prev` test.
const PINNED_2P: [Totals; 9] = [
    [2645610, 7640, 3073, 118, 1416, 0],
    [2543685, 8380, 1569, 20, 240, 282],
    [2519970, 7838, 1336, 19, 228, 321],
    [2583435, 8910, 2346, 21, 252, 151],
    [2719290, 8544, 2225, 238, 2856, 0],
    [2645610, 7640, 3073, 118, 1416, 0],
    [3460120, 89091, 3073, 118, 1416, 0],
    [8130580, 456730, 338, 1415, 16980, 0],
    [2884125, 13124, 8089, 118, 1416, 0],
];

/// Every scheduler keeps its run-queue structure, its `nr_running`, the
/// `Scheduler` contract and the work-conserving rule (never idle with
/// runnable work, never pick a blocked task) under arbitrary
/// wake/block/preempt/yield/tick/move sequences — at exactly the pinned
/// virtual cost, with one `recalc_start` event per counted recalculation.
/// `SimRng`-seeded; the first sequence is a failure an earlier property
/// run shrank to.
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
    let sequences: Vec<Vec<KernelOp>> = (0..64u64)
        .map(|seed| {
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
            ops
        })
        .collect();
    for (cfg, pinned) in [
        (SchedConfig::up(), &PINNED_UP),
        (SchedConfig::smp(2), &PINNED_2P),
    ] {
        for (row, want) in MODEL_ROWS.iter().zip(pinned) {
            let id: SchedId = row.parse().expect("bundled scheduler loads");
            let mut got: Totals = [0; 6];
            for ops in &sequences {
                let sched = id.build(Topology::flat(cfg.nr_cpus));
                let mut rig = RunQueueRig::new(sched, cfg.clone());
                for &op in ops {
                    rig.apply(op);
                }
                let totals = rig.totals();
                assert_eq!(
                    rig.recalc_starts.get(),
                    totals[3],
                    "{row} on {}: recalc_start events vs recalc_entries",
                    cfg.label()
                );
                for (sum, x) in got.iter_mut().zip(totals) {
                    *sum += x;
                }
            }
            assert_eq!(got, *want, "{row} on {}: pinned totals", cfg.label());
        }
    }
}
