//! Every refactored design against its twin — the implementation it
//! replaced (`twins/`) — over random operation sequences: reg's goodness
//! index against the O(n) walk of the same list, `heap` and `aheap` on
//! the shared `SortedQueue`, and `mq` and `bubble` on the shared
//! `RunQueues` list bank. The same operations are applied to both, and
//! every decision is required to agree on the pick, the run-queue count,
//! the statistics, every cycle the meter was charged and, on SMP shapes,
//! every mid-call lock-domain acquisition and the instant it was owned.
//!
//! This is the one random-operation generator: it draws from the design
//! under test (which tasks are queued comes from `on_runqueue()`, which
//! only the new side of the heap pairs maintains), over a task population
//! drawn in one of two [`Regime`]s.

mod twins;

use elsc_ktask::{MmId, SchedClass, TaskSpec, TaskState, TaskTable, Tid};
use elsc_sched_api::{LockModel, Rig, SchedConfig, Scheduler};
use elsc_simcore::{Cycles, SimRng, Topology};

use elsc_sched_ext::{AffinityHeapScheduler, BubbleScheduler, HeapScheduler, MultiQueueScheduler};
use elsc_sched_linux::LinuxScheduler;
use twins::walk::Walk;

/// One simulated machine: the rig (a task table, per-CPU idle tasks, a
/// scheduler and, on SMP shapes, the lock domains it declares), each
/// CPU's current task, and when the last locked call released its
/// domains.
struct Sim<S> {
    rig: Rig<S>,
    clock: Cycles,
    current: Vec<Tid>,
}

impl<S: Scheduler> Sim<S> {
    fn new(cfg: SchedConfig, sched: S, population: &[Drawn]) -> Sim<S> {
        let mut rig = Rig::new(cfg, sched).idle_per_cpu();
        let nr_cpus = rig.cfg.nr_cpus;
        for (spec, counter, processor) in population {
            let t = rig.tasks.spawn(spec);
            rig.tasks.task_mut(t).counter = *counter;
            rig.tasks.task_mut(t).processor = *processor;
            rig.tasks.task_mut(t).state = TaskState::Interruptible;
        }
        if rig.cfg.smp {
            let transfer = rig.costs.get(elsc_simcore::CostKind::LockTransfer);
            let plan = rig.sched.lock_plan(nr_cpus);
            rig.locks = Some(LockModel::new(plan, nr_cpus, transfer));
        }
        Sim {
            current: (0..nr_cpus).map(|cpu| rig.idle(cpu)).collect(),
            rig,
            clock: Cycles::ZERO,
        }
    }

    /// One `schedule()` on `cpu` after `prev`. On an SMP shape it takes
    /// the CPU's home domain first and holds every domain it took until
    /// the call's charges have elapsed, as the machine does; the meter is
    /// never reset here, so the held span grows with it, the same on
    /// both sides.
    fn schedule(&mut self, cpu: usize, prev: Tid) -> Tid {
        let idle = self.rig.idle(cpu);
        let clock = self.clock;
        let at = self
            .rig
            .locks
            .as_mut()
            .map(|l| l.lock_home(cpu, cpu, clock).at);
        let next = self.rig.call(|s, ctx| s.schedule(ctx, cpu, prev, idle));
        if let (Some(at), Some(l)) = (at, self.rig.locks.as_mut()) {
            self.clock = at + self.rig.meter.cycles() + l.extra_spin();
            l.release_all(self.clock);
        }
        next
    }

    fn apply(&mut self, op: Op) -> Option<Tid> {
        match op {
            Op::Add(t) => {
                self.rig.tasks.task_mut(t).state = TaskState::Running;
                self.rig.add(t);
            }
            Op::Del(t) => {
                self.rig.del(t);
                self.rig.tasks.task_mut(t).state = TaskState::Interruptible;
            }
            Op::MoveFirst(t) => self.rig.call(|s, ctx| s.move_first_runqueue(ctx, t)),
            Op::MoveLast(t) => self.rig.call(|s, ctx| s.move_last_runqueue(ctx, t)),
            Op::Tick(t) => {
                let task = self.rig.tasks.task_mut(t);
                task.counter = (task.counter - 1).max(0);
            }
            Op::Recalc => {
                self.rig.tasks.recalc_counters(false);
            }
            Op::Migrate(t, cpu) => self.rig.tasks.task_mut(t).processor = cpu,
            Op::Realtime(t, class, rt) => {
                let task = self.rig.tasks.task_mut(t);
                task.policy.class = class;
                task.rt_priority = rt;
            }
            Op::ZeroCounter(t) => self.rig.tasks.task_mut(t).counter = 0,
            Op::Decide { cpu, prelude } => {
                let prev = self.current[cpu];
                match prelude {
                    Prelude::None => {}
                    Prelude::Yield => self.rig.tasks.task_mut(prev).policy.yielded = true,
                    Prelude::RrExpiry => self.rig.tasks.task_mut(prev).counter = 0,
                    Prelude::Block => {
                        self.rig.tasks.task_mut(prev).state = TaskState::Interruptible
                    }
                }
                let next = self.schedule(cpu, prev);
                // The machine records where the pick runs.
                self.rig.tasks.task_mut(next).processor = cpu;
                self.current[cpu] = next;
                return Some(next);
            }
        }
        None
    }
}

/// What a decision does to `prev` first.
#[derive(Clone, Copy, Debug)]
enum Prelude {
    None,
    Yield,
    RrExpiry,
    Block,
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Add(Tid),
    Del(Tid),
    MoveFirst(Tid),
    MoveLast(Tid),
    Tick(Tid),
    Recalc,
    Migrate(Tid, usize),
    Realtime(Tid, SchedClass, i32),
    ZeroCounter(Tid),
    Decide { cpu: usize, prelude: Prelude },
}

/// The operation classes the test counts: the twelve above the decision,
/// the `has_cpu` hand-over a decision makes when it switches, and a
/// decision that moved a queued task to another list (an `mq` steal, a
/// `bubble` rehome).
const CLASSES: [&str; 14] = [
    "add",
    "del",
    "move_first",
    "move_last",
    "tick",
    "recalc",
    "yield",
    "rr_expiry",
    "migration",
    "realtime",
    "zero_counter",
    "block",
    "handover",
    "queue_move",
];

/// Draws the next operation from the state of the design under test,
/// with the class it counts as.
fn draw(rng: &mut SimRng, sim: &Sim<impl Scheduler>, pool: &[Tid]) -> (Op, Option<usize>) {
    let nr_cpus = sim.rig.cfg.nr_cpus;
    let task = |t: Tid| sim.rig.tasks.task(t);
    let running = |t: Tid| task(t).has_cpu;
    let (queued, asleep): (Vec<Tid>, Vec<Tid>) = pool.iter().partition(|&&t| task(t).on_runqueue());
    let waiting: Vec<Tid> = queued.iter().copied().filter(|&t| !running(t)).collect();
    let any = |rng: &mut SimRng, v: &[Tid]| v[rng.below(v.len() as u64) as usize];
    let cpu = rng.below(nr_cpus as u64) as usize;
    let prev = sim.current[cpu];
    match rng.below(16) {
        0 | 1 if !asleep.is_empty() => (Op::Add(any(rng, &asleep)), Some(0)),
        2 if !waiting.is_empty() => (Op::Del(any(rng, &waiting)), Some(1)),
        3 if !queued.is_empty() => (Op::MoveFirst(any(rng, &queued)), Some(2)),
        4 if !queued.is_empty() => (Op::MoveLast(any(rng, &queued)), Some(3)),
        5 if prev != sim.rig.idle(cpu) => (Op::Tick(prev), Some(4)),
        6 if rng.chance(0.1) => (Op::Recalc, Some(5)),
        7 if !waiting.is_empty() => {
            let t = any(rng, &waiting);
            (Op::Migrate(t, rng.below(nr_cpus as u64) as usize), Some(8))
        }
        8 => {
            let t = any(rng, pool);
            let (class, rt) = match rng.below(4) {
                0 => (SchedClass::Fifo, rng.below(100) as i32),
                1 => (SchedClass::Rr, rng.below(100) as i32),
                _ => (SchedClass::Other, 0),
            };
            (Op::Realtime(t, class, rt), Some(9))
        }
        9 => (Op::ZeroCounter(any(rng, pool)), Some(10)),
        _ => {
            let is_rr = task(prev).policy.class == SchedClass::Rr;
            let (prelude, class) = match rng.below(8) {
                _ if prev == sim.rig.idle(cpu) => (Prelude::None, None),
                0 => (Prelude::Yield, Some(6)),
                1 if is_rr => (Prelude::RrExpiry, Some(7)),
                2 | 3 => (Prelude::Block, Some(11)),
                _ => (Prelude::None, None),
            };
            (Op::Decide { cpu, prelude }, class)
        }
    }
}

/// The design under test and its twin, as constructors for a shape.
type Pair<N, T> = (fn(&SchedConfig) -> N, fn(&SchedConfig) -> T);

/// The list each queued task of `pool` is filed on.
fn filed(tasks: &TaskTable, pool: &[Tid]) -> Vec<Option<u16>> {
    let on_list = |t: &elsc_ktask::Task| t.in_list().then_some(t.rq_hint);
    pool.iter().map(|&t| on_list(tasks.task(t))).collect()
}

/// How a run's tasks are drawn.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Regime {
    /// Priorities 1–40, `rt_priority` 0–99, uniform counters, every task
    /// last ran on CPU 0.
    Broad,
    /// Few priorities, all multiples of 20, `rt_priority` below 4, half
    /// the counters at priority and the tasks spread over the CPUs, so
    /// that equal static keys (and their tie order) are common.
    TieHeavy,
}

/// A task of the population: its spec, counter and last CPU.
type Drawn = (TaskSpec, i32, usize);

/// Draws 4–43 sleeping tasks in `regime` on a machine of `nr_cpus`.
fn population(rng: &mut SimRng, regime: Regime, nr_cpus: usize) -> Vec<Drawn> {
    let ties = regime == Regime::TieHeavy;
    let n = 4 + rng.below(40) as usize;
    // Few address spaces (a VolanoMark run) or one per task (kbuild).
    let shared = rng.chance(0.5);
    let (levels, rt_levels) = if ties {
        (1 + rng.below(3), 4)
    } else {
        (0, 100)
    };
    let specs: Vec<TaskSpec> = (0..n)
        .map(|i| {
            let mm = if shared {
                1 + rng.below(3)
            } else {
                1 + i as u64
            };
            let priority = match regime {
                Regime::Broad => 1 + rng.below(40) as i32,
                Regime::TieHeavy => 20 * (1 + rng.below(levels) as i32),
            };
            let spec = TaskSpec::named("t").priority(priority).mm(MmId(mm as u32));
            match rng.below(10) {
                0 => spec.realtime(SchedClass::Fifo, rng.below(rt_levels) as i32),
                1 => spec.realtime(SchedClass::Rr, rng.below(rt_levels) as i32),
                _ => spec,
            }
        })
        .collect();
    specs
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            let counter = if ties && rng.chance(0.5) {
                spec.priority
            } else {
                rng.below(2 * spec.priority as u64 + 1) as i32
            };
            (spec, counter, if ties { i % nr_cpus } else { 0 })
        })
        .collect()
}

/// Runs `decisions` decisions of `design` against `twin` on `cfg` from
/// `seed` over a population drawn in `regime`, asserting agreement after
/// every decision; adds to the per-class hit counts.
fn run<N: Scheduler, T: Scheduler>(
    (design, twin): Pair<N, T>,
    regime: Regime,
    cfg: SchedConfig,
    seed: u64,
    decisions: u64,
    hits: &mut [u64; 14],
) {
    let mut rng = SimRng::new(seed);
    let population = population(&mut rng, regime, cfg.nr_cpus);
    let mut new = Sim::new(cfg.clone(), design(&cfg), &population);
    let mut old = Sim::new(cfg.clone(), twin(&cfg), &population);
    let pool: Vec<Tid> = new.rig.tasks.tids()[cfg.nr_cpus..].to_vec();
    let name = new.rig.sched.name();
    let mut decided = 0;
    let mut step = 0u64;
    while decided < decisions {
        step += 1;
        let (op, class) = draw(&mut rng, &new, &pool);
        let before = match op {
            Op::Decide { cpu, .. } => Some((new.current[cpu], filed(&new.rig.tasks, &pool))),
            _ => None,
        };
        let picked = new.apply(op);
        let reference = old.apply(op);
        let at = format!("{name} {regime:?} {cfg:?} seed {seed} step {step}: {op:?}");
        assert_eq!(picked, reference, "{at}");
        if let Some(c) = class {
            hits[c] += 1;
        }
        if let Some((prev, was_filed)) = before {
            decided += 1;
            hits[12] += (picked != Some(prev)) as u64;
            let moved = was_filed
                .iter()
                .zip(filed(&new.rig.tasks, &pool))
                .any(|(was, is)| matches!((was, is), (Some(a), Some(b)) if *a != b));
            hits[13] += moved as u64;
            assert_eq!(
                new.rig.sched.nr_running(),
                old.rig.sched.nr_running(),
                "{at}: nr_running"
            );
            assert_eq!(new.rig.stats, old.rig.stats, "{at}: statistics");
            assert_eq!(new.rig.meter, old.rig.meter, "{at}: charges");
            let taken = |l: &Option<LockModel>| l.as_ref().map(|l| l.taken().to_vec());
            assert_eq!(
                taken(&new.rig.locks),
                taken(&old.rig.locks),
                "{at}: lock domains"
            );
        }
    }
}

/// The shapes the heap designs run on.
fn heap_shapes() -> [SchedConfig; 4] {
    [
        SchedConfig::up(),
        SchedConfig::smp(2),
        SchedConfig::smp(4),
        SchedConfig::topo("2N2C2T".parse::<Topology>().expect("shape")),
    ]
}

/// The shapes the list-bank designs run on: every one has more than one
/// CPU to steal with, and the two trees more than one node.
fn list_shapes() -> [SchedConfig; 4] {
    [
        SchedConfig::smp(2),
        SchedConfig::smp(4),
        SchedConfig::topo("2N2C1T".parse::<Topology>().expect("shape")),
        SchedConfig::topo("2N2C2T".parse::<Topology>().expect("shape")),
    ]
}

/// 100 000 decisions of `pair` in `regime`, 25 seeds × 1 000 on each of
/// `shapes`; every operation class but the queue moves must occur more
/// than 100 times, and those too when the design `moves` tasks between
/// lists.
fn differential<N: Scheduler, T: Scheduler>(
    pair: Pair<N, T>,
    regime: Regime,
    base: u64,
    shapes: [SchedConfig; 4],
    moves: bool,
) {
    let mut hits = [0u64; 14];
    let mut decisions = 0;
    for (i, cfg) in shapes.iter().enumerate() {
        for seed in 0..25 {
            run(
                pair,
                regime,
                cfg.clone(),
                base + 100 * i as u64 + seed,
                1_000,
                &mut hits,
            );
            decisions += 1_000;
        }
    }
    assert!(decisions >= 100_000);
    let classes = if moves { 14 } else { 13 };
    for (class, &n) in CLASSES.iter().zip(&hits).take(classes) {
        assert!(n > 100, "operation class {class} hit {n} times");
    }
}

#[test]
fn the_index_picks_what_the_walk_picks() {
    let reg: Pair<_, _> = (|_| LinuxScheduler::new(), |_| Walk(LinuxScheduler::new()));
    differential(reg, Regime::Broad, 0x1D_0000, heap_shapes(), false);
    differential(reg, Regime::TieHeavy, 0x1D_1000, heap_shapes(), false);
}

#[test]
fn heap_decides_like_its_btreemap_twin() {
    let heap: Pair<_, _> = (
        |_| HeapScheduler::new(),
        |_| twins::heap::HeapScheduler::new(),
    );
    differential(heap, Regime::TieHeavy, 0x4EA9_0000, heap_shapes(), false);
}

#[test]
fn aheap_decides_like_its_btreemap_twin() {
    let aheap: Pair<_, _> = (
        |_| AffinityHeapScheduler::new(),
        |_| twins::affinity_heap::AffinityHeapScheduler::new(),
    );
    differential(aheap, Regime::TieHeavy, 0xA4EA_0000, heap_shapes(), false);
}

#[test]
fn mq_decides_like_its_hand_written_twin() {
    let mq: Pair<_, _> = (
        |cfg| MultiQueueScheduler::new(cfg.nr_cpus),
        |cfg| twins::multiqueue::MultiQueueScheduler::new(cfg.nr_cpus),
    );
    differential(mq, Regime::TieHeavy, 0x3A0_0000, list_shapes(), true);
}

#[test]
fn bubble_decides_like_its_hand_written_twin() {
    let bubble: Pair<_, _> = (
        |cfg| BubbleScheduler::new(cfg.topology),
        |cfg| twins::bubble::BubbleScheduler::new(cfg.topology),
    );
    differential(bubble, Regime::TieHeavy, 0xB0B_0000, list_shapes(), true);
}
