//! `heap` and `aheap` on the shared `SortedQueue` against their twins —
//! the `BTreeMap` implementations they replaced (`twins/`) — over random
//! operation sequences: the same operations applied to both, and every
//! decision required to agree on the pick, the run-queue count, the
//! statistics and every cycle the meter was charged.
//!
//! The generator has the shape of `elsc-sched-linux`'s index-against-walk
//! test, and draws from the design under test: which tasks are queued
//! comes from `on_runqueue()`, which only the new side maintains.

mod twins;

use elsc_ktask::{MmId, SchedClass, TaskSpec, TaskState, TaskTable, Tid};
use elsc_sched_api::{SchedConfig, SchedCtx, Scheduler};
use elsc_simcore::{CostModel, CycleMeter, SimRng, Topology};
use elsc_stats::SchedStats;

use elsc_sched_ext::{AffinityHeapScheduler, HeapScheduler};

/// One simulated machine: a task table, per-CPU idle and current tasks,
/// and a scheduler.
struct Sim<S> {
    tasks: TaskTable,
    stats: SchedStats,
    meter: CycleMeter,
    costs: CostModel,
    cfg: SchedConfig,
    sched: S,
    idle: Vec<Tid>,
    current: Vec<Tid>,
}

impl<S: Scheduler> Sim<S> {
    fn new(cfg: SchedConfig, sched: S, specs: &[TaskSpec], counters: &[i32]) -> Sim<S> {
        let mut tasks = TaskTable::new();
        let idle: Vec<Tid> = (0..cfg.nr_cpus)
            .map(|cpu| {
                let t = tasks.spawn(&TaskSpec::named("idle").priority(1));
                tasks.task_mut(t).counter = 0;
                tasks.task_mut(t).processor = cpu;
                tasks.task_mut(t).has_cpu = true;
                t
            })
            .collect();
        for (i, (spec, &counter)) in specs.iter().zip(counters).enumerate() {
            let t = tasks.spawn(spec);
            tasks.task_mut(t).counter = counter;
            tasks.task_mut(t).processor = i % cfg.nr_cpus;
            tasks.task_mut(t).state = TaskState::Interruptible;
        }
        Sim {
            tasks,
            stats: SchedStats::new(cfg.nr_cpus),
            meter: CycleMeter::new(),
            costs: CostModel::default(),
            current: idle.clone(),
            idle,
            cfg,
            sched,
        }
    }

    fn call<R>(&mut self, f: impl FnOnce(&mut S, &mut SchedCtx<'_>) -> R) -> R {
        let mut ctx = SchedCtx {
            tasks: &mut self.tasks,
            stats: &mut self.stats,
            meter: &mut self.meter,
            costs: &self.costs,
            cfg: &self.cfg,
            probe: None,
            locks: None,
        };
        f(&mut self.sched, &mut ctx)
    }

    fn apply(&mut self, op: Op) -> Option<Tid> {
        match op {
            Op::Add(t) => {
                self.tasks.task_mut(t).state = TaskState::Running;
                self.call(|s, ctx| s.add_to_runqueue(ctx, t));
            }
            Op::Del(t) => {
                self.call(|s, ctx| s.del_from_runqueue(ctx, t));
                self.tasks.task_mut(t).state = TaskState::Interruptible;
            }
            Op::MoveFirst(t) => self.call(|s, ctx| s.move_first_runqueue(ctx, t)),
            Op::MoveLast(t) => self.call(|s, ctx| s.move_last_runqueue(ctx, t)),
            Op::Tick(t) => {
                let task = self.tasks.task_mut(t);
                task.counter = (task.counter - 1).max(0);
            }
            Op::Recalc => {
                self.tasks.recalc_counters(false);
            }
            Op::Migrate(t, cpu) => self.tasks.task_mut(t).processor = cpu,
            Op::Realtime(t, class, rt) => {
                let task = self.tasks.task_mut(t);
                task.policy.class = class;
                task.rt_priority = rt;
            }
            Op::ZeroCounter(t) => self.tasks.task_mut(t).counter = 0,
            Op::Decide { cpu, prelude } => {
                let (prev, idle) = (self.current[cpu], self.idle[cpu]);
                match prelude {
                    Prelude::None => {}
                    Prelude::Yield => self.tasks.task_mut(prev).policy.yielded = true,
                    Prelude::RrExpiry => self.tasks.task_mut(prev).counter = 0,
                    Prelude::Block => self.tasks.task_mut(prev).state = TaskState::Interruptible,
                }
                let next = self.call(|s, ctx| s.schedule(ctx, cpu, prev, idle));
                // The machine records where the pick runs.
                self.tasks.task_mut(next).processor = cpu;
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

/// The operation classes the test counts: the twelve above the decision
/// and the `has_cpu` hand-over a decision makes when it switches.
const CLASSES: [&str; 13] = [
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
];

/// Draws the next operation from the state of the design under test,
/// with the class it counts as.
fn draw<S: Scheduler>(rng: &mut SimRng, sim: &Sim<S>, pool: &[Tid]) -> (Op, Option<usize>) {
    let nr_cpus = sim.cfg.nr_cpus;
    let running = |t: Tid| sim.tasks.task(t).has_cpu;
    let queued: Vec<Tid> = pool
        .iter()
        .copied()
        .filter(|&t| sim.tasks.task(t).on_runqueue())
        .collect();
    let asleep: Vec<Tid> = pool
        .iter()
        .copied()
        .filter(|&t| !sim.tasks.task(t).on_runqueue())
        .collect();
    let waiting: Vec<Tid> = queued.iter().copied().filter(|&t| !running(t)).collect();
    let any = |rng: &mut SimRng, v: &[Tid]| v[rng.below(v.len() as u64) as usize];
    let cpu = rng.below(nr_cpus as u64) as usize;
    let prev = sim.current[cpu];
    match rng.below(16) {
        0 | 1 if !asleep.is_empty() => (Op::Add(any(rng, &asleep)), Some(0)),
        2 if !waiting.is_empty() => (Op::Del(any(rng, &waiting)), Some(1)),
        3 if !queued.is_empty() => (Op::MoveFirst(any(rng, &queued)), Some(2)),
        4 if !queued.is_empty() => (Op::MoveLast(any(rng, &queued)), Some(3)),
        5 if prev != sim.idle[cpu] => (Op::Tick(prev), Some(4)),
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
            let is_rr = sim.tasks.task(prev).policy.class == SchedClass::Rr;
            let (prelude, class) = match rng.below(8) {
                _ if prev == sim.idle[cpu] => (Prelude::None, None),
                0 => (Prelude::Yield, Some(6)),
                1 if is_rr => (Prelude::RrExpiry, Some(7)),
                2 | 3 => (Prelude::Block, Some(11)),
                _ => (Prelude::None, None),
            };
            (Op::Decide { cpu, prelude }, class)
        }
    }
}

/// The design under test and its twin, as constructors.
type Pair<N, T> = (fn() -> N, fn() -> T);

/// Runs `decisions` decisions of `design` against `twin` on `cfg` from
/// `seed`, asserting agreement after every decision; adds to the
/// per-class hit counts.
fn run<N: Scheduler, T: Scheduler>(
    (design, twin): Pair<N, T>,
    cfg: SchedConfig,
    seed: u64,
    decisions: u64,
    hits: &mut [u64; 13],
) {
    let mut rng = SimRng::new(seed);
    let n = 4 + rng.below(40) as usize;
    // Few address spaces (a VolanoMark run) or one per task (kbuild).
    let shared = rng.chance(0.5);
    // Few priorities, so that equal static keys (and their tie order)
    // are common.
    let levels = 1 + rng.below(3) as i32;
    let specs: Vec<TaskSpec> = (0..n)
        .map(|i| {
            let mm = if shared {
                1 + rng.below(3)
            } else {
                1 + i as u64
            };
            let spec = TaskSpec::named("t")
                .priority(20 * (1 + rng.below(levels as u64) as i32))
                .mm(MmId(mm as u32));
            match rng.below(10) {
                0 => spec.realtime(SchedClass::Fifo, rng.below(4) as i32),
                1 => spec.realtime(SchedClass::Rr, rng.below(4) as i32),
                _ => spec,
            }
        })
        .collect();
    let counters: Vec<i32> = specs
        .iter()
        .map(|s| {
            if rng.chance(0.5) {
                s.priority
            } else {
                rng.below(2 * s.priority as u64 + 1) as i32
            }
        })
        .collect();
    let mut new = Sim::new(cfg.clone(), design(), &specs, &counters);
    let mut old = Sim::new(cfg.clone(), twin(), &specs, &counters);
    let pool: Vec<Tid> = new.tasks.tids()[cfg.nr_cpus..].to_vec();
    let name = new.sched.name();
    let mut decided = 0;
    let mut step = 0u64;
    while decided < decisions {
        step += 1;
        let (op, class) = draw(&mut rng, &new, &pool);
        let before = match op {
            Op::Decide { cpu, .. } => Some(new.current[cpu]),
            _ => None,
        };
        let picked = new.apply(op);
        let reference = old.apply(op);
        let at = format!("{name} {cfg:?} seed {seed} step {step}: {op:?}");
        assert_eq!(picked, reference, "{at}");
        if let Some(c) = class {
            hits[c] += 1;
        }
        if before.is_some() {
            decided += 1;
            hits[12] += (picked != before) as u64;
            assert_eq!(
                new.sched.nr_running(),
                old.sched.nr_running(),
                "{at}: nr_running"
            );
            assert_eq!(new.stats, old.stats, "{at}: statistics");
            assert_eq!(new.meter, old.meter, "{at}: charges");
        }
    }
}

/// 100 000 decisions of `pair` over UP, 2P, 4P and `2N2C2T`.
fn differential<N: Scheduler, T: Scheduler>(pair: Pair<N, T>, base: u64) {
    let shapes = [
        SchedConfig::up(),
        SchedConfig::smp(2),
        SchedConfig::smp(4),
        SchedConfig::topo("2N2C2T".parse::<Topology>().expect("shape")),
    ];
    let mut hits = [0u64; 13];
    let mut decisions = 0;
    for (i, cfg) in shapes.iter().enumerate() {
        for seed in 0..25 {
            run(
                pair,
                cfg.clone(),
                base + 100 * i as u64 + seed,
                1_000,
                &mut hits,
            );
            decisions += 1_000;
        }
    }
    assert!(decisions >= 100_000);
    for (class, &n) in CLASSES.iter().zip(&hits) {
        assert!(n > 100, "operation class {class} hit {n} times");
    }
}

#[test]
fn heap_decides_like_its_btreemap_twin() {
    differential(
        (HeapScheduler::new, twins::heap::HeapScheduler::new),
        0x4EA9_0000,
    );
}

#[test]
fn aheap_decides_like_its_btreemap_twin() {
    differential(
        (
            AffinityHeapScheduler::new,
            twins::affinity_heap::AffinityHeapScheduler::new,
        ),
        0xA4EA_0000,
    );
}
