//! The goodness index against the walk it replaces, over random
//! operation sequences: one run queue answered by the index
//! ([`LinuxScheduler`]), a twin answered by the O(n) walk of the same
//! list ([`Walk`]), the same operations applied to both, and every
//! decision required to agree — the pick, and with it the goodness that
//! won, the `tasks_examined` count and every cycle the meter was charged.

use elsc_ktask::{MmId, SchedClass, TaskSpec, TaskState, Tid};
use elsc_sched_api::{frame, Rig, SchedConfig, SchedCtx, Scheduler};
use elsc_simcore::{SimRng, Topology};

use elsc_sched_linux::LinuxScheduler;

/// reg as it was before the index: the same queue, scanned by walking it.
struct Walk(LinuxScheduler);

impl Scheduler for Walk {
    fn name(&self) -> &'static str {
        "reg-walk"
    }

    fn add_to_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        self.0.add_to_runqueue(ctx, tid);
    }

    fn del_from_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        self.0.del_from_runqueue(ctx, tid);
    }

    fn move_first_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        self.0.move_first_runqueue(ctx, tid);
    }

    fn move_last_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        self.0.move_last_runqueue(ctx, tid);
    }

    fn schedule(&mut self, ctx: &mut SchedCtx<'_>, cpu: usize, prev: Tid, idle: Tid) -> Tid {
        let entered = frame::enter(&mut self.0, ctx, cpu, prev, idle);
        let (lists, nr_running) = (self.0.run_list(), self.0.nr_running());
        let next = frame::select(ctx, cpu, prev, idle, entered, nr_running, |ctx, _| {
            frame::scan_list(lists, 0, ctx, cpu, prev, entered.prev_mm)
        });
        frame::commit(ctx, cpu, prev, next, idle)
    }

    fn nr_running(&self) -> usize {
        self.0.nr_running()
    }
}

/// One simulated machine: the rig (a task table, per-CPU idle tasks and
/// a scheduler) and each CPU's current task.
struct Sim<S> {
    rig: Rig<S>,
    current: Vec<Tid>,
}

impl<S: Scheduler> Sim<S> {
    fn new(cfg: SchedConfig, sched: S, specs: &[TaskSpec], counters: &[i32]) -> Sim<S> {
        let mut rig = Rig::new(cfg, sched).idle_per_cpu();
        for (spec, &counter) in specs.iter().zip(counters) {
            let t = rig.tasks.spawn(spec);
            rig.tasks.task_mut(t).counter = counter;
            rig.tasks.task_mut(t).state = TaskState::Interruptible;
        }
        Sim {
            current: (0..rig.cfg.nr_cpus).map(|cpu| rig.idle(cpu)).collect(),
            rig,
        }
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
                let (prev, idle) = (self.current[cpu], self.rig.idle(cpu));
                match prelude {
                    Prelude::None => {}
                    Prelude::Yield => self.rig.tasks.task_mut(prev).policy.yielded = true,
                    Prelude::RrExpiry => self.rig.tasks.task_mut(prev).counter = 0,
                    Prelude::Block => {
                        self.rig.tasks.task_mut(prev).state = TaskState::Interruptible
                    }
                }
                let next = self.rig.call(|s, ctx| s.schedule(ctx, cpu, prev, idle));
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

/// Draws the next operation from the index side's state, with the class
/// it counts as.
fn draw(rng: &mut SimRng, sim: &Sim<LinuxScheduler>, pool: &[Tid]) -> (Op, Option<usize>) {
    let nr_cpus = sim.rig.cfg.nr_cpus;
    let running = |t: Tid| sim.rig.tasks.task(t).has_cpu;
    let queued: Vec<Tid> = pool
        .iter()
        .copied()
        .filter(|&t| sim.rig.tasks.task(t).on_runqueue())
        .collect();
    let asleep: Vec<Tid> = pool
        .iter()
        .copied()
        .filter(|&t| !sim.rig.tasks.task(t).on_runqueue())
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
            let is_rr = sim.rig.tasks.task(prev).policy.class == SchedClass::Rr;
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

/// Runs `decisions` decisions on `cfg` from `seed`, asserting agreement
/// after every operation; adds to the per-class hit counts.
fn run(cfg: SchedConfig, seed: u64, decisions: u64, hits: &mut [u64; 13]) {
    let mut rng = SimRng::new(seed);
    let n = 4 + rng.below(40) as usize;
    // Few address spaces (a VolanoMark run) or one per task (kbuild).
    let shared = rng.chance(0.5);
    let specs: Vec<TaskSpec> = (0..n)
        .map(|i| {
            let mm = if shared {
                1 + rng.below(3)
            } else {
                1 + i as u64
            };
            let spec = TaskSpec::named("t")
                .priority(1 + rng.below(40) as i32)
                .mm(MmId(mm as u32));
            match rng.below(10) {
                0 => spec.realtime(SchedClass::Fifo, rng.below(100) as i32),
                1 => spec.realtime(SchedClass::Rr, rng.below(100) as i32),
                _ => spec,
            }
        })
        .collect();
    let counters: Vec<i32> = specs
        .iter()
        .map(|s| rng.below(2 * s.priority as u64 + 1) as i32)
        .collect();
    let mut index = Sim::new(cfg.clone(), LinuxScheduler::new(), &specs, &counters);
    let mut walk = Sim::new(cfg.clone(), Walk(LinuxScheduler::new()), &specs, &counters);
    let pool: Vec<Tid> = index.rig.tasks.tids()[cfg.nr_cpus..].to_vec();
    let mut decided = 0;
    let mut step = 0u64;
    while decided < decisions {
        step += 1;
        let (op, class) = draw(&mut rng, &index, &pool);
        let before = match op {
            Op::Decide { cpu, .. } => Some(index.current[cpu]),
            _ => None,
        };
        let picked = index.apply(op);
        let walked = walk.apply(op);
        assert_eq!(picked, walked, "{cfg:?} seed {seed} step {step}: {op:?}");
        if let Some(c) = class {
            hits[c] += 1;
        }
        if before.is_some() {
            decided += 1;
            hits[12] += (picked != before) as u64;
            assert_eq!(
                index.rig.stats, walk.rig.stats,
                "seed {seed} step {step}: statistics"
            );
            assert_eq!(
                index.rig.meter, walk.rig.meter,
                "seed {seed} step {step}: charges"
            );
        }
    }
}

#[test]
fn the_index_picks_what_the_walk_picks() {
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
                cfg.clone(),
                0x1D_0000 + 100 * i as u64 + seed,
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
