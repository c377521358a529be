//! Implementing your own scheduler against the `Scheduler` trait.
//!
//! The paper's design goal 1 — "do not change current interfaces to the
//! scheduler" — is what makes the designs interchangeable. This example
//! shows **both** routes to a custom design:
//!
//! 1. the native route — implement the `Scheduler` trait on top of
//!    `elsc_sched_api::frame` (a deliberately naive FIFO scheduler
//!    below: its queue structure and its scan, nothing else), and
//! 2. the policy route — write a few lines of `.pol` text and let the
//!    `elsc-policy` runtime verify and interpret it (the bundled
//!    round-robin program here). No Rust, no rebuild; the policy VM
//!    charges `CostKind::PolicyInsn` per executed instruction and the machine's
//!    watchdog ejects a program that misbehaves mid-run.
//!
//! Both run the same synthetic stress workload beside ELSC and reg.
//!
//! ```sh
//! cargo run --release --example custom_scheduler
//! ```

use elsc::ElscScheduler;
use elsc_ktask::{CpuId, Lists, Tid};
use elsc_machine::MachineConfig;
use elsc_policy::PolicyScheduler;
use elsc_sched_api::{frame, LockPlan, SchedCtx, Scheduler, IDLE_GOODNESS};
use elsc_simcore::CostKind;
use elsc_workloads::stress::{self, StressConfig};

/// A strict FIFO run queue: no goodness, no priorities, no affinity.
/// Don't use this at home — the longest-waiting task always wins, so
/// quanta mean nothing.
///
/// Only the queue structure and the scan are written here; everything
/// else in `schedule()` comes from `elsc_sched_api::frame` (the same
/// design is that module's doctest).
struct FifoScheduler {
    lists: Lists,
    nr: usize,
}

impl FifoScheduler {
    fn new() -> Self {
        FifoScheduler {
            lists: Lists::new(1),
            nr: 0,
        }
    }
}

impl Scheduler for FifoScheduler {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn add_to_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge(ctx.costs, CostKind::ListOp);
        self.lists.insert_back(ctx.tasks, 0, tid);
        self.nr += 1;
    }

    fn del_from_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge(ctx.costs, CostKind::ListOp);
        self.lists.remove(ctx.tasks, tid);
        self.nr -= 1;
    }

    fn move_first_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge_n(ctx.costs, CostKind::ListOp, 2);
        self.lists.remove(ctx.tasks, tid);
        self.lists.insert_front(ctx.tasks, 0, tid);
    }

    fn move_last_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge_n(ctx.costs, CostKind::ListOp, 2);
        self.lists.remove(ctx.tasks, tid);
        self.lists.insert_back(ctx.tasks, 0, tid);
    }

    fn schedule(&mut self, ctx: &mut SchedCtx<'_>, cpu: CpuId, prev: Tid, idle: Tid) -> Tid {
        // Entry charge, a blocked prev leaving the queue, the RR refresh
        // and the yield bit: the frame's.
        let entered = frame::enter(self, ctx, cpu, prev, idle);
        // The design's one rule: a still-runnable prev rejoins the back
        // of the line.
        if ctx.tasks.task(prev).on_runqueue() {
            self.move_last_runqueue(ctx, prev);
        }
        let lists = &self.lists;
        let next = frame::select(ctx, cpu, prev, idle, entered, self.nr, |ctx, _| {
            // The scan: the first task no CPU is running, charged like
            // one goodness evaluation. `i32::MAX` beats whatever `prev`
            // scored; a lone `prev` keeps the CPU.
            match frame::schedulable(lists, 0, ctx.tasks, ctx.cfg.smp, prev).next() {
                Some(t) => {
                    ctx.meter.charge(ctx.costs, CostKind::GoodnessEval);
                    ctx.stats.cpu_mut(cpu).tasks_examined += 1;
                    (i32::MAX, Some(t.tid))
                }
                None => (IDLE_GOODNESS, None),
            }
        });
        // idle accounting and the has_cpu hand-over: the frame's.
        frame::commit(ctx, cpu, prev, next, idle)
    }

    fn nr_running(&self) -> usize {
        self.nr
    }

    /// The locking regime this design wants. One shared FIFO list means
    /// one lock domain — the trait default is already `Global`, so this
    /// override is purely illustrative. A design with genuinely
    /// independent per-CPU queues (see `MultiQueueScheduler`) declares
    /// `LockPlan::PerCpu` instead, and calls
    /// `ctx.lock_queue_domain(victim)` before touching another CPU's
    /// queue so the machine can charge the cross-domain lock traffic.
    fn lock_plan(&self, _nr_cpus: usize) -> LockPlan {
        LockPlan::Global
    }
}

fn main() {
    let cfg = StressConfig {
        tasks: 300,
        burst: 50_000,
        rounds: 40,
        shared_mm: true,
    };
    println!(
        "stress: {} spinners x {} rounds under four schedulers\n",
        cfg.tasks, cfg.rounds
    );
    let fifo = stress::run(
        MachineConfig::up().with_max_secs(600.0),
        Box::new(FifoScheduler::new()),
        &cfg,
    );
    // The policy route: the same kind of simple design, but written as
    // an interpreted program. `policies/rr.pol` is ~15 lines of text;
    // the loader verifies it (types, bounded loops, a guaranteed pick on
    // every path) before a single cycle runs. Try editing it — no
    // recompile needed when run via `elsc-sim --sched policy:FILE`.
    let rr_src = include_str!("../policies/rr.pol");
    let rr = stress::run(
        MachineConfig::up().with_max_secs(600.0),
        Box::new(PolicyScheduler::load_str(rr_src, 1).expect("bundled program verifies")),
        &cfg,
    );
    let elsc = stress::run(
        MachineConfig::up().with_max_secs(600.0),
        Box::new(ElscScheduler::new()),
        &cfg,
    );
    let reg = stress::run(
        MachineConfig::up().with_max_secs(600.0),
        Box::new(elsc_sched_linux::LinuxScheduler::new()),
        &cfg,
    );
    for r in [&fifo, &rr, &elsc, &reg] {
        let t = r.stats.total();
        println!(
            "{:>9}: {:7.3}s | cyc/sched {:7.0} | examined/sched {:6.2}",
            r.scheduler,
            r.elapsed_secs(),
            t.cycles_per_schedule(),
            t.tasks_examined_per_schedule(),
        );
    }
    if let Some(p) = &rr.policy {
        println!(
            "\npolicy:rr interpreted {} policy insns ({} static), budget {}/decision{}",
            p.insns_executed,
            p.static_insns,
            p.budget,
            if p.ejected { " — EJECTED" } else { "" }
        );
    }
    println!("\nfifo's O(1) pop is fast but starves interactive tasks; ELSC keeps");
    println!("the goodness policy AND the bounded search. The interpreted rr pays");
    println!("PolicyInsn cycles per decision — the price of hot-swappable text.");
}
