//! The `schedule()` frame: everything in `schedule()` that is *not*
//! selection, written once.
//!
//! The paper replaced only the selection inside `schedule()` (§5.1): the
//! bottom-half charge, "a blocked `prev` leaves the queue", the
//! round-robin quantum refresh, `SCHED_YIELD` handling, the
//! `for_each_task` recalculation loop (§3.3.2) and the `has_cpu`
//! hand-over are the same code in the stock scheduler and in ELSC. A
//! design in this workspace therefore writes its queue structure and its
//! scan; the free functions here do the rest. They are generic and
//! `#[inline]`, so each design still compiles to one monolithic
//! `schedule()`, and none of them knows which design called it.
//!
//! Two disciplines for the previous task exist, and they do not share a
//! composite:
//!
//! * **Requeue in place (§3.3).** A running task stays linked in its run
//!   list. [`enter`] performs the whole prologue and [`select`] the
//!   prev-first `repeat_schedule:` loop around the design's scan —
//!   `reg`, `mq`, `bubble`, `learned:*` (through `reg`) and `policy:*`
//!   (which swaps [`select`] for its `pick_next` hook).
//! * **Reinsert (§5.2).** A running task is unlinked and keeps only an
//!   on-queue marker, so `schedule()` re-indexes `prev` before searching
//!   — `elsc`, `heap`, `aheap`. These take the pieces only:
//!   [`charge_entry`], [`refresh_rr_quantum`], [`recalculate`],
//!   [`commit`].
//!
//! # Writing a scheduler
//!
//! A complete round-robin FIFO design: four queue manipulators, and a
//! `schedule()` that is [`enter`] → [`select`] around a one-line scan →
//! [`commit`].
//!
//! ```
//! use elsc_ktask::{CpuId, Lists, TaskSpec, TaskTable, Tid};
//! use elsc_sched_api::{frame, SchedConfig, SchedCtx, Scheduler, IDLE_GOODNESS};
//! use elsc_simcore::{CostKind, CostModel, CycleMeter};
//! use elsc_stats::SchedStats;
//!
//! /// The longest-waiting task always beats `prev`.
//! struct Fifo {
//!     lists: Lists,
//!     nr: usize,
//! }
//!
//! impl Scheduler for Fifo {
//!     fn name(&self) -> &'static str {
//!         "fifo"
//!     }
//!     fn add_to_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
//!         ctx.meter.charge(ctx.costs, CostKind::ListOp);
//!         self.lists.insert_back(ctx.tasks, 0, tid);
//!         self.nr += 1;
//!     }
//!     fn del_from_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
//!         ctx.meter.charge(ctx.costs, CostKind::ListOp);
//!         self.lists.remove(ctx.tasks, tid);
//!         self.nr -= 1;
//!     }
//!     fn move_first_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
//!         ctx.meter.charge_n(ctx.costs, CostKind::ListOp, 2);
//!         self.lists.remove(ctx.tasks, tid);
//!         self.lists.insert_front(ctx.tasks, 0, tid);
//!     }
//!     fn move_last_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
//!         ctx.meter.charge_n(ctx.costs, CostKind::ListOp, 2);
//!         self.lists.remove(ctx.tasks, tid);
//!         self.lists.insert_back(ctx.tasks, 0, tid);
//!     }
//!     fn schedule(&mut self, ctx: &mut SchedCtx<'_>, cpu: CpuId, prev: Tid, idle: Tid) -> Tid {
//!         let entered = frame::enter(self, ctx, cpu, prev, idle);
//!         // The design's one rule: a still-runnable prev rejoins the
//!         // back of the line.
//!         if ctx.tasks.task(prev).on_runqueue() {
//!             self.move_last_runqueue(ctx, prev);
//!         }
//!         let lists = &self.lists;
//!         let next = frame::select(ctx, cpu, prev, idle, entered, self.nr, |ctx, _| {
//!             // The scan: the first task no CPU is running.
//!             match frame::schedulable(lists, 0, ctx.tasks, ctx.cfg.smp, prev).next() {
//!                 Some(t) => (i32::MAX, Some(t.tid)),
//!                 None => (IDLE_GOODNESS, None),
//!             }
//!         });
//!         frame::commit(ctx, cpu, prev, next, idle)
//!     }
//!     fn nr_running(&self) -> usize {
//!         self.nr
//!     }
//! }
//!
//! let mut tasks = TaskTable::new();
//! let idle = tasks.spawn(&TaskSpec::named("idle"));
//! let (a, b) = (tasks.spawn(&TaskSpec::named("a")), tasks.spawn(&TaskSpec::named("b")));
//! let (mut stats, mut meter) = (SchedStats::new(1), CycleMeter::new());
//! let (costs, cfg) = (CostModel::default(), SchedConfig::up());
//! let mut ctx = SchedCtx {
//!     tasks: &mut tasks,
//!     stats: &mut stats,
//!     meter: &mut meter,
//!     costs: &costs,
//!     cfg: &cfg,
//!     probe: None,
//!     locks: None,
//! };
//! let mut fifo = Fifo { lists: Lists::new(1), nr: 0 };
//! fifo.add_to_runqueue(&mut ctx, a);
//! fifo.add_to_runqueue(&mut ctx, b);
//! assert_eq!(fifo.schedule(&mut ctx, 0, idle, idle), a);
//! assert_eq!(fifo.schedule(&mut ctx, 0, a, idle), b, "a went to the back");
//! assert_eq!(fifo.schedule(&mut ctx, 0, b, idle), a);
//! assert_eq!(ctx.stats.cpu(0).sched_calls, 3, "charged by the frame");
//! ```

use elsc_ktask::{CpuId, Link, Lists, MmId, SchedClass, Task, TaskTable, Tid};
use elsc_obs::ObsEvent;
use elsc_simcore::CostKind;

use crate::goodness::{goodness_ignoring_yield_on, IDLE_GOODNESS};
use crate::scheduler::{SchedCtx, Scheduler};

/// Charges the fixed cost of entering `schedule()` — bottom halves and
/// administrative work (§3.3.2) — and counts the call.
#[inline]
pub fn charge_entry(ctx: &mut SchedCtx<'_>, cpu: CpuId) {
    ctx.meter.charge(ctx.costs, CostKind::SchedBase);
    ctx.stats.cpu_mut(cpu).sched_calls += 1;
}

/// Gives an exhausted `SCHED_RR` task a fresh quantum
/// (`counter = priority`). Returns whether it did, so the caller can
/// move the task to the back of its list — after re-indexing it, for a
/// design that sorts by counter.
#[inline]
pub fn refresh_rr_quantum(ctx: &mut SchedCtx<'_>, prev: Tid) -> bool {
    let t = ctx.tasks.task(prev);
    let exhausted = t.policy.class == SchedClass::Rr && t.counter == 0;
    if exhausted {
        let quantum = t.priority;
        ctx.tasks.task_mut(prev).counter = quantum;
    }
    exhausted
}

/// The recalculation step (§3.3.2): `p->counter = (p->counter >> 1) +
/// p->priority` for every live task in the system, runnable or not.
///
/// Counts the entry and the tasks touched, charges one `RecalcPerTask`
/// each, and brackets the walk with `RecalcStart`/`RecalcEnd` on the
/// probe — Figure 2's storm, visible from every design. `nr_running` is
/// reported in the start event; `clear_rq_zero` also resets ELSC's
/// zero-section annotation in the same pass. A design that indexes by
/// counter re-sorts its structure after this returns.
#[inline]
pub fn recalculate(ctx: &mut SchedCtx<'_>, cpu: CpuId, nr_running: usize, clear_rq_zero: bool) {
    ctx.stats.cpu_mut(cpu).recalc_entries += 1;
    ctx.emit(ObsEvent::RecalcStart {
        cpu,
        nr_running: nr_running as u64,
    });
    let n = ctx.tasks.recalc_counters(clear_rq_zero) as u64;
    ctx.stats.cpu_mut(cpu).recalc_tasks += n;
    ctx.meter.charge_n(ctx.costs, CostKind::RecalcPerTask, n);
    ctx.emit(ObsEvent::RecalcEnd { cpu, updated: n });
}

/// Commits the decision: counts an idle pick and hands the `has_cpu`
/// flag from `prev` to `next`. Returns `next`, so `schedule()` can end
/// with this call. (`processor` is set by the machine afterwards, so it
/// can observe migrations.)
#[inline]
pub fn commit(ctx: &mut SchedCtx<'_>, cpu: CpuId, prev: Tid, next: Tid, idle: Tid) -> Tid {
    if next == idle {
        ctx.stats.cpu_mut(cpu).idle_scheduled += 1;
    }
    if next != prev {
        ctx.tasks.task_mut(prev).has_cpu = false;
    }
    ctx.tasks.task_mut(next).has_cpu = true;
    next
}

/// What [`enter`] learned about the task leaving the CPU.
#[derive(Clone, Copy, Debug)]
pub struct Entered {
    /// `prev`'s address space: the `+1` goodness bonus goes to tasks
    /// sharing it.
    pub prev_mm: MmId,
    /// Whether `prev` entered with `SCHED_YIELD` set. The bit itself is
    /// already cleared; [`select`] evaluates the yielder at goodness 0
    /// exactly once.
    pub prev_yielded: bool,
}

/// The requeue-in-place prologue: everything the stock `schedule()` does
/// before `repeat_schedule:`.
///
/// Charges the entry ([`charge_entry`]); a blocked or exiting `prev`
/// leaves the run queue through `sched.del_from_runqueue`; an exhausted
/// round-robin `prev` gets a fresh quantum ([`refresh_rr_quantum`]) and,
/// if still queued, goes to the back through
/// `sched.move_last_runqueue`; the `SCHED_YIELD` bit is consumed.
#[inline]
pub fn enter<S: Scheduler>(
    sched: &mut S,
    ctx: &mut SchedCtx<'_>,
    cpu: CpuId,
    prev: Tid,
    idle: Tid,
) -> Entered {
    charge_entry(ctx, cpu);
    let p = ctx.tasks.task(prev);
    if prev != idle && !p.state.is_runnable() && p.on_runqueue() {
        sched.del_from_runqueue(ctx, prev);
    }
    if refresh_rr_quantum(ctx, prev) && ctx.tasks.task(prev).on_runqueue() {
        sched.move_last_runqueue(ctx, prev);
    }
    let p = ctx.tasks.task(prev);
    let entered = Entered {
        prev_mm: p.mm,
        prev_yielded: p.policy.yielded,
    };
    if entered.prev_yielded {
        ctx.tasks.task_mut(prev).policy.yielded = false;
    }
    entered
}

/// The requeue-in-place selection loop (`repeat_schedule:`).
///
/// A still-runnable `prev` is evaluated first, so it wins every tie
/// regardless of queue position; then `scan(ctx, c)` — the design's
/// part, told the goodness `c` it has to beat — returns its best
/// candidate and that candidate's goodness (`(IDLE_GOODNESS, None)` when
/// it has none). While the best goodness is exactly 0 (every candidate
/// out of quantum, or a lone yielder), [`recalculate`] runs and the pass
/// repeats. An empty queue stays at [`IDLE_GOODNESS`] and schedules
/// `idle` without recalculating (§3.3.2, footnote 1).
#[inline]
pub fn select<F>(
    ctx: &mut SchedCtx<'_>,
    cpu: CpuId,
    prev: Tid,
    idle: Tid,
    entered: Entered,
    nr_running: usize,
    mut scan: F,
) -> Tid
where
    F: FnMut(&mut SchedCtx<'_>, i32) -> (i32, Option<Tid>),
{
    let mut prev_yielded = entered.prev_yielded;
    loop {
        let mut c = IDLE_GOODNESS;
        let mut next = idle;
        let p = ctx.tasks.task(prev);
        if prev != idle && p.state.is_runnable() {
            ctx.meter.charge(ctx.costs, CostKind::GoodnessEval);
            ctx.stats.cpu_mut(cpu).tasks_examined += 1;
            c = if prev_yielded {
                // The yield counts once: a repeat pass (after the
                // recalculation) sees normal goodness, otherwise a lone
                // yielder would loop forever.
                prev_yielded = false;
                0
            } else {
                goodness_ignoring_yield_on(&ctx.cfg.topology, p, cpu, entered.prev_mm)
            };
            next = prev;
        }
        let (w, cand) = scan(ctx, c);
        if w > c {
            c = w;
            next = cand.expect("goodness above idle implies a task");
        }
        if c != 0 {
            return next;
        }
        recalculate(ctx, cpu, nr_running, false);
    }
}

/// The tasks of run list `q` that `can_schedule()` admits, front to
/// back: on SMP everything not executing on a CPU (which also excludes
/// `prev`, whose `has_cpu` is still set), on UP everything but `prev`.
/// One slab lookup per candidate: the link to the next task and the
/// filter's fields are read from the `&Task` already in hand.
#[inline]
pub fn schedulable<'a>(
    lists: &'a Lists,
    q: usize,
    tasks: &'a TaskTable,
    smp: bool,
    prev: Tid,
) -> impl Iterator<Item = &'a Task> + 'a {
    let first = lists.first(q).map(|i| tasks.by_index(i as usize));
    std::iter::successors(first, move |t| match t.run_list.next {
        Link::Task(i) => Some(tasks.by_index(i as usize)),
        Link::Head(_) => None,
        Link::Nil => panic!("walking from a detached node"),
    })
    .filter(move |t| if smp { !t.has_cpu } else { t.tid != prev })
}

/// The O(n) goodness scan of run list `q`: one `GoodnessEval` charge and
/// one `tasks_examined` per [`schedulable`] task; returns the best
/// goodness and its owner — the front-most on ties — or
/// `(IDLE_GOODNESS, None)`.
#[inline]
pub fn scan_list(
    lists: &Lists,
    q: usize,
    ctx: &mut SchedCtx<'_>,
    cpu: CpuId,
    prev: Tid,
    prev_mm: MmId,
) -> (i32, Option<Tid>) {
    let mut best = (IDLE_GOODNESS, None);
    for t in schedulable(lists, q, ctx.tasks, ctx.cfg.smp, prev) {
        ctx.meter.charge(ctx.costs, CostKind::GoodnessEval);
        ctx.stats.cpu_mut(cpu).tasks_examined += 1;
        let w = goodness_ignoring_yield_on(&ctx.cfg.topology, t, cpu, prev_mm);
        if w > best.0 {
            best = (w, Some(t.tid));
        }
    }
    best
}
