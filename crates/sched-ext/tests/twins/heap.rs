//! `heap` as it was before it moved onto `SortedQueue`: one `BTreeMap`
//! keyed by (static key, tie sequence) plus a `HashMap` reverse index.
//! Kept verbatim (the module path of `static_key` aside) as the reference
//! the shared queue record is held to.

use std::collections::{BTreeMap, HashMap};

use elsc_ktask::{CpuId, TaskState, TaskTable, Tid};
use elsc_sched_api::{frame, topo_affinity_bonus, SchedCtx, Scheduler, MM_BONUS, RT_GOODNESS_BASE};
use elsc_simcore::CostKind;

/// Key of a queued task: `(static key, tie sequence)`. Higher key wins;
/// among ties, the *lowest* sequence is front-most.
type Key = (i32, u64);

/// Ordered-structure scheduler ("heap" in the paper's sketch).
#[derive(Debug, Default)]
pub struct HeapScheduler {
    /// Queued, not-running tasks ordered by key.
    queue: BTreeMap<Key, Tid>,
    /// Reverse index: each queued task's current key.
    keys: HashMap<Tid, Key>,
    /// Tasks marked on-queue while running (ELSC-style).
    running: usize,
    /// Tie counters: move_first assigns from `front`, normal adds and
    /// move_last from `back`.
    front: u64,
    back: u64,
}

/// Static key of a task: real-time tasks above everything.
pub fn static_key(t: &elsc_ktask::Task) -> i32 {
    if t.policy.class.is_realtime() {
        RT_GOODNESS_BASE + t.rt_priority
    } else {
        t.static_goodness()
    }
}

impl HeapScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        HeapScheduler {
            queue: BTreeMap::new(),
            keys: HashMap::new(),
            running: 0,
            front: u64::MAX / 2,
            back: u64::MAX / 2 + 1,
        }
    }

    fn insert(&mut self, tasks: &TaskTable, tid: Tid, at_front: bool) {
        let seq = if at_front {
            self.front -= 1;
            self.front
        } else {
            self.back += 1;
            self.back
        };
        let key = (static_key(tasks.task(tid)), seq);
        let old = self.queue.insert(key, tid);
        debug_assert!(old.is_none(), "key collision in heap scheduler");
        self.keys.insert(tid, key);
    }

    fn remove(&mut self, tid: Tid) -> bool {
        if let Some(key) = self.keys.remove(&tid) {
            let removed = self.queue.remove(&key);
            debug_assert_eq!(removed, Some(tid));
            true
        } else {
            false
        }
    }

    /// Rebuilds every key after a counter recalculation.
    fn rebuild(&mut self, tasks: &TaskTable) {
        let tids: Vec<Tid> = self.queue.values().copied().collect();
        self.queue.clear();
        self.keys.clear();
        for tid in tids {
            self.insert(tasks, tid, false);
        }
    }
}

impl Scheduler for HeapScheduler {
    fn name(&self) -> &'static str {
        "heap"
    }

    fn add_to_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        // O(log n) insertion; charged as an index plus a list op.
        ctx.meter.charge(ctx.costs, CostKind::TableIndex);
        ctx.meter.charge(ctx.costs, CostKind::ListOp);
        debug_assert!(!self.keys.contains_key(&tid), "double add");
        self.insert(ctx.tasks, tid, false);
    }

    fn del_from_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge(ctx.costs, CostKind::ListOp);
        if !self.remove(tid) {
            // Marked-running task leaving the queue.
            debug_assert!(self.running > 0, "del of unknown task");
            self.running -= 1;
        }
    }

    fn move_first_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge_n(ctx.costs, CostKind::ListOp, 2);
        if self.remove(tid) {
            self.insert(ctx.tasks, tid, true);
        }
    }

    fn move_last_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge_n(ctx.costs, CostKind::ListOp, 2);
        if self.remove(tid) {
            self.insert(ctx.tasks, tid, false);
        }
    }

    fn schedule(&mut self, ctx: &mut SchedCtx<'_>, cpu: CpuId, prev: Tid, idle: Tid) -> Tid {
        frame::charge_entry(ctx, cpu);

        let prev_yielded = ctx.tasks.task(prev).policy.yielded;
        // Previous-task handling (mirrors ELSC).
        if prev != idle {
            let runnable = ctx.tasks.task(prev).state == TaskState::Running;
            if runnable {
                // Refreshed before insertion, so the key is current.
                frame::refresh_rr_quantum(ctx, prev);
                debug_assert!(self.running > 0);
                self.running -= 1;
                ctx.meter.charge(ctx.costs, CostKind::TableIndex);
                ctx.meter.charge(ctx.costs, CostKind::ListOp);
                self.insert(ctx.tasks, prev, false);
            } else {
                ctx.meter.charge(ctx.costs, CostKind::ListOp);
                if !self.remove(prev) {
                    debug_assert!(self.running > 0);
                    self.running -= 1;
                }
            }
        }

        let limit = ctx.cfg.search_limit();
        let prev_mm = ctx.tasks.task(prev).mm;
        let next = loop {
            // Top of the structure: the maximum static key.
            let Some((&(top_key, _), _)) = self.queue.iter().next_back() else {
                break idle;
            };
            // Examine the tasks tied at the top key (bounded), evaluating
            // dynamic bonuses; remember a yielded fallback.
            let mut best: Option<(Tid, i32)> = None;
            let mut yielded_fallback: Option<Tid> = None;
            let mut exhausted = false;
            for (&(_, _seq), &tid) in self
                .queue
                .range((top_key, 0)..=(top_key, u64::MAX))
                .take(limit)
            {
                let p = ctx.tasks.task(tid);
                if ctx.cfg.smp && p.has_cpu && p.processor != cpu {
                    continue;
                }
                if !p.policy.class.is_realtime() && p.counter == 0 {
                    exhausted = true;
                    continue;
                }
                ctx.meter.charge(ctx.costs, CostKind::GoodnessEval);
                ctx.stats.cpu_mut(cpu).tasks_examined += 1;
                if p.policy.yielded {
                    if yielded_fallback.is_none() {
                        yielded_fallback = Some(tid);
                    }
                    continue;
                }
                let w = if p.policy.class.is_realtime() {
                    RT_GOODNESS_BASE + p.rt_priority
                } else {
                    // Distance-graded on declared topologies; the classic
                    // `{+15 same CPU, else 0}` on flat trees.
                    let mut w = p.static_goodness()
                        + topo_affinity_bonus(&ctx.cfg.topology, cpu, p.processor);
                    if p.mm == prev_mm {
                        w += MM_BONUS;
                    }
                    w
                };
                if best.is_none_or(|(_, b)| w > b) {
                    best = Some((tid, w));
                }
            }
            if let Some((tid, _)) = best {
                break tid;
            }
            if let Some(tid) = yielded_fallback {
                ctx.stats.cpu_mut(cpu).yield_reruns += 1;
                break tid;
            }
            if exhausted {
                // Top of the structure is out of quantum: recalculate,
                // then re-key everything queued.
                frame::recalculate(ctx, cpu, self.nr_running(), false);
                self.rebuild(ctx.tasks);
                continue;
            }
            // Everything at the top is running elsewhere; with equal keys
            // deeper entries are also at top_key... they were covered by
            // the range. Nothing runnable here.
            break idle;
        };

        if next != idle {
            ctx.meter.charge(ctx.costs, CostKind::ListOp);
            let was_queued = self.remove(next);
            debug_assert!(was_queued);
            self.running += 1;
        }
        if prev_yielded {
            ctx.tasks.task_mut(prev).policy.yielded = false;
        }
        frame::commit(ctx, cpu, prev, next, idle)
    }

    fn nr_running(&self) -> usize {
        self.queue.len() + self.running
    }

    fn debug_check(&self, tasks: &TaskTable) {
        assert_eq!(self.queue.len(), self.keys.len(), "index out of sync");
        for (&key, &tid) in &self.queue {
            assert_eq!(self.keys.get(&tid), Some(&key));
            assert_eq!(key.0, static_key(tasks.task(tid)), "stale key for {tid:?}");
        }
    }
}
