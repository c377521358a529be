//! `aheap` as it was before it moved onto `SortedQueue`: one `BTreeMap`
//! per (CPU, mm) plus a `BTreeMap` reverse index. Kept verbatim (the
//! module path of `static_key` aside) as the reference the shared queue
//! record is held to.

use std::collections::BTreeMap;

use elsc_ktask::{CpuId, MmId, TaskState, TaskTable, Tid};
use elsc_sched_api::{frame, topo_affinity_bonus, SchedCtx, Scheduler, MM_BONUS};
use elsc_simcore::CostKind;

use super::heap::static_key;

/// Heap key: `(static key, tie sequence)`; highest key wins, lowest
/// sequence is front-most among ties.
type Key = (i32, u64);

/// Which heap a task belongs to.
type HeapId = (CpuId, MmId);

/// Per-(processor, address-space) heap scheduler.
#[derive(Debug, Default)]
pub struct AffinityHeapScheduler {
    // Ordered maps keep iteration deterministic (selection ties and
    // recalculation rebuilds must not depend on hash order).
    heaps: BTreeMap<HeapId, BTreeMap<Key, Tid>>,
    /// Reverse index: each queued task's heap and key.
    index: BTreeMap<Tid, (HeapId, Key)>,
    /// Tasks marked on-queue while running.
    running: usize,
    front: u64,
    back: u64,
}

impl AffinityHeapScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        AffinityHeapScheduler {
            heaps: BTreeMap::new(),
            index: BTreeMap::new(),
            running: 0,
            front: u64::MAX / 2,
            back: u64::MAX / 2 + 1,
        }
    }

    fn insert(&mut self, tasks: &TaskTable, tid: Tid, at_front: bool) {
        let task = tasks.task(tid);
        let heap_id = (task.processor, task.mm);
        let seq = if at_front {
            self.front -= 1;
            self.front
        } else {
            self.back += 1;
            self.back
        };
        let key = (static_key(task), seq);
        let old = self.heaps.entry(heap_id).or_default().insert(key, tid);
        debug_assert!(old.is_none(), "key collision");
        self.index.insert(tid, (heap_id, key));
    }

    fn remove(&mut self, tid: Tid) -> bool {
        if let Some((heap_id, key)) = self.index.remove(&tid) {
            let heap = self.heaps.get_mut(&heap_id).expect("indexed heap exists");
            let removed = heap.remove(&key);
            debug_assert_eq!(removed, Some(tid));
            if heap.is_empty() {
                self.heaps.remove(&heap_id);
            }
            true
        } else {
            false
        }
    }

    /// The shared recalculation walk, then a re-key of everything queued.
    fn recalculate(&mut self, ctx: &mut SchedCtx<'_>, cpu: CpuId) {
        frame::recalculate(ctx, cpu, self.nr_running(), false);
        let tids: Vec<Tid> = self.index.keys().copied().collect();
        for tid in &tids {
            self.remove(*tid);
        }
        for tid in tids {
            self.insert(ctx.tasks, tid, false);
        }
    }
}

impl Scheduler for AffinityHeapScheduler {
    fn name(&self) -> &'static str {
        "aheap"
    }

    fn add_to_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge(ctx.costs, CostKind::TableIndex);
        ctx.meter.charge(ctx.costs, CostKind::ListOp);
        debug_assert!(!self.index.contains_key(&tid), "double add");
        self.insert(ctx.tasks, tid, false);
    }

    fn del_from_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge(ctx.costs, CostKind::ListOp);
        if !self.remove(tid) {
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

        let prev_mm = ctx.tasks.task(prev).mm;
        let next = loop {
            // Examine the top of every heap: one candidate each, with the
            // heap-wide bonuses applied — exact by construction.
            let mut best: Option<(Tid, i32)> = None;
            let mut yielded_fallback: Option<Tid> = None;
            let mut exhausted = false;
            for (&(heap_cpu, heap_mm), heap) in &self.heaps {
                // Skip tops running on other CPUs by walking down the few
                // affected entries (only running-marked tasks are absent
                // from heaps, so in practice the top is eligible).
                let Some((&(top_key, _), &tid)) = heap.iter().next_back() else {
                    continue;
                };
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
                    top_key
                } else {
                    // Per-processor heaps make the affinity term a
                    // per-heap constant; distance-graded on declared
                    // topologies, the classic `{+15, 0}` on flat trees.
                    let mut w = top_key + topo_affinity_bonus(&ctx.cfg.topology, cpu, heap_cpu);
                    if heap_mm == prev_mm {
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
                self.recalculate(ctx, cpu);
                continue;
            }
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
        self.index.len() + self.running
    }

    fn debug_check(&self, tasks: &TaskTable) {
        let total: usize = self.heaps.values().map(|h| h.len()).sum();
        assert_eq!(total, self.index.len(), "index out of sync");
        for (&heap_id, heap) in &self.heaps {
            assert!(!heap.is_empty(), "empty heap retained for {heap_id:?}");
            for (&key, &tid) in heap {
                let t = tasks.task(tid);
                assert_eq!(
                    (t.processor, t.mm),
                    heap_id,
                    "{} in the wrong heap",
                    tasks.name(tid)
                );
                assert_eq!(key.0, static_key(t), "stale key for {tid:?}");
                assert_eq!(self.index.get(&tid), Some(&(heap_id, key)));
            }
        }
    }
}
