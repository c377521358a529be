//! The §8 "heaps for each processor and address space" design.
//!
//! "...many other possibilities exist, such as sorting tasks by static
//! goodness within heaps for each processor and address space. One could
//! choose the absolute best task available simply by examining the top of
//! each heap."
//!
//! Every queued task lives in exactly one heap, keyed by its
//! `(last processor, mm)` pair. All tasks in one heap therefore share the
//! same dynamic bonuses from any given caller's perspective, so the
//! heap's *top* (maximum static goodness) dominates the rest of the heap
//! — and the true global best is the maximum over heap tops plus
//! per-heap bonuses. Unlike ELSC's bounded search this selection is
//! *exact*: no task with a higher full goodness is ever passed over.
//!
//! The price is that selection examines one candidate per non-empty heap:
//! O(#processors × #address-spaces) instead of ELSC's O(1) — fine for a
//! chat server with two JVMs, unbounded for a fork-heavy compile. The
//! ablation benches quantify exactly that trade.

use std::collections::BTreeMap;

use elsc_ktask::{CpuId, MmId, TaskState, TaskTable, Tid};
use elsc_sched_api::{frame, topo_affinity_bonus, SchedCtx, Scheduler, MM_BONUS};
use elsc_simcore::CostKind;

use crate::heap::static_key;

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
                assert_eq!((t.processor, t.mm), heap_id, "{} in the wrong heap", t.name);
                assert_eq!(key.0, static_key(t), "stale key for {tid:?}");
                assert_eq!(self.index.get(&tid), Some(&(heap_id, key)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::Rig;
    use elsc_ktask::{SchedClass, TaskSpec};
    use elsc_sched_api::SchedConfig;

    fn rig(cfg: SchedConfig) -> Rig<AffinityHeapScheduler> {
        Rig::new(cfg, AffinityHeapScheduler::new())
    }

    impl Rig<AffinityHeapScheduler> {
        fn spawn_with(&mut self, counter: i32, cpu: CpuId, mm: MmId) -> Tid {
            let tid = self.tasks.spawn(&TaskSpec::named("t").mm(mm));
            let t = self.tasks.task_mut(tid);
            t.counter = counter;
            t.processor = cpu;
            self.add(tid);
            tid
        }
    }

    #[test]
    fn empty_schedules_idle() {
        let mut rig = rig(SchedConfig::smp(2));
        assert_eq!(rig.schedule(0, rig.idle), rig.idle);
    }

    #[test]
    fn selection_is_exact_across_heaps() {
        // ELSC can pass over a task whose bonuses would win; this design
        // must not. Task a: static 39, wrong CPU, wrong mm -> 39.
        // Task b: static 30, this CPU, matching mm -> 46. Exact pick: b.
        let mut rig = rig(SchedConfig::smp(2));
        rig.tasks.task_mut(rig.idle).mm = MmId(7);
        let _a = rig.spawn_with(19, 1, MmId(3)); // 39
        let b = rig.spawn_with(10, 0, MmId(7)); // 30 + 15 + 1
        let next = rig.schedule(0, rig.idle);
        assert_eq!(next, b, "bonuses must be weighed exactly");
    }

    #[test]
    fn examines_one_candidate_per_heap() {
        let mut rig = rig(SchedConfig::up());
        // 12 tasks, but only 2 distinct (cpu, mm) heaps.
        for i in 0..12 {
            rig.spawn_with(20, 0, MmId(1 + (i % 2) as u32));
        }
        rig.schedule(0, rig.idle);
        assert_eq!(rig.stats.cpu(0).tasks_examined, 2);
    }

    #[test]
    fn exhausted_tops_trigger_recalc() {
        let mut rig = rig(SchedConfig::up());
        let a = rig.spawn_with(0, 0, MmId(1));
        let next = rig.schedule(0, rig.idle);
        assert_eq!(next, a);
        assert_eq!(rig.stats.cpu(0).recalc_entries, 1);
    }

    #[test]
    fn lone_yielder_reruns_without_recalc() {
        let mut rig = rig(SchedConfig::up());
        let y = rig.spawn_with(20, 0, MmId(1));
        assert_eq!(rig.schedule(0, rig.idle), y);
        rig.tasks.task_mut(y).policy.yielded = true;
        assert_eq!(rig.schedule(0, y), y);
        assert_eq!(rig.stats.cpu(0).recalc_entries, 0);
        assert_eq!(rig.stats.cpu(0).yield_reruns, 1);
    }

    #[test]
    fn empty_heaps_are_garbage_collected() {
        let mut rig = rig(SchedConfig::up());
        let a = rig.spawn_with(20, 0, MmId(1));
        assert_eq!(rig.sched.heaps.len(), 1);
        rig.del(a);
        assert!(rig.sched.heaps.is_empty());
        assert_eq!(rig.sched.nr_running(), 0);
    }

    #[test]
    fn realtime_tops_every_heap() {
        let mut rig = rig(SchedConfig::up());
        let _other = rig.spawn_with(40, 0, MmId(1));
        let rt = {
            let tid = rig
                .tasks
                .spawn(&TaskSpec::named("rt").realtime(SchedClass::Fifo, 5));
            rig.add(tid);
            tid
        };
        assert_eq!(rig.schedule(0, rig.idle), rt);
    }
}
