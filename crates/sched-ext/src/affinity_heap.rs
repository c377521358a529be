//! The §8 "heaps for each processor and address space" design.
//!
//! "...many other possibilities exist, such as sorting tasks by static
//! goodness within heaps for each processor and address space. One could
//! choose the absolute best task available simply by examining the top of
//! each heap."
//!
//! Every queued task lives in exactly one heap, a sorted set keyed by its
//! `(last processor, mm)` home. All tasks in one heap share the same
//! dynamic bonuses from any caller's perspective, so the heap's top
//! dominates the rest of it, and the true global best is the maximum over
//! heap tops plus per-heap bonuses: unlike ELSC's bounded search this
//! selection is *exact*. Ties within a heap are LIFO (tail inserts stamp
//! down from -1, front inserts up from 0), unlike `heap`'s FIFO; heaps are
//! visited in ascending home order, and the first of equals wins.
//!
//! The price is one candidate per non-empty heap: O(#processors ×
//! #address-spaces) instead of ELSC's O(1) — fine for a chat server with
//! two JVMs, unbounded for a fork-heavy compile.

use std::collections::BTreeMap;

use elsc_ktask::{Task, TaskTable};
use elsc_sched_api::order::Members;
use elsc_sched_api::SchedConfig;

use crate::sorted::{Design, Home, SortedQueue};

/// Per-(processor, address-space) heap scheduler.
pub type AffinityHeapScheduler = SortedQueue<AffinityHeap>;

/// `aheap`'s partition: one heap per (`processor`, `mm`) with queued
/// tasks, in an ordered map so that selection ties do not depend on hash
/// order.
#[derive(Debug, Default)]
pub struct AffinityHeap(BTreeMap<Home, Members>);

impl Design for AffinityHeap {
    const NAME: &'static str = "aheap";
    const LIFO: bool = true;
    const RESTAMP_BY_KEY: bool = false;
    fn set_mut(&mut self, home: Home) -> &mut Members {
        self.0.entry(home).or_default()
    }

    fn emptied(&mut self, home: Home) {
        self.0.remove(&home);
    }

    fn candidates<'a>(
        &'a self,
        tasks: &'a TaskTable,
        _: &SchedConfig,
    ) -> impl Iterator<Item = (&'a Task, i32, Home)> {
        // The top of every heap: one candidate each, weighed with the
        // heap-wide bonuses (a per-heap constant) — exact by construction.
        // A top running on another CPU is passed over with its heap.
        self.0.iter().filter_map(|(&home, heap)| {
            let top = heap.best_first(u32::MAX).next()?;
            Some((tasks.by_index(top.slot as usize), top.goodness(), home))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsc_ktask::{CpuId, MmId, SchedClass, TaskSpec, Tid};
    use elsc_sched_api::{Rig, SchedConfig, Scheduler};

    fn rig(cfg: SchedConfig) -> Rig<AffinityHeapScheduler> {
        Rig::new(cfg, AffinityHeapScheduler::new())
    }

    fn spawn_with(rig: &mut Rig<AffinityHeapScheduler>, counter: i32, cpu: CpuId, mm: MmId) -> Tid {
        let tid = rig.tasks.spawn(&TaskSpec::named("t").mm(mm));
        let t = rig.tasks.task_mut(tid);
        t.counter = counter;
        t.processor = cpu;
        rig.add(tid);
        tid
    }

    #[test]
    fn empty_schedules_idle() {
        let mut rig = rig(SchedConfig::smp(2));
        assert_eq!(rig.schedule(0, rig.idle(0)), rig.idle(0));
    }

    #[test]
    fn selection_is_exact_across_heaps() {
        // ELSC can pass over a task whose bonuses would win; this design
        // must not. Task a: static 39, wrong CPU, wrong mm -> 39.
        // Task b: static 30, this CPU, matching mm -> 46. Exact pick: b.
        let mut rig = rig(SchedConfig::smp(2));
        rig.tasks.task_mut(rig.idle(0)).mm = MmId(7);
        let _a = spawn_with(&mut rig, 19, 1, MmId(3)); // 39
        let b = spawn_with(&mut rig, 10, 0, MmId(7)); // 30 + 15 + 1
        let next = rig.schedule(0, rig.idle(0));
        assert_eq!(next, b, "bonuses must be weighed exactly");
    }

    #[test]
    fn examines_one_candidate_per_heap() {
        let mut rig = rig(SchedConfig::up());
        // 12 tasks, but only 2 distinct (cpu, mm) heaps.
        for i in 0..12 {
            spawn_with(&mut rig, 20, 0, MmId(1 + (i % 2) as u32));
        }
        rig.schedule(0, rig.idle(0));
        assert_eq!(rig.stats.cpu(0).tasks_examined, 2);
    }

    #[test]
    fn exhausted_tops_trigger_recalc() {
        let mut rig = rig(SchedConfig::up());
        let a = spawn_with(&mut rig, 0, 0, MmId(1));
        let next = rig.schedule(0, rig.idle(0));
        assert_eq!(next, a);
        assert_eq!(rig.stats.cpu(0).recalc_entries, 1);
    }

    #[test]
    fn lone_yielder_reruns_without_recalc() {
        let mut rig = rig(SchedConfig::up());
        let y = spawn_with(&mut rig, 20, 0, MmId(1));
        assert_eq!(rig.schedule(0, rig.idle(0)), y);
        rig.tasks.task_mut(y).policy.yielded = true;
        assert_eq!(rig.schedule(0, y), y);
        assert_eq!(rig.stats.cpu(0).recalc_entries, 0);
        assert_eq!(rig.stats.cpu(0).yield_reruns, 1);
    }

    #[test]
    fn empty_heaps_are_garbage_collected() {
        let mut rig = rig(SchedConfig::up());
        let a = spawn_with(&mut rig, 20, 0, MmId(1));
        assert_eq!(rig.sched.design.0.len(), 1);
        rig.del(a);
        assert!(rig.sched.design.0.is_empty());
        assert_eq!(rig.sched.nr_running(), 0);
    }

    #[test]
    fn realtime_tops_every_heap() {
        let mut rig = rig(SchedConfig::up());
        let _other = spawn_with(&mut rig, 40, 0, MmId(1));
        let rt = {
            let tid = rig
                .tasks
                .spawn(&TaskSpec::named("rt").realtime(SchedClass::Fifo, 5));
            rig.add(tid);
            tid
        };
        assert_eq!(rig.schedule(0, rig.idle(0)), rt);
    }
}
