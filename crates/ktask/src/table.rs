//! The task table: every task in the system.
//!
//! The kernel keeps all tasks on a global list that `for_each_task`
//! iterates — notably in the counter-recalculation loop, which touches
//! *every* task in the system, runnable or not (paper §3.3.2). The
//! [`TaskTable`] is that set: a slab with generation-checked handles.
//!
//! # One record per task
//!
//! The [`Task`] in the slab is the only copy of every scheduling field,
//! as the kernel's `task_struct` is (paper Table 1). Mutable lookups hand
//! out a plain `&mut Task`; the run-list scans and the recalculation loop
//! read and write that record directly.

use crate::recalc;
use crate::task::{Task, TaskSpec};
use crate::tid::Tid;

/// One slab slot.
#[derive(Debug)]
struct Slot {
    gen: u32,
    task: Option<Task>,
}

/// The set of all tasks in the system.
#[derive(Debug, Default)]
pub struct TaskTable {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
    spawned: u64,
}

impl TaskTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        TaskTable::default()
    }

    /// Creates a new task from `spec` and returns its handle.
    pub fn spawn(&mut self, spec: &TaskSpec) -> Tid {
        self.spawned += 1;
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            debug_assert!(slot.task.is_none());
            let tid = Tid::from_raw(idx, slot.gen);
            slot.task = Some(Task::new(tid, spec));
            tid
        } else {
            let idx = u32::try_from(self.slots.len()).expect("task table overflow");
            let tid = Tid::from_raw(idx, 0);
            self.slots.push(Slot {
                gen: 0,
                task: Some(Task::new(tid, spec)),
            });
            tid
        }
    }

    /// Frees an exited task's slot; its handle becomes stale.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale or the task is still linked into a
    /// run-queue list (freeing a queued task would leave dangling links).
    pub fn free(&mut self, tid: Tid) {
        let slot = &mut self.slots[tid.index()];
        assert_eq!(slot.gen, tid.generation(), "free of stale {tid:?}");
        let task = slot.task.take().unwrap_or_else(|| {
            panic!("double free of {tid:?}");
        });
        assert!(
            !task.in_list(),
            "freeing {} while still linked into a run queue",
            task
        );
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(tid.index() as u32);
        self.live -= 1;
    }

    /// Looks up a task, returning `None` for stale handles.
    #[inline]
    pub fn get(&self, tid: Tid) -> Option<&Task> {
        let slot = self.slots.get(tid.index())?;
        if slot.gen != tid.generation() {
            return None;
        }
        slot.task.as_ref()
    }

    /// Mutable lookup, returning `None` for stale handles.
    #[inline]
    pub fn get_mut(&mut self, tid: Tid) -> Option<&mut Task> {
        let slot = self.slots.get_mut(tid.index())?;
        if slot.gen != tid.generation() {
            return None;
        }
        slot.task.as_mut()
    }

    /// Panicking lookup, for code paths where a stale handle is a bug.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is stale.
    #[inline]
    #[track_caller]
    pub fn task(&self, tid: Tid) -> &Task {
        self.get(tid)
            .unwrap_or_else(|| panic!("stale task handle {tid:?}"))
    }

    /// Panicking mutable lookup.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is stale.
    #[inline]
    #[track_caller]
    pub fn task_mut(&mut self, tid: Tid) -> &mut Task {
        self.get_mut(tid)
            .unwrap_or_else(|| panic!("stale task handle {tid:?}"))
    }

    /// Lookup by raw slab index; used by the intrusive list code, which
    /// stores indices rather than full handles.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    #[inline]
    #[track_caller]
    pub fn by_index(&self, idx: usize) -> &Task {
        self.slots[idx]
            .task
            .as_ref()
            .unwrap_or_else(|| panic!("empty task slot {idx}"))
    }

    /// Mutable lookup by raw slab index.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    #[inline]
    #[track_caller]
    pub fn by_index_mut(&mut self, idx: usize) -> &mut Task {
        self.slots[idx]
            .task
            .as_mut()
            .unwrap_or_else(|| panic!("empty task slot {idx}"))
    }

    /// Number of live tasks.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the table has no live tasks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total tasks ever spawned.
    pub fn total_spawned(&self) -> u64 {
        self.spawned
    }

    /// Iterates over all live tasks (`for_each_task`).
    pub fn iter(&self) -> impl Iterator<Item = &Task> {
        self.slots.iter().filter_map(|s| s.task.as_ref())
    }

    /// Mutably iterates over all live tasks.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Task> {
        self.slots.iter_mut().filter_map(|s| s.task.as_mut())
    }

    /// Collects the handles of all live tasks.
    pub fn tids(&self) -> Vec<Tid> {
        self.iter().map(|t| t.tid).collect()
    }

    /// The counter-recalculation loop (paper §3.3.2): one pass over the
    /// slab, in slot order, setting every task
    /// [in the walk](recalc::in_recalc_walk) to its
    /// [recalculated counter](recalc::recalculated_counter). With
    /// `clear_rq_zero` the ELSC zero-section annotation is reset in the
    /// same pass (the walk ELSC runs just before merging the zero
    /// sections). Returns the number of tasks touched so the caller can
    /// charge `RecalcPerTask` for each.
    pub fn recalc_counters(&mut self, clear_rq_zero: bool) -> usize {
        let mut n = 0;
        for task in self.iter_mut().filter(|t| recalc::in_recalc_walk(t)) {
            task.counter = recalc::recalculated_counter(task);
            if clear_rq_zero {
                task.rq_zero = false;
            }
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskState;

    #[test]
    fn spawn_and_lookup() {
        let mut t = TaskTable::new();
        let a = t.spawn(&TaskSpec::named("a"));
        let b = t.spawn(&TaskSpec::named("b"));
        assert_eq!(t.len(), 2);
        assert_eq!(t.task(a).name, "a");
        assert_eq!(t.task(b).name, "b");
        assert_eq!(t.task(a).tid, a);
    }

    #[test]
    fn free_makes_handle_stale() {
        let mut t = TaskTable::new();
        let a = t.spawn(&TaskSpec::default());
        t.free(a);
        assert!(t.get(a).is_none());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn slot_reuse_bumps_generation() {
        let mut t = TaskTable::new();
        let a = t.spawn(&TaskSpec::default());
        t.free(a);
        let b = t.spawn(&TaskSpec::default());
        assert_eq!(a.index(), b.index(), "slot should be reused");
        assert_ne!(a.generation(), b.generation());
        assert!(t.get(a).is_none());
        assert!(t.get(b).is_some());
    }

    #[test]
    #[should_panic(expected = "stale task handle")]
    fn panicking_lookup_on_stale() {
        let mut t = TaskTable::new();
        let a = t.spawn(&TaskSpec::default());
        t.free(a);
        let _ = t.task(a);
    }

    #[test]
    #[should_panic(expected = "free of stale")]
    fn double_free_panics() {
        let mut t = TaskTable::new();
        let a = t.spawn(&TaskSpec::default());
        t.free(a);
        t.free(a);
    }

    #[test]
    fn iteration_sees_only_live_tasks() {
        let mut t = TaskTable::new();
        let _a = t.spawn(&TaskSpec::named("a"));
        let b = t.spawn(&TaskSpec::named("b"));
        let _c = t.spawn(&TaskSpec::named("c"));
        t.free(b);
        let names: Vec<_> = t.iter().map(|x| x.name).collect();
        assert_eq!(names, vec!["a", "c"]);
        assert_eq!(t.tids().len(), 2);
    }

    #[test]
    fn iter_mut_can_update_state() {
        let mut t = TaskTable::new();
        let a = t.spawn(&TaskSpec::default());
        for task in t.iter_mut() {
            task.state = TaskState::Interruptible;
        }
        assert_eq!(t.task(a).state, TaskState::Interruptible);
    }

    #[test]
    fn spawn_counter_is_lifetime_total() {
        let mut t = TaskTable::new();
        let a = t.spawn(&TaskSpec::default());
        t.free(a);
        let _ = t.spawn(&TaskSpec::default());
        assert_eq!(t.total_spawned(), 2);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn recalc_skips_zombies_and_empty_slots_and_counts_tasks_touched() {
        let mut t = TaskTable::new();
        let a = t.spawn(&TaskSpec::default().priority(20));
        let gone = t.spawn(&TaskSpec::default().priority(30));
        let z = t.spawn(&TaskSpec::default().priority(10));
        t.task_mut(a).counter = 7;
        t.task_mut(z).state = TaskState::Zombie;
        t.task_mut(z).counter = 4;
        // A freed slot in the middle of the slab is stepped over.
        t.free(gone);
        assert_eq!(t.recalc_counters(false), 1, "zombie and hole excluded");
        assert_eq!(t.task(a).counter, 7 / 2 + 20);
        assert_eq!(t.task(z).counter, 4, "corpse untouched");
        // The rq_zero-clearing variant resets the annotation in the pass.
        t.task_mut(a).rq_zero = true;
        t.recalc_counters(true);
        assert!(!t.task(a).rq_zero);
        // A slot reused after `free` is walked as the task it now holds.
        let reused = t.spawn(&TaskSpec::default().priority(15));
        assert_eq!(reused.index(), gone.index(), "slot should be reused");
        t.task_mut(reused).counter = 6;
        t.task_mut(reused).rq_zero = true;
        assert_eq!(t.recalc_counters(false), 2);
        assert_eq!(t.task(reused).counter, 6 / 2 + 15);
        assert!(t.task(reused).rq_zero, "annotation kept without the flag");
        assert_eq!(t.task(z).counter, 4);
    }

    /// Satellite regression test: generation wraparound and stale-handle
    /// rejection after heavy spawn/free churn — the access pattern the
    /// mega workload exercises at 100k+ tasks.
    #[test]
    fn generation_wraparound_and_stale_rejection_under_churn() {
        let mut t = TaskTable::new();
        // Heavy churn on a small slab: every free slot is reused many
        // times, and a handle retained from each round must go stale.
        let mut retained: Vec<Tid> = Vec::new();
        for round in 0..1000 {
            let tid = t.spawn(&TaskSpec::default());
            if round % 7 == 0 {
                retained.push(tid);
            }
            t.free(tid);
        }
        let fresh = t.spawn(&TaskSpec::default());
        for &old in &retained {
            assert!(t.get(old).is_none(), "stale {old:?} resolved");
            assert!(t.get_mut(old).is_none(), "stale {old:?} resolved mutably");
        }
        assert!(t.get(fresh).is_some());

        // Force the generation counter to the wrap point: free must take
        // u32::MAX -> 0 without panicking, and a handle from the MAX
        // generation must not alias generation 0 of the same slot.
        let mut t = TaskTable::new();
        let seed = t.spawn(&TaskSpec::default());
        t.free(seed);
        // The slot now has gen 1; walk it to u32::MAX by direct churn.
        // Simulating 4 billion frees is too slow, so poke the slot's
        // generation directly (test-only, same-crate access).
        t.slots[seed.index()].gen = u32::MAX;
        let old = t.spawn(&TaskSpec::default());
        assert_eq!(old.generation(), u32::MAX);
        t.free(old); // wraps the slot generation to 0
        let newer = t.spawn(&TaskSpec::default());
        assert_eq!(newer.index(), old.index(), "slot reused across the wrap");
        assert_eq!(newer.generation(), 0, "generation wrapped to zero");
        assert!(t.get(old).is_none(), "pre-wrap handle must be stale");
        assert!(t.get(newer).is_some());
    }
}
