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
//!
//! # The change log
//!
//! An observer that wants to know which tasks changed between two points
//! (the machine's oracle, between one `schedule()` decision and the next)
//! does not have to walk the table: every path that can hand out a
//! `&mut Task` — [`get_mut`](TaskTable::get_mut) /
//! [`task_mut`](TaskTable::task_mut),
//! [`by_index_mut`](TaskTable::by_index_mut),
//! [`iter_mut`](TaskTable::iter_mut) /
//! [`recalc_counters`](TaskTable::recalc_counters),
//! [`spawn`](TaskTable::spawn) and [`free`](TaskTable::free); the slab is
//! private, so the borrow checker guarantees there is no other — records
//! the slot it touched, and [`drain_touched`](TaskTable::drain_touched)
//! hands the recorded slots over, each once. Nothing is recorded until a
//! reader subscribes by draining for the first time (that first drain
//! reports every occupied slot), and a table nobody watches allocates
//! nothing for the log. The log is conservative: a slot handed out
//! mutably is reported whether or not the caller wrote to it.
//!
//! The barrier costs an unwatched lookup no instruction of its own. Each
//! slot carries one 64-bit key — generation in the high half, the
//! `EMPTY` and `ARMED` flags in the low — so the single comparison a
//! handle lookup makes anyway (`key == generation << 32`) also answers
//! "occupied?" and "does the log want to hear about this?". `ARMED` means
//! *watched and not yet logged since the last drain*: the first mutable
//! lookup of an armed slot takes the out-of-line path, logs the slot and
//! disarms it, and every later one is as cheap as if nobody watched.

use crate::recalc;
use crate::task::{Task, TaskSpec};
use crate::tid::Tid;

/// Slot flag: no task lives here (the record is a freed task's corpse).
const EMPTY: u64 = 1;
/// Slot flag: the change log is on and has not recorded this slot since
/// the last drain.
const ARMED: u64 = 2;

/// The key of an occupied, unarmed slot of generation `gen`.
#[inline]
const fn key_of(gen: u32) -> u64 {
    (gen as u64) << 32
}

/// One slab slot: its key (see the module docs) and the task record,
/// which outlives `free` as an unreachable corpse until the slot is
/// spawned into again. `repr(C)` pins the key behind the record, next to
/// the state bytes and the list links every lookup goes on to touch — at
/// 100 000 tasks the slab is far larger than the cache, and a key at the
/// front of the slot would cost most lookups a second line.
#[derive(Debug)]
#[repr(C)]
struct Slot {
    task: Task,
    key: u64,
}

// The slab stride every scan and walk streams: the 72-byte record plus
// its key.
const _: () = assert!(core::mem::size_of::<Slot>() <= 80);

impl Slot {
    #[inline]
    fn generation(&self) -> u32 {
        (self.key >> 32) as u32
    }

    #[inline]
    fn occupied(&self) -> bool {
        self.key & EMPTY == 0
    }
}

/// The set of all tasks in the system.
#[derive(Debug, Default)]
pub struct TaskTable {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
    spawned: u64,
    /// Whether a change-log reader has subscribed. While `false` no slot
    /// is ever armed and `touched` stays empty.
    watched: bool,
    /// The slots logged since the last drain, in first-touch order. A
    /// logged slot is unarmed, so each is here once.
    touched: Vec<u32>,
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
            debug_assert!(!slot.occupied());
            let tid = Tid::from_raw(idx, slot.generation());
            slot.task = Task::new(tid, spec);
            slot.key &= !EMPTY;
            self.log_if_armed(idx as usize);
            tid
        } else {
            let idx = u32::try_from(self.slots.len()).expect("task table overflow");
            let tid = Tid::from_raw(idx, 0);
            self.slots.push(Slot {
                task: Task::new(tid, spec),
                key: key_of(0),
            });
            if self.watched {
                // Born logged, hence unarmed.
                self.touched.push(idx);
            }
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
        assert_eq!(slot.generation(), tid.generation(), "free of stale {tid:?}");
        assert!(slot.occupied(), "double free of {tid:?}");
        assert!(
            !slot.task.in_list(),
            "freeing {} while still linked into a run queue",
            slot.task
        );
        slot.key = key_of(tid.generation().wrapping_add(1)) | EMPTY | (slot.key & ARMED);
        self.free.push(tid.index() as u32);
        self.live -= 1;
        self.log_if_armed(tid.index());
    }

    /// Logs slot `idx` unless it already is in the log (or nobody
    /// watches: then no slot is armed).
    fn log_if_armed(&mut self, idx: usize) {
        let slot = &mut self.slots[idx];
        if slot.key & ARMED != 0 {
            slot.key &= !ARMED;
            self.touched.push(idx as u32);
        }
    }

    /// The out-of-line half of a mutable lookup whose key test failed:
    /// either the slot is armed — log it, disarm it, hand it out — or the
    /// lookup is the caller's bug. `want` is the key the caller expected,
    /// `None` for a lookup by raw index (any generation will do).
    #[cold]
    #[inline(never)]
    fn log_armed(&mut self, idx: usize, want: Option<u64>) -> Option<&mut Task> {
        let key = self.slots[idx].key;
        let occupied_and_armed = match want {
            Some(want) => key == want | ARMED,
            None => key & (EMPTY | ARMED) == ARMED,
        };
        if !occupied_and_armed {
            return None;
        }
        self.log_if_armed(idx);
        Some(&mut self.slots[idx].task)
    }

    /// Looks up a task, returning `None` for stale handles.
    #[inline]
    pub fn get(&self, tid: Tid) -> Option<&Task> {
        let slot = self.slots.get(tid.index())?;
        (slot.key & !ARMED == key_of(tid.generation())).then_some(&slot.task)
    }

    /// Mutable lookup, returning `None` for stale handles.
    #[inline]
    pub fn get_mut(&mut self, tid: Tid) -> Option<&mut Task> {
        let want = key_of(tid.generation());
        // Indexed twice because the borrow of the early return would
        // otherwise cover the out-of-line call.
        if self.slots.get(tid.index())?.key == want {
            return Some(&mut self.slots[tid.index()].task);
        }
        self.log_armed(tid.index(), Some(want))
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
        self.slot(idx)
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
        if self.slots[idx].key & (EMPTY | ARMED) == 0 {
            return &mut self.slots[idx].task;
        }
        self.log_armed(idx, None)
            .unwrap_or_else(|| panic!("empty task slot {idx}"))
    }

    /// Occupied-slot lookup by raw slab index: the task in slot `idx`, or
    /// `None` if the slot is empty or past the end of the slab. What a
    /// [`drain_touched`](TaskTable::drain_touched) reader resolves the
    /// drained slots with — a freed slot is reported too.
    #[inline]
    pub fn slot(&self, idx: usize) -> Option<&Task> {
        let slot = self.slots.get(idx)?;
        slot.occupied().then_some(&slot.task)
    }

    /// Drains the [change log](self#the-change-log): appends to `out`,
    /// in no particular order and each once, every slot that was spawned
    /// into, freed or handed out mutably since the previous drain. The
    /// first call subscribes — recording starts with it — and reports
    /// every occupied slot, so a reader that applies each drain to its
    /// own picture of the table is exact from its first call on.
    pub fn drain_touched(&mut self, out: &mut Vec<u32>) {
        if !self.watched {
            self.watched = true;
            // Every slot is now either logged or armed: the occupied ones
            // are reported by this drain, the empty ones wait for `spawn`.
            for (idx, slot) in self.slots.iter_mut().enumerate() {
                if slot.occupied() {
                    self.touched.push(idx as u32);
                } else {
                    slot.key |= ARMED;
                }
            }
        }
        for &idx in &self.touched {
            self.slots[idx as usize].key |= ARMED;
        }
        out.append(&mut self.touched);
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
        self.slots.iter().filter(|s| s.occupied()).map(|s| &s.task)
    }

    /// Mutably iterates over all live tasks.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Task> {
        if self.watched {
            for idx in 0..self.slots.len() {
                if self.slots[idx].occupied() {
                    self.log_if_armed(idx);
                }
            }
        }
        let live = self.slots.iter_mut().filter(|s| s.occupied());
        live.map(|s| &mut s.task)
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

    /// Drains the log into a fresh, sorted vector.
    fn drained(t: &mut TaskTable) -> Vec<u32> {
        let mut out = Vec::new();
        t.drain_touched(&mut out);
        out.sort_unstable();
        out
    }

    #[test]
    fn nothing_is_logged_before_the_first_drain() {
        let mut t = TaskTable::new();
        let tids: Vec<Tid> = (0..100).map(|_| t.spawn(&TaskSpec::default())).collect();
        for &tid in &tids {
            t.task_mut(tid).counter = 1;
            t.by_index_mut(tid.index()).counter = 2;
        }
        t.recalc_counters(true);
        t.free(tids[3]);
        assert!(!t.watched);
        assert!(t.slots.iter().all(|s| s.key & ARMED == 0), "nothing armed");
        assert_eq!(t.touched.capacity(), 0, "no memory before a reader");
        // The subscribing drain reports the table as it stands: every
        // occupied slot, the freed one not among them.
        let all: Vec<u32> = (0..100).filter(|&i| i != 3).collect();
        assert_eq!(drained(&mut t), all);
        assert_eq!(drained(&mut t), [], "a drain empties the log");
        // A slot that was already empty when the reader arrived is logged
        // when it is spawned into.
        assert_eq!(t.spawn(&TaskSpec::default()).index(), 3);
        assert_eq!(drained(&mut t), [3]);
    }

    #[test]
    fn every_mutable_path_is_drained_exactly_once() {
        let mut t = TaskTable::new();
        let tids: Vec<Tid> = (0..6).map(|_| t.spawn(&TaskSpec::default())).collect();
        let slot = |i: usize| tids[i].index() as u32;
        drained(&mut t); // subscribe

        // Immutable lookups are not logged.
        let _ = (t.get(tids[0]), t.task(tids[1]), t.by_index(2), t.slot(3));
        let _ = (t.iter().count(), t.tids(), t.len(), t.is_empty());
        assert_eq!(drained(&mut t), []);

        // Each mutable lookup is, once, however often it repeats and
        // whether or not the caller writes through it.
        t.get_mut(tids[0]).unwrap().counter = 3;
        let _ = t.get_mut(tids[0]);
        assert_eq!(drained(&mut t), [slot(0)]);
        t.task_mut(tids[1]).counter = 3;
        t.task_mut(tids[1]).counter = 4;
        assert_eq!(drained(&mut t), [slot(1)]);
        t.by_index_mut(tids[2].index()).counter = 3;
        let _ = t.by_index_mut(tids[2].index());
        assert_eq!(drained(&mut t), [slot(2)]);
        assert_eq!(drained(&mut t), [], "already handed over");

        // A stale handle resolves to nothing and logs nothing.
        t.free(tids[5]);
        assert_eq!(drained(&mut t), [slot(5)], "free is logged");
        assert!(t.get_mut(tids[5]).is_none());
        assert_eq!(drained(&mut t), []);

        // The whole-table walks log every occupied slot (and only those).
        let live: Vec<u32> = (0..5).map(slot).collect();
        t.iter_mut().for_each(drop);
        assert_eq!(drained(&mut t), live);
        t.recalc_counters(false);
        t.task_mut(tids[4]).counter = 0; // no second entry for slot 4
        assert_eq!(drained(&mut t), live);

        // spawn: into the reused slot, then into a fresh one.
        let reused = t.spawn(&TaskSpec::default());
        assert_eq!(reused.index(), tids[5].index());
        assert_eq!(drained(&mut t), [slot(5)]);
        let fresh = t.spawn(&TaskSpec::default());
        assert_eq!(fresh.index(), 6);
        assert_eq!(drained(&mut t), [6]);
    }

    #[test]
    fn a_slot_freed_and_respawned_between_drains_reads_as_its_new_occupant() {
        let mut t = TaskTable::new();
        let old = t.spawn(&TaskSpec::named("old"));
        let gone = t.spawn(&TaskSpec::named("gone"));
        drained(&mut t);
        t.free(old);
        let new = t.spawn(&TaskSpec::named("new"));
        t.free(gone);
        assert_eq!(drained(&mut t), [0, 1], "each slot once");
        assert_eq!(t.slot(0).map(|task| task.tid), Some(new));
        assert_eq!(t.slot(0).map(|task| task.name), Some("new"));
        assert!(t.slot(1).is_none(), "a freed slot is reported, and empty");
        assert!(t.slot(99).is_none(), "past the slab");
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
        t.slots[seed.index()].key = key_of(u32::MAX) | EMPTY;
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
