//! The ELSC run-queue table: 30 lists sorted by static goodness.
//!
//! Figure 1b of the paper: an array of doubly-linked lists, each holding
//! tasks in a range of static goodness; a `top` pointer marks the highest
//! list with a usable (non-zero-counter) task, and `next_top` the highest
//! list holding zero-counter tasks waiting for the next recalculation.
//!
//! Invariants maintained here (and checked by [`ElscTable::debug_check`]):
//!
//! 1. Within each list, every non-zero-counter task precedes every
//!    zero-counter task (zero-counter tasks are appended at the end, "out
//!    of the way of the scheduler, but in position once all other tasks
//!    exhaust their quanta", §5.1).
//! 2. `top` is the highest list with a usable task, `None` if none.
//! 3. `next_top` is the highest list with a parked zero-counter task.
//! 4. Real-time tasks occupy the ten highest lists, indexed by
//!    `rt_priority / 10`; `SCHED_OTHER` tasks occupy the rest, indexed by
//!    `(counter + priority) / 4` (see `DESIGN.md` for the range note).

use elsc_ktask::recalc::recalculated_counter;
use elsc_ktask::{Link, ListNode, Lists, Task, TaskTable, Tid};

/// Number of lists in the table (paper §5.1: "an array of 30 doubly
/// linked lists").
pub const NR_LISTS: usize = 30;

/// First list of the real-time region ("the ten highest lists").
pub const RT_BASE_LIST: usize = 20;

/// Computes the table position for a task: `(list index, zero-section)`.
///
/// * Real-time tasks: list `RT_BASE_LIST + rt_priority / 10`.
/// * Ordinary tasks with quantum left: list `(counter + priority) / 4`,
///   clamped below the real-time region.
/// * Ordinary tasks with a zero counter: indexed by the *predicted*
///   counter the next recalculation will assign
///   (`counter/2 + priority = priority`), placed in the zero section.
pub fn index_for(task: &Task) -> (usize, bool) {
    if task.policy.class.is_realtime() {
        let idx = RT_BASE_LIST + (task.rt_priority as usize) / 10;
        (idx.min(NR_LISTS - 1), false)
    } else if task.counter != 0 {
        let idx = (task.static_goodness().max(0) as usize) / 4;
        (idx.min(RT_BASE_LIST - 1), false)
    } else {
        let predicted = recalculated_counter(task);
        let idx = ((predicted + task.priority).max(0) as usize) / 4;
        (idx.min(RT_BASE_LIST - 1), true)
    }
}

/// The table of run-queue lists.
#[derive(Debug)]
pub struct ElscTable {
    lists: Lists,
    /// Usable (non-zero-counter or real-time) tasks per list.
    nonzero: [u32; NR_LISTS],
    /// Parked zero-counter tasks per list.
    zero: [u32; NR_LISTS],
    top: Option<usize>,
    next_top: Option<usize>,
}

impl Default for ElscTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ElscTable {
    /// Creates an empty table (the boot-time initialization the paper
    /// added).
    pub fn new() -> Self {
        ElscTable {
            lists: Lists::new(NR_LISTS),
            nonzero: [0; NR_LISTS],
            zero: [0; NR_LISTS],
            top: None,
            next_top: None,
        }
    }

    /// The `top` pointer: highest list containing a usable task.
    #[inline]
    pub fn top(&self) -> Option<usize> {
        self.top
    }

    /// The `next_top` pointer: highest list containing a parked
    /// zero-counter task.
    #[inline]
    pub fn next_top(&self) -> Option<usize> {
        self.next_top
    }

    /// Read-only access to the underlying lists (for the search loop).
    #[inline]
    pub fn lists(&self) -> &Lists {
        &self.lists
    }

    /// Links a task into the table at the position [`index_for`] gives:
    /// usable tasks at the *front* of their list, zero-counter tasks at
    /// the *back* (paper §5.1). Records the position in the task's
    /// scheduler annotations and updates `top`/`next_top`.
    ///
    /// Returns the list index used.
    pub fn link(&mut self, tasks: &mut TaskTable, tid: Tid) -> usize {
        let t = tasks.task_mut(tid);
        let (idx, is_zero) = index_for(t);
        t.rq_hint = idx as u8;
        t.rq_zero = is_zero;
        if is_zero {
            self.lists.insert_back(tasks, idx, tid);
            self.zero[idx] += 1;
            if self.next_top.is_none_or(|nt| idx > nt) {
                self.next_top = Some(idx);
            }
        } else {
            self.lists.insert_front(tasks, idx, tid);
            self.nonzero[idx] += 1;
            if self.top.is_none_or(|t| idx > t) {
                self.top = Some(idx);
            }
        }
        idx
    }

    /// Unlinks a task, fully detaching its node (the public
    /// `del_from_runqueue` path).
    pub fn unlink(&mut self, tasks: &mut TaskTable, tid: Tid) {
        self.lists.remove(tasks, tid);
        self.note_removed(tasks.task(tid));
    }

    /// Unlinks a task but leaves its `next` pointer dangling non-NULL so
    /// the task still looks on-queue — the manual removal `schedule()`
    /// performs on the task it is about to run (paper §5.2).
    pub fn unlink_keep_next(&mut self, tasks: &mut TaskTable, tid: Tid) {
        self.lists.remove_keep_next(tasks, tid);
        self.note_removed(tasks.task(tid));
    }

    /// Count/pointer maintenance after a removal.
    fn note_removed(&mut self, task: &Task) {
        let idx = task.rq_hint as usize;
        if task.rq_zero {
            debug_assert!(self.zero[idx] > 0, "zero count underflow on list {idx}");
            self.zero[idx] -= 1;
            if self.zero[idx] == 0 && self.next_top == Some(idx) {
                self.next_top = Self::highest_populated(&self.zero);
            }
        } else {
            debug_assert!(
                self.nonzero[idx] > 0,
                "nonzero count underflow on list {idx}"
            );
            self.nonzero[idx] -= 1;
            if self.nonzero[idx] == 0 && self.top == Some(idx) {
                self.top = Self::highest_populated(&self.nonzero);
            }
        }
    }

    /// Highest index with a non-zero count.
    fn highest_populated(counts: &[u32; NR_LISTS]) -> Option<usize> {
        counts.iter().rposition(|&c| c > 0)
    }

    /// The next usable list strictly below `idx`, for descending search.
    pub fn next_populated_below(&self, idx: usize) -> Option<usize> {
        (0..idx).rev().find(|&i| self.nonzero[i] > 0)
    }

    /// After the global counter recalculation every parked zero-counter
    /// task becomes usable *in place* (that is the whole point of the
    /// predicted-counter insertion): fold the zero counts into the usable
    /// counts and reset the pointers.
    ///
    /// The caller must already have cleared the `rq_zero` annotation of
    /// every task (done during its recalculation walk).
    pub fn merge_after_recalc(&mut self) {
        for i in 0..NR_LISTS {
            self.nonzero[i] += self.zero[i];
            self.zero[i] = 0;
        }
        self.top = Self::highest_populated(&self.nonzero);
        self.next_top = None;
    }

    /// Moves a task to the *front of its section* (`move_first_runqueue`,
    /// tie-break advantage — paper §5.1: "a task is moved within its
    /// current list to the beginning or end of its section").
    pub fn move_first(&mut self, tasks: &mut TaskTable, tid: Tid) {
        let (idx, is_zero) = {
            let t = tasks.task(tid);
            debug_assert!(t.in_list(), "move_first of task not in a list");
            (t.rq_hint as usize, t.rq_zero)
        };
        self.lists.remove(tasks, tid);
        if !is_zero {
            self.lists.insert_front(tasks, idx, tid);
        } else {
            match self.first_zero(tasks, idx) {
                Some(anchor) => self.lists.insert_before(tasks, anchor, tid),
                None => self.lists.insert_back(tasks, idx, tid),
            }
        }
    }

    /// Moves a task to the *end of its section* (`move_last_runqueue`,
    /// tie-break disadvantage).
    pub fn move_last(&mut self, tasks: &mut TaskTable, tid: Tid) {
        let (idx, is_zero) = {
            let t = tasks.task(tid);
            debug_assert!(t.in_list(), "move_last of task not in a list");
            (t.rq_hint as usize, t.rq_zero)
        };
        self.lists.remove(tasks, tid);
        if is_zero {
            self.lists.insert_back(tasks, idx, tid);
        } else {
            match self.first_zero(tasks, idx) {
                Some(anchor) => self.lists.insert_before(tasks, anchor, tid),
                None => self.lists.insert_back(tasks, idx, tid),
            }
        }
    }

    /// Finds the first zero-section task in list `idx` (the section
    /// boundary), if any.
    fn first_zero(&self, tasks: &TaskTable, idx: usize) -> Option<Link> {
        let mut cur = self.lists.first(idx);
        while let Some(i) = cur {
            if tasks.by_index(i as usize).rq_zero {
                return Some(Link::Task(i));
            }
            cur = self.lists.next_task(tasks, i);
        }
        None
    }

    /// The paper's "test routine": does list `idx` contain any
    /// zero-counter task? (Scans; used for assertions.)
    pub fn list_has_zero(&self, tasks: &TaskTable, idx: usize) -> bool {
        self.lists
            .collect(tasks, idx)
            .iter()
            .any(|&i| tasks.by_index(i as usize).rq_zero)
    }

    /// The paper's other test routine: does list `idx` contain any
    /// usable (non-zero-counter) task?
    pub fn list_has_nonzero(&self, tasks: &TaskTable, idx: usize) -> bool {
        self.lists
            .collect(tasks, idx)
            .iter()
            .any(|&i| !tasks.by_index(i as usize).rq_zero)
    }

    /// Verifies all structural invariants.
    ///
    /// # Panics
    ///
    /// Panics on the first violation found.
    pub fn debug_check(&self, tasks: &TaskTable) {
        for idx in 0..NR_LISTS {
            self.lists.check(tasks, idx);
            let members = self.lists.collect(tasks, idx);
            let mut seen_zero = false;
            let mut nonzero = 0u32;
            let mut zero = 0u32;
            for &i in &members {
                let t = tasks.by_index(i as usize);
                assert_eq!(
                    t.rq_hint as usize, idx,
                    "{} annotated with list {} but found in {}",
                    t.name, t.rq_hint, idx
                );
                if t.rq_zero {
                    seen_zero = true;
                    zero += 1;
                } else {
                    assert!(
                        !seen_zero,
                        "usable task {} behind the zero section in list {idx}",
                        t.name
                    );
                    nonzero += 1;
                }
            }
            assert_eq!(self.nonzero[idx], nonzero, "nonzero count wrong on {idx}");
            assert_eq!(self.zero[idx], zero, "zero count wrong on {idx}");
        }
        assert_eq!(
            self.top,
            Self::highest_populated(&self.nonzero),
            "top pointer stale"
        );
        assert_eq!(
            self.next_top,
            Self::highest_populated(&self.zero),
            "next_top pointer stale"
        );
    }

    /// Fully detaches a task's node after an `unlink_keep_next` (used
    /// when the marked task re-enters the table).
    pub fn clear_marker(tasks: &mut TaskTable, tid: Tid) {
        let t = tasks.task_mut(tid);
        debug_assert!(
            !t.in_list(),
            "clear_marker on a task still linked into a list"
        );
        t.run_list = ListNode::detached();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsc_ktask::{SchedClass, TaskSpec, TaskTable};

    fn spawn(tasks: &mut TaskTable, counter: i32, priority: i32) -> Tid {
        let tid = tasks.spawn(&TaskSpec::default().priority(priority));
        tasks.task_mut(tid).counter = counter;
        tid
    }

    #[test]
    fn index_default_task() {
        let mut tasks = TaskTable::new();
        let t = spawn(&mut tasks, 20, 20);
        // static goodness 40 -> list 10.
        assert_eq!(index_for(tasks.task(t)), (10, false));
    }

    #[test]
    fn index_zero_counter_uses_prediction() {
        let mut tasks = TaskTable::new();
        let t = spawn(&mut tasks, 0, 20);
        // Predicted counter = 20, so (20 + 20)/4 = 10: same list it will
        // belong to after recalculation, but in the zero section.
        assert_eq!(index_for(tasks.task(t)), (10, true));
    }

    #[test]
    fn index_realtime_region() {
        let mut tasks = TaskTable::new();
        let t = tasks.spawn(&TaskSpec::default().realtime(SchedClass::Fifo, 0));
        assert_eq!(index_for(tasks.task(t)), (20, false));
        let t99 = tasks.spawn(&TaskSpec::default().realtime(SchedClass::Rr, 99));
        assert_eq!(index_for(tasks.task(t99)), (29, false));
        let t55 = tasks.spawn(&TaskSpec::default().realtime(SchedClass::Rr, 55));
        assert_eq!(index_for(tasks.task(t55)), (25, false));
    }

    #[test]
    fn index_other_clamped_below_rt_region() {
        let mut tasks = TaskTable::new();
        // counter 80 + priority 40 = 120 -> raw 30, clamped to 19.
        let t = spawn(&mut tasks, 80, 40);
        assert_eq!(index_for(tasks.task(t)), (19, false));
    }

    #[test]
    fn link_maintains_top() {
        let mut tasks = TaskTable::new();
        let mut table = ElscTable::new();
        assert_eq!(table.top(), None);
        let low = spawn(&mut tasks, 4, 20); // sg 24 -> list 6
        let high = spawn(&mut tasks, 20, 20); // sg 40 -> list 10
        table.link(&mut tasks, low);
        assert_eq!(table.top(), Some(6));
        table.link(&mut tasks, high);
        assert_eq!(table.top(), Some(10));
        table.debug_check(&tasks);
        table.unlink(&mut tasks, high);
        assert_eq!(table.top(), Some(6));
        table.unlink(&mut tasks, low);
        assert_eq!(table.top(), None);
        table.debug_check(&tasks);
    }

    #[test]
    fn zero_counter_tasks_track_next_top() {
        let mut tasks = TaskTable::new();
        let mut table = ElscTable::new();
        let z = spawn(&mut tasks, 0, 20);
        table.link(&mut tasks, z);
        assert_eq!(table.top(), None, "a parked task is not usable");
        assert_eq!(table.next_top(), Some(10));
        table.debug_check(&tasks);
        table.unlink(&mut tasks, z);
        assert_eq!(table.next_top(), None);
    }

    #[test]
    fn zero_section_stays_behind_usable_tasks() {
        let mut tasks = TaskTable::new();
        let mut table = ElscTable::new();
        let z1 = spawn(&mut tasks, 0, 20);
        let a = spawn(&mut tasks, 20, 20);
        let z2 = spawn(&mut tasks, 0, 20);
        let b = spawn(&mut tasks, 20, 20);
        for t in [z1, a, z2, b] {
            table.link(&mut tasks, t);
        }
        // All land in list 10; usable at the front (LIFO), zero at the
        // back (FIFO).
        let order = table.lists().collect(&tasks, 10);
        assert_eq!(
            order,
            vec![
                b.index() as u32,
                a.index() as u32,
                z1.index() as u32,
                z2.index() as u32
            ]
        );
        table.debug_check(&tasks);
    }

    #[test]
    fn merge_after_recalc_promotes_parked_tasks() {
        let mut tasks = TaskTable::new();
        let mut table = ElscTable::new();
        let z = spawn(&mut tasks, 0, 20);
        table.link(&mut tasks, z);
        assert_eq!(table.top(), None);
        // The recalculation walk ELSC runs before the merge.
        tasks.recalc_counters(true);
        table.merge_after_recalc();
        assert_eq!(table.top(), Some(10));
        assert_eq!(table.next_top(), None);
        table.debug_check(&tasks);
        // The task is now usable exactly where it stood.
        assert_eq!(index_for(tasks.task(z)), (10, false));
    }

    #[test]
    fn unlink_keep_next_marks_running() {
        let mut tasks = TaskTable::new();
        let mut table = ElscTable::new();
        let a = spawn(&mut tasks, 20, 20);
        table.link(&mut tasks, a);
        table.unlink_keep_next(&mut tasks, a);
        let t = tasks.task(a);
        assert!(t.on_runqueue() && !t.in_list());
        assert_eq!(table.top(), None);
        table.debug_check(&tasks);
        // Re-entry path.
        ElscTable::clear_marker(&mut tasks, a);
        table.link(&mut tasks, a);
        assert!(tasks.task(a).in_list());
        table.debug_check(&tasks);
    }

    #[test]
    fn move_first_and_last_stay_in_section() {
        let mut tasks = TaskTable::new();
        let mut table = ElscTable::new();
        let a = spawn(&mut tasks, 20, 20);
        let b = spawn(&mut tasks, 20, 20);
        let z1 = spawn(&mut tasks, 0, 20);
        let z2 = spawn(&mut tasks, 0, 20);
        for t in [a, b, z1, z2] {
            table.link(&mut tasks, t);
        }
        // list 10: [b, a, z1, z2]
        table.move_last(&mut tasks, b);
        // b must land at the end of the *usable* section, before z1.
        assert_eq!(
            table.lists().collect(&tasks, 10),
            vec![
                a.index() as u32,
                b.index() as u32,
                z1.index() as u32,
                z2.index() as u32
            ]
        );
        table.move_first(&mut tasks, z2);
        // z2 to the front of the *zero* section.
        assert_eq!(
            table.lists().collect(&tasks, 10),
            vec![
                a.index() as u32,
                b.index() as u32,
                z2.index() as u32,
                z1.index() as u32
            ]
        );
        table.move_first(&mut tasks, b);
        assert_eq!(table.lists().collect(&tasks, 10)[0], b.index() as u32);
        table.move_last(&mut tasks, z2);
        assert_eq!(
            table.lists().collect(&tasks, 10).last().copied(),
            Some(z2.index() as u32)
        );
        table.debug_check(&tasks);
    }

    #[test]
    fn move_ops_in_pure_sections() {
        // Sections missing entirely: moves degrade to list front/back.
        let mut tasks = TaskTable::new();
        let mut table = ElscTable::new();
        let a = spawn(&mut tasks, 20, 20);
        let b = spawn(&mut tasks, 20, 20);
        table.link(&mut tasks, a);
        table.link(&mut tasks, b);
        table.move_last(&mut tasks, b);
        assert_eq!(
            table.lists().collect(&tasks, 10),
            vec![a.index() as u32, b.index() as u32]
        );
        let z1 = spawn(&mut tasks, 0, 1); // sg pred: (1+1)/4 = 0 -> list 0
        let z2 = spawn(&mut tasks, 0, 1);
        table.link(&mut tasks, z1);
        table.link(&mut tasks, z2);
        table.move_first(&mut tasks, z2);
        assert_eq!(
            table.lists().collect(&tasks, 0),
            vec![z2.index() as u32, z1.index() as u32]
        );
        table.debug_check(&tasks);
    }

    #[test]
    fn paper_test_routines() {
        let mut tasks = TaskTable::new();
        let mut table = ElscTable::new();
        let a = spawn(&mut tasks, 20, 20);
        let z = spawn(&mut tasks, 0, 20);
        table.link(&mut tasks, a);
        table.link(&mut tasks, z);
        assert!(table.list_has_nonzero(&tasks, 10));
        assert!(table.list_has_zero(&tasks, 10));
        table.unlink(&mut tasks, z);
        assert!(!table.list_has_zero(&tasks, 10));
    }

    #[test]
    fn next_populated_below_descends() {
        let mut tasks = TaskTable::new();
        let mut table = ElscTable::new();
        let low = spawn(&mut tasks, 4, 20); // list 6
        let high = spawn(&mut tasks, 20, 20); // list 10
        table.link(&mut tasks, low);
        table.link(&mut tasks, high);
        assert_eq!(table.next_populated_below(10), Some(6));
        assert_eq!(table.next_populated_below(6), None);
    }

    #[test]
    fn realtime_always_above_other() {
        let mut tasks = TaskTable::new();
        let mut table = ElscTable::new();
        // Best possible SCHED_OTHER task.
        let other = spawn(&mut tasks, 80, 40);
        let rt = tasks.spawn(&TaskSpec::default().realtime(SchedClass::Fifo, 0));
        table.link(&mut tasks, other);
        table.link(&mut tasks, rt);
        // RT list (20) strictly above the clamped OTHER list (19).
        assert_eq!(table.top(), Some(20));
        table.debug_check(&tasks);
    }

    /// Within SCHED_OTHER at equal priority a larger counter never
    /// indexes into a lower list: the table is sorted by static
    /// goodness. Exhaustive over the legal parameter range.
    #[test]
    fn index_is_monotone_in_static_goodness() {
        let mut tasks = TaskTable::new();
        for priority in 1..=40 {
            let mut last = 0;
            for counter in 1..=2 * priority {
                let t = spawn(&mut tasks, counter, priority);
                let (idx, zero) = index_for(tasks.task(t));
                assert!(
                    !zero && idx < RT_BASE_LIST && idx >= last,
                    "{counter}/{priority}"
                );
                last = idx;
            }
        }
    }
}
