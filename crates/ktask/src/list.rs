//! Intrusive circular doubly-linked lists — the kernel's `list_head`.
//!
//! Both run-queue designs are built from the same primitive: the baseline
//! scheduler uses a single list, ELSC an array of 30. The linkage for a
//! task lives *inside* the task (`task.run_list`), exactly as in the
//! kernel, so membership is testable from the task alone:
//!
//! * `next != Nil` — the rest of the kernel considers the task "on the
//!   run queue".
//! * `prev != Nil` — the task is actually linked into some list right now.
//!
//! ELSC exploits the difference: a running task is unlinked from its list
//! but must still look on-queue, so only `prev` is cleared
//! (paper §5.1, footnote 3). [`Lists::remove_keep_next`] implements that.
//!
//! Handles inside links are raw slab indices (`u32`), mirroring kernel
//! pointers; the list only ever contains live tasks, enforced by
//! [`crate::table::TaskTable::free`] refusing to free a linked task.

use crate::table::TaskTable;
use crate::tid::Tid;

/// One link of an intrusive list node.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Link {
    /// NULL: detached (or, for `prev` only, "unlinked while running").
    #[default]
    Nil,
    /// Points at list head number `n`.
    Head(u32),
    /// Points at the task in slab slot `n`.
    Task(u32),
}

impl Link {
    /// Whether this link is NULL.
    #[inline]
    pub fn is_nil(self) -> bool {
        matches!(self, Link::Nil)
    }
}

/// The two links embedded in each task (`struct list_head run_list`) and
/// in each list head.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ListNode {
    /// Forward link.
    pub next: Link,
    /// Backward link.
    pub prev: Link,
}

impl ListNode {
    /// A node linked to nothing.
    #[inline]
    pub const fn detached() -> ListNode {
        ListNode {
            next: Link::Nil,
            prev: Link::Nil,
        }
    }
}

/// A bank of circular doubly-linked lists sharing one set of task nodes.
///
/// The baseline run queue is a `Lists` of size 1; the ELSC table is a
/// `Lists` of size 30.
#[derive(Clone, Debug)]
pub struct Lists {
    heads: Vec<ListNode>,
}

impl Lists {
    /// Creates `n` empty lists.
    pub fn new(n: usize) -> Lists {
        let heads = (0..n)
            .map(|h| {
                // Kernel INIT_LIST_HEAD: an empty head points at itself.
                let h = h as u32;
                ListNode {
                    next: Link::Head(h),
                    prev: Link::Head(h),
                }
            })
            .collect();
        Lists { heads }
    }

    /// Number of lists in the bank.
    pub fn nr_lists(&self) -> usize {
        self.heads.len()
    }

    /// Reads the node a link points to.
    fn node(&self, tasks: &TaskTable, l: Link) -> ListNode {
        match l {
            Link::Nil => panic!("list op through a NULL link"),
            Link::Head(h) => self.heads[h as usize],
            Link::Task(i) => tasks.by_index(i as usize).run_list,
        }
    }

    /// Writes the forward link of the node `l` points to. Forced inline,
    /// like [`set_prev`](Lists::set_prev): every list operation makes
    /// both writes, and the out-of-line half of `by_index_mut` is enough
    /// to tip the inliner into leaving them as calls.
    #[inline(always)]
    fn set_next(&mut self, tasks: &mut TaskTable, l: Link, v: Link) {
        match l {
            Link::Nil => panic!("list op through a NULL link"),
            Link::Head(h) => self.heads[h as usize].next = v,
            Link::Task(i) => tasks.by_index_mut(i as usize).run_list.next = v,
        }
    }

    /// Writes the backward link of the node `l` points to.
    #[inline(always)]
    fn set_prev(&mut self, tasks: &mut TaskTable, l: Link, v: Link) {
        match l {
            Link::Nil => panic!("list op through a NULL link"),
            Link::Head(h) => self.heads[h as usize].prev = v,
            Link::Task(i) => tasks.by_index_mut(i as usize).run_list.prev = v,
        }
    }

    /// Links `tid` between two adjacent nodes (`__list_add`).
    fn insert_between(&mut self, tasks: &mut TaskTable, tid: Tid, before: Link, after: Link) {
        let me = Link::Task(tid.index() as u32);
        let t = tasks.task_mut(tid);
        debug_assert!(!t.in_list(), "inserting {} while already linked", t.name);
        t.run_list = ListNode {
            next: after,
            prev: before,
        };
        self.set_next(tasks, before, me);
        self.set_prev(tasks, after, me);
    }

    /// Adds `tid` at the front of list `h` (`list_add`).
    ///
    /// # Panics
    ///
    /// Panics (debug) if the task is already linked.
    pub fn insert_front(&mut self, tasks: &mut TaskTable, h: usize, tid: Tid) {
        let head = Link::Head(h as u32);
        let first = self.heads[h].next;
        self.insert_between(tasks, tid, head, first);
    }

    /// Adds `tid` at the back of list `h` (`list_add_tail`).
    pub fn insert_back(&mut self, tasks: &mut TaskTable, h: usize, tid: Tid) {
        let head = Link::Head(h as u32);
        let last = self.heads[h].prev;
        self.insert_between(tasks, tid, last, head);
    }

    /// Inserts `tid` immediately after the node `anchor` points at.
    pub fn insert_after(&mut self, tasks: &mut TaskTable, anchor: Link, tid: Tid) {
        let after = self.node(tasks, anchor).next;
        self.insert_between(tasks, tid, anchor, after);
    }

    /// Inserts `tid` immediately before the node `anchor` points at.
    pub fn insert_before(&mut self, tasks: &mut TaskTable, anchor: Link, tid: Tid) {
        let before = self.node(tasks, anchor).prev;
        self.insert_between(tasks, tid, before, anchor);
    }

    /// Unlinks `tid` and fully detaches its node (`list_del` followed by
    /// NULLing both pointers — the baseline `del_from_runqueue`, which
    /// NULLs `next` to mean "off the run queue").
    ///
    /// # Panics
    ///
    /// Panics if the task is not linked.
    pub fn remove(&mut self, tasks: &mut TaskTable, tid: Tid) {
        self.unlink(tasks, tid, false);
    }

    /// Unlinks `tid` but clears only `prev`, leaving `next` dangling
    /// non-NULL so the task still *looks* on-queue — ELSC's manual removal
    /// of the task it is about to run (paper §5.2).
    ///
    /// # Panics
    ///
    /// Panics if the task is not linked.
    pub fn remove_keep_next(&mut self, tasks: &mut TaskTable, tid: Tid) {
        self.unlink(tasks, tid, true);
    }

    /// Common unlink: points neighbours at each other (`__list_del`) and
    /// marks the task off-list (`prev` NULL); `next` is NULLed too unless
    /// `keep_next` leaves it stale. One lookup of the task serves the read
    /// and the write.
    fn unlink(&mut self, tasks: &mut TaskTable, tid: Tid, keep_next: bool) {
        let t = tasks.task_mut(tid);
        let node = t.run_list;
        assert!(
            !node.prev.is_nil() && !node.next.is_nil(),
            "unlink of task not in a list"
        );
        t.run_list.prev = Link::Nil;
        if !keep_next {
            t.run_list.next = Link::Nil;
        }
        self.set_next(tasks, node.prev, node.next);
        self.set_prev(tasks, node.next, node.prev);
    }

    /// First task of list `h`, if any.
    pub fn first(&self, h: usize) -> Option<u32> {
        match self.heads[h].next {
            Link::Task(i) => Some(i),
            Link::Head(_) => None,
            Link::Nil => unreachable!("corrupt list head"),
        }
    }

    /// Last task of list `h`, if any.
    pub fn last(&self, h: usize) -> Option<u32> {
        match self.heads[h].prev {
            Link::Task(i) => Some(i),
            Link::Head(_) => None,
            Link::Nil => unreachable!("corrupt list head"),
        }
    }

    /// Whether list `h` is empty.
    pub fn is_empty(&self, h: usize) -> bool {
        matches!(self.heads[h].next, Link::Head(_))
    }

    /// The task after `idx` in its list, or `None` at the end. A scan
    /// that already holds the `&Task` follows `run_list.next` itself
    /// rather than looking the record up a second time here.
    pub fn next_task(&self, tasks: &TaskTable, idx: u32) -> Option<u32> {
        match tasks.by_index(idx as usize).run_list.next {
            Link::Task(i) => Some(i),
            Link::Head(_) => None,
            Link::Nil => panic!("walking from a detached node"),
        }
    }

    /// Collects the slab indices of all tasks in list `h`, front to back.
    ///
    /// Walks the links; intended for tests, assertions, and the paper's
    /// "test routines" rather than hot paths.
    pub fn collect(&self, tasks: &TaskTable, h: usize) -> Vec<u32> {
        let mut out = Vec::new();
        let mut cur = self.heads[h].next;
        loop {
            match cur {
                Link::Head(hh) => {
                    debug_assert_eq!(hh as usize, h, "list crossed into another head");
                    break;
                }
                Link::Task(i) => {
                    out.push(i);
                    assert!(
                        out.len() <= tasks.len(),
                        "list {h} longer than the task table: cycle"
                    );
                    cur = tasks.by_index(i as usize).run_list.next;
                }
                Link::Nil => panic!("NULL link inside list {h}"),
            }
        }
        out
    }

    /// Number of tasks in list `h` (walks the list).
    pub fn len(&self, tasks: &TaskTable, h: usize) -> usize {
        self.collect(tasks, h).len()
    }

    /// Verifies the structural invariants of list `h`: forward and
    /// backward walks agree, and every membership flag is consistent.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violation found.
    pub fn check(&self, tasks: &TaskTable, h: usize) {
        let fwd = self.collect(tasks, h);
        // Backward walk.
        let mut back = Vec::new();
        let mut cur = self.heads[h].prev;
        loop {
            match cur {
                Link::Head(hh) => {
                    assert_eq!(hh as usize, h);
                    break;
                }
                Link::Task(i) => {
                    back.push(i);
                    assert!(back.len() <= tasks.len(), "backward cycle in list {h}");
                    cur = tasks.by_index(i as usize).run_list.prev;
                }
                Link::Nil => panic!("NULL prev link inside list {h}"),
            }
        }
        back.reverse();
        assert_eq!(fwd, back, "forward and backward walks disagree on list {h}");
        for &i in &fwd {
            let t = tasks.by_index(i as usize);
            assert!(t.in_list(), "{} linked but prev is NULL", t.name);
            assert!(t.on_runqueue(), "{} linked but next is NULL", t.name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskSpec;

    fn setup(n_lists: usize, n_tasks: usize) -> (Lists, TaskTable, Vec<Tid>) {
        let lists = Lists::new(n_lists);
        let mut tasks = TaskTable::new();
        let tids = (0..n_tasks)
            .map(|_| tasks.spawn(&TaskSpec::default()))
            .collect();
        (lists, tasks, tids)
    }

    #[test]
    fn new_lists_are_empty() {
        let (l, t, _) = setup(3, 0);
        for h in 0..3 {
            assert!(l.is_empty(h));
            assert_eq!(l.first(h), None);
            assert_eq!(l.last(h), None);
            assert_eq!(l.len(&t, h), 0);
            l.check(&t, h);
        }
    }

    #[test]
    fn insert_front_orders_lifo() {
        let (mut l, mut t, tids) = setup(1, 3);
        for &tid in &tids {
            l.insert_front(&mut t, 0, tid);
        }
        let got = l.collect(&t, 0);
        let want: Vec<u32> = tids.iter().rev().map(|t| t.index() as u32).collect();
        assert_eq!(got, want);
        l.check(&t, 0);
    }

    #[test]
    fn insert_back_orders_fifo() {
        let (mut l, mut t, tids) = setup(1, 3);
        for &tid in &tids {
            l.insert_back(&mut t, 0, tid);
        }
        let got = l.collect(&t, 0);
        let want: Vec<u32> = tids.iter().map(|t| t.index() as u32).collect();
        assert_eq!(got, want);
        assert_eq!(l.first(0), Some(tids[0].index() as u32));
        assert_eq!(l.last(0), Some(tids[2].index() as u32));
    }

    #[test]
    fn remove_middle_relinks_neighbours() {
        let (mut l, mut t, tids) = setup(1, 3);
        for &tid in &tids {
            l.insert_back(&mut t, 0, tid);
        }
        l.remove(&mut t, tids[1]);
        assert_eq!(
            l.collect(&t, 0),
            vec![tids[0].index() as u32, tids[2].index() as u32]
        );
        assert!(!t.task(tids[1]).on_runqueue());
        assert!(!t.task(tids[1]).in_list());
        l.check(&t, 0);
    }

    #[test]
    fn remove_only_element_empties_list() {
        let (mut l, mut t, tids) = setup(1, 1);
        l.insert_front(&mut t, 0, tids[0]);
        l.remove(&mut t, tids[0]);
        assert!(l.is_empty(0));
        l.check(&t, 0);
    }

    #[test]
    fn remove_keep_next_leaves_on_queue_marker() {
        let (mut l, mut t, tids) = setup(1, 2);
        l.insert_back(&mut t, 0, tids[0]);
        l.insert_back(&mut t, 0, tids[1]);
        l.remove_keep_next(&mut t, tids[0]);
        // Task 0 is off the list but still "on the run queue".
        let task = t.task(tids[0]);
        assert!(task.on_runqueue(), "next must stay non-NULL");
        assert!(!task.in_list(), "prev must be NULL");
        assert_eq!(l.collect(&t, 0), vec![tids[1].index() as u32]);
        l.check(&t, 0);
    }

    #[test]
    fn insert_after_and_before() {
        let (mut l, mut t, tids) = setup(1, 3);
        l.insert_back(&mut t, 0, tids[0]);
        let anchor = Link::Task(tids[0].index() as u32);
        l.insert_after(&mut t, anchor, tids[1]);
        l.insert_before(&mut t, anchor, tids[2]);
        assert_eq!(
            l.collect(&t, 0),
            vec![
                tids[2].index() as u32,
                tids[0].index() as u32,
                tids[1].index() as u32
            ]
        );
        l.check(&t, 0);
    }

    #[test]
    fn lists_in_bank_are_independent() {
        let (mut l, mut t, tids) = setup(2, 2);
        l.insert_back(&mut t, 0, tids[0]);
        l.insert_back(&mut t, 1, tids[1]);
        assert_eq!(l.collect(&t, 0), vec![tids[0].index() as u32]);
        assert_eq!(l.collect(&t, 1), vec![tids[1].index() as u32]);
        l.remove(&mut t, tids[0]);
        assert!(l.is_empty(0));
        assert!(!l.is_empty(1));
    }

    #[test]
    fn next_task_walks_forward() {
        let (mut l, mut t, tids) = setup(1, 2);
        l.insert_back(&mut t, 0, tids[0]);
        l.insert_back(&mut t, 0, tids[1]);
        let first = l.first(0).unwrap();
        let second = l.next_task(&t, first).unwrap();
        assert_eq!(second, tids[1].index() as u32);
        assert_eq!(l.next_task(&t, second), None);
    }

    #[test]
    #[should_panic(expected = "not in a list")]
    fn removing_detached_task_panics() {
        let (mut l, mut t, tids) = setup(1, 1);
        l.remove(&mut t, tids[0]);
    }

    #[test]
    fn reinsertion_after_remove_keep_next_works() {
        let (mut l, mut t, tids) = setup(1, 2);
        l.insert_back(&mut t, 0, tids[0]);
        l.insert_back(&mut t, 0, tids[1]);
        l.remove_keep_next(&mut t, tids[0]);
        // Re-inserting requires clearing the stale next first, which is
        // what the schedulers do before calling insert_*.
        t.task_mut(tids[0]).run_list = ListNode::detached();
        l.insert_back(&mut t, 0, tids[0]);
        assert_eq!(
            l.collect(&t, 0),
            vec![tids[1].index() as u32, tids[0].index() as u32]
        );
        l.check(&t, 0);
    }

    /// The bank against a `VecDeque` reference model under `SimRng`
    /// op sequences: order, structure and the membership flags
    /// (`in_list` / `on_runqueue`, including the `remove_keep_next`
    /// marker) must agree after every step.
    #[test]
    fn random_ops_match_a_reference_model() {
        use elsc_simcore::SimRng;
        use std::collections::VecDeque;
        const NR_LISTS: usize = 4;
        for seed in 0..32u64 {
            let mut rng = SimRng::new(0x1157 ^ seed);
            let (mut l, mut t, tids) = setup(NR_LISTS, 16);
            let mut model = vec![VecDeque::<u32>::new(); NR_LISTS];
            let mut member = [None::<usize>; 16];
            for _ in 0..200 {
                let pick = rng.below(16) as usize;
                let (tid, idx) = (tids[pick], tids[pick].index() as u32);
                let h = rng.below(NR_LISTS as u64) as usize;
                match (member[pick], rng.below(4)) {
                    (None, op) => {
                        // A marker from remove_keep_next is cleared
                        // first, as the schedulers do.
                        t.task_mut(tid).run_list = ListNode::detached();
                        if op % 2 == 0 {
                            l.insert_front(&mut t, h, tid);
                            model[h].push_front(idx);
                        } else {
                            l.insert_back(&mut t, h, tid);
                            model[h].push_back(idx);
                        }
                        member[pick] = Some(h);
                    }
                    (Some(cur), op) => {
                        model[cur].retain(|&x| x != idx);
                        member[pick] = None;
                        if op == 0 {
                            l.remove_keep_next(&mut t, tid);
                            assert!(t.task(tid).on_runqueue() && !t.task(tid).in_list());
                        } else {
                            l.remove(&mut t, tid);
                            assert!(!t.task(tid).on_runqueue() && !t.task(tid).in_list());
                        }
                        if op == 3 {
                            // Move to (the back of) another list.
                            l.insert_back(&mut t, h, tid);
                            model[h].push_back(idx);
                            member[pick] = Some(h);
                        }
                    }
                }
                for (h, want) in model.iter().enumerate() {
                    l.check(&t, h);
                    assert!(l.collect(&t, h).iter().eq(want), "seed {seed}: list {h}");
                }
                for (i, m) in member.iter().enumerate() {
                    let task = t.task(tids[i]);
                    assert_eq!(task.in_list(), m.is_some(), "seed {seed}: task {i}");
                }
            }
        }
    }
}
