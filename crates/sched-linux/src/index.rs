//! The host side of reg's goodness scan: an index that answers "which
//! schedulable task has the highest goodness, front-most on ties" without
//! walking the run queue. The simulated kernel still walks the whole list
//! — the caller charges one `GoodnessEval` per schedulable task from the
//! count this index keeps — but the simulator no longer pays O(n) host
//! time for it. DESIGN.md §14 ("reg's goodness index") walks through it.
//!
//! # The key
//!
//! Goodness is a static part plus a bonus ([`goodness_parts`], the split
//! ELSC is built on, paper §5): `counter + priority`, or the whole
//! goodness of a real-time (`1000 + rt_priority`) or exhausted (0) task,
//! plus a bonus that depends only on the deciding CPU and the task's
//! `processor`, and [`MM_BONUS`] for sharing `prev`'s address space. So
//! the members sit in [`Members`] sets — the one static-goodness order,
//! `elsc_sched_api::order` — keyed by `(static part, list-position
//! stamp)`:
//!
//! * `flat` — real-time and exhausted tasks, whose goodness is the key;
//! * `by_cpu[p]` — the other tasks that last ran on CPU `p`, whose
//!   goodness is the key plus `p`'s affinity bonus and the mm bonus.
//!
//! A decision reads the head of `flat` and of every `by_cpu[p]`. The head
//! of `by_cpu[p]` wins its set unless a task within [`MM_BONUS`] of it
//! shares `prev`'s address space; the set is read on from its head only
//! while that bonus could still lift a task past it, and stops at the
//! first task that shares the address space: a step or two with
//! VolanoMark's two address spaces, never more than the set's two top
//! goodness levels.
//!
//! # The stamps
//!
//! The run queue only grows at its ends (`list_add`, `list_add_tail`) and
//! a running task keeps its place. So the index stamps the queue front to
//! back once, when it is built at the first decision, and from then on
//! each hook stamps the task it links — front inserts count down from -1,
//! tail inserts up from the queue's length. Ascending stamps are list
//! order: the hooks stay O(1), and nothing is renumbered.
//!
//! # What the index hears
//!
//! Everything else that moves a key — clock ticks, the recalculation, the
//! RR quantum refresh, a migration, `has_cpu` at every hand-over, a task
//! linked or unlinked — reaches the index through one [`LogReader`] on
//! the task table's change log, subscribed when the index is built (so
//! building a workload costs it nothing) and drained at the start of
//! every scan. A drained slot is re-classified from the task as it
//! stands, and moved between the sets only if its place or key changed;
//! a drain of more slots than there are members (the recalculation
//! touches every task) re-sorts the sets instead.
//!
//! On SMP a task with `has_cpu` set is *held*: counted, but in no set,
//! since no CPU may pick it — which also keeps the clock ticks of running
//! tasks out of the sets. On UP every member is in the sets, and a
//! decision steps over `prev`.

use elsc_ktask::{CpuId, Lists, LogReader, MmId, Task, TaskTable, Tid};
use elsc_sched_api::goodness::{goodness_parts, topo_affinity_bonus, MM_BONUS};
use elsc_sched_api::order::{rank, Member, Members};
use elsc_sched_api::{SchedConfig, IDLE_GOODNESS};

/// Where a slot sits in the index.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Place {
    /// Not on the run queue.
    #[default]
    Out,
    /// On the run queue with `has_cpu` set (SMP only): in no set.
    Held,
    /// Real-time or out of quantum: in `flat`.
    Flat,
    /// Ordinary: in `by_cpu[processor]`, with its address space.
    Cpu(u32, MmId),
}

/// One slot's index record.
#[derive(Clone, Copy, Debug, Default)]
struct Entry {
    /// The list-position stamp the last run-queue hook gave the slot.
    stamp: i64,
    /// Where the slot is filed, under which static part and stamp (the
    /// stamp may be older than `stamp`).
    place: Place,
    filed_static: i32,
    filed_stamp: i64,
}

/// reg's goodness index (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct GoodnessIndex {
    /// Per slot, its stamp and where it is filed.
    entries: Vec<Entry>,
    /// The next front stamp (counts down) and tail stamp (counts up),
    /// set when the index is built.
    front: i64,
    back: i64,
    /// The change-log subscription, from the first scan on.
    reader: Option<LogReader>,
    /// Whether the index files `has_cpu` tasks as held (SMP), fixed by
    /// the first scan.
    smp: bool,
    /// The slots the last drain handed over.
    drained: Vec<u32>,
    /// Tasks on the run queue, and how many of them are held.
    members: usize,
    held: usize,
    flat: Members,
    by_cpu: Vec<Members>,
}

impl GoodnessIndex {
    fn entry_mut(&mut self, slot: usize) -> &mut Entry {
        if slot >= self.entries.len() {
            self.entries.resize(slot + 1, Entry::default());
        }
        &mut self.entries[slot]
    }

    /// Stamps `tid` as the new front of the run queue (nothing before the
    /// index is built: the build stamps the queue as it finds it).
    #[inline]
    pub(crate) fn stamp_front(&mut self, tid: Tid) {
        if self.reader.is_some() {
            let stamp = self.front;
            self.front -= 1;
            self.entry_mut(tid.index()).stamp = stamp;
        }
    }

    /// Stamps `tid` as the new back of the run queue.
    #[inline]
    pub(crate) fn stamp_back(&mut self, tid: Tid) {
        if self.reader.is_some() {
            let stamp = self.back;
            self.back += 1;
            self.entry_mut(tid.index()).stamp = stamp;
        }
    }

    /// Builds the index at the first scan: subscribes to the change log,
    /// whose first drain (into `drained`) hands over every task, sizes
    /// the entries to the table once, and stamps the run queue front to
    /// back.
    fn build(&mut self, lists: &Lists, tasks: &mut TaskTable, smp: bool, drained: &mut Vec<u32>) {
        self.smp = smp;
        let reader = self.reader.insert(tasks.subscribe());
        tasks.drain_touched(reader, drained);
        let len = drained.iter().max().map_or(0, |&i| i as usize + 1);
        self.entries
            .reserve_exact(len.saturating_sub(self.entries.len()));
        let mut next = lists.first(0);
        let mut stamp = 0;
        while let Some(slot) = next {
            self.entry_mut(slot as usize).stamp = stamp;
            stamp += 1;
            next = lists.next_task(tasks, slot);
        }
        self.front = -1;
        self.back = stamp;
    }

    /// Forgets every member and ends the subscription: the run queue has
    /// been emptied. The next scan builds the index again.
    pub(crate) fn clear(&mut self, tasks: &mut TaskTable) {
        if let Some(reader) = self.reader.take() {
            tasks.unsubscribe(reader);
        }
        for e in &mut self.entries {
            e.place = Place::Out;
        }
        self.members = 0;
        self.held = 0;
        self.flat.0.clear();
        self.by_cpu.clear();
    }

    /// Where `t` belongs, with its static part.
    fn place_of(t: &Task, smp: bool) -> (Place, i32) {
        if !t.in_list() {
            return (Place::Out, 0);
        }
        if smp && t.has_cpu {
            return (Place::Held, 0);
        }
        match goodness_parts(t) {
            (s, false) => (Place::Flat, s),
            (s, true) => (Place::Cpu(t.processor as u32, t.mm), s),
        }
    }

    /// The set `place` files into, if any.
    fn set_mut(&mut self, place: Place) -> Option<&mut Members> {
        match place {
            Place::Out | Place::Held => None,
            Place::Flat => Some(&mut self.flat),
            Place::Cpu(p, _) => {
                let p = p as usize;
                if p >= self.by_cpu.len() {
                    self.by_cpu.resize_with(p + 1, Members::default);
                }
                Some(&mut self.by_cpu[p])
            }
        }
    }

    /// Re-files slot `slot` from the task it holds now; with `edit` off
    /// only the entry changes (the sets are rebuilt afterwards).
    fn refresh(&mut self, tasks: &TaskTable, slot: usize, edit: bool) {
        let (place, static_part) = match tasks.slot(slot) {
            Some(t) => Self::place_of(t, self.smp),
            None => (Place::Out, 0),
        };
        if slot >= self.entries.len() && place == Place::Out {
            return;
        }
        let e = *self.entry_mut(slot);
        let filed = matches!(place, Place::Flat | Place::Cpu(..));
        if e.place == place && (!filed || (e.filed_static, e.filed_stamp) == (static_part, e.stamp))
        {
            return;
        }
        if edit {
            if let Some(set) = self.set_mut(e.place) {
                set.remove(rank(e.filed_static, e.filed_stamp));
            }
            let mm = Self::mm_of(place);
            if let Some(set) = self.set_mut(place) {
                set.insert(Member::new(static_part, e.stamp, slot, mm));
            }
        }
        self.members += (place != Place::Out) as usize;
        self.members -= (e.place != Place::Out) as usize;
        self.held += (place == Place::Held) as usize;
        self.held -= (e.place == Place::Held) as usize;
        self.entries[slot] = Entry {
            stamp: e.stamp,
            place,
            filed_static: static_part,
            filed_stamp: e.stamp,
        };
    }

    /// The address space a set member at `place` is filed with.
    fn mm_of(place: Place) -> MmId {
        match place {
            Place::Cpu(_, mm) => mm,
            _ => MmId::KERNEL,
        }
    }

    /// Refills every set from the entries, sorted.
    fn rebuild(&mut self) {
        // Fresh vectors, not cleared ones: the first build files every
        // task of a freshly started workload, and the queue soon shrinks.
        self.flat = Members::default();
        self.by_cpu.fill_with(Members::default);
        for slot in 0..self.entries.len() {
            let e = self.entries[slot];
            let m = Member::new(e.filed_static, e.filed_stamp, slot, Self::mm_of(e.place));
            if let Some(set) = self.set_mut(e.place) {
                set.0.push(m);
            }
        }
        for set in std::iter::once(&mut self.flat).chain(&mut self.by_cpu) {
            set.0.sort_unstable_by_key(Member::rank);
        }
    }

    /// Applies the change log, building the index on the first call, and
    /// re-files what was touched.
    fn sync(&mut self, lists: &Lists, tasks: &mut TaskTable, smp: bool) {
        let mut drained = std::mem::take(&mut self.drained);
        match &self.reader {
            Some(reader) => tasks.drain_touched(reader, &mut drained),
            None => self.build(lists, tasks, smp, &mut drained),
        }
        assert_eq!(
            self.smp, smp,
            "the index was built for another machine shape"
        );
        // Re-filing costs a set edit per slot, a rebuild a sort of every
        // set: rebuild when the drain outnumbers the members (and is more
        // than a handful).
        let bulk = drained.len() > self.members.max(16);
        for &slot in &drained {
            self.refresh(tasks, slot as usize, !bulk);
        }
        if bulk {
            self.rebuild();
        }
        drained.clear();
        self.drained = drained;
    }

    /// The walk's answer without the walk: the schedulable task with the
    /// highest goodness on `cpu` against `prev_mm`, front-most on ties —
    /// `(IDLE_GOODNESS, None)` when there is none — and how many tasks
    /// the walk would have examined. Schedulable means what
    /// `can_schedule()` admits: on SMP not running on any CPU, on UP not
    /// `prev`.
    pub(crate) fn best(
        &mut self,
        lists: &Lists,
        tasks: &mut TaskTable,
        cfg: &SchedConfig,
        cpu: CpuId,
        prev: Tid,
        prev_mm: MmId,
    ) -> ((i32, Option<Tid>), u64) {
        self.sync(lists, tasks, cfg.smp);
        let (skip, excluded) = if self.smp {
            (u32::MAX, self.held)
        } else {
            let prev_in = self
                .entries
                .get(prev.index())
                .is_some_and(|e| e.place != Place::Out);
            (prev.index() as u32, prev_in as usize)
        };
        let n = (self.members - excluded) as u64;
        // Members lifted to their goodness on `cpu` from here on. The
        // deciding CPU's own set goes first: its affinity bonus is the
        // largest, so the other sets can mostly be ruled out by their head.
        let mut best = self.flat.best_first(skip).next().copied();
        let own = (cpu < self.by_cpu.len()).then_some(cpu);
        let others = (0..self.by_cpu.len()).filter(|&p| p != cpu);
        for p in own.into_iter().chain(others) {
            let mut order = self.by_cpu[p].best_first(skip);
            let Some(&head) = order.next() else {
                continue;
            };
            let bonus = topo_affinity_bonus(&cfg.topology, cpu, p);
            let ceiling = head.goodness() + bonus + MM_BONUS;
            if best.is_some_and(|b| ceiling < b.goodness()) {
                continue;
            }
            // The set's best is its head, unless the address-space bonus
            // lifts a task past it: then the first such task.
            let kin = if head.mm == prev_mm {
                head.lifted(MM_BONUS)
            } else {
                order
                    .map(|m| m.lifted(MM_BONUS))
                    .take_while(|m| m.rank() > head.rank())
                    .find(|m| m.mm == prev_mm)
                    .unwrap_or(head)
            };
            let g = kin.lifted(bonus);
            if best.is_none_or(|b| g.rank() > b.rank()) {
                best = Some(g);
            }
        }
        let answer = match best {
            Some(m) => (m.goodness(), Some(tasks.by_index(m.slot as usize).tid)),
            None => (IDLE_GOODNESS, None),
        };
        (answer, n)
    }
}
