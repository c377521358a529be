//! The host side of reg's goodness scan: an index that answers "which
//! schedulable task has the highest goodness, front-most on ties" without
//! walking the run queue.
//!
//! The simulated kernel still walks the whole list — the caller charges
//! one `GoodnessEval` per schedulable task from the count this index
//! keeps — but the simulator no longer pays O(n) host time for it.
//!
//! # The key
//!
//! Goodness is a static part plus a bonus ([`goodness_parts`], the split
//! ELSC is built on, paper §5). The static part is `counter + priority`,
//! or the whole goodness of a real-time (`1000 + rt_priority`) or
//! exhausted (0) task. The bonus depends only on the deciding CPU and the
//! task's `processor`, plus [`MM_BONUS`] when the task shares `prev`'s
//! address space. So the members are kept in sorted sets keyed by
//! `(static part, list-position stamp)` — higher static part first,
//! lower stamp first among equals:
//!
//! * `flat` — real-time and exhausted tasks, whose goodness is the key;
//! * `by_cpu[p]` — the other tasks that last ran on CPU `p`, whose
//!   goodness is the key plus `p`'s affinity bonus, plus [`MM_BONUS`]
//!   for a task that shares `prev`'s address space.
//!
//! A decision reads the head of `flat` and of every `by_cpu[p]`. The head
//! of `by_cpu[p]` wins its set unless a task within [`MM_BONUS`] of it
//! shares `prev`'s address space; the set is read on from its head only
//! while the address-space bonus could still lift a task past it, and
//! stops at the first task that shares the address space. With few
//! address spaces (a VolanoMark run has two) that is a step or two; it is
//! never more than the two top goodness levels of one set.
//!
//! # The stamps
//!
//! The run queue only ever grows at its ends (`list_add` for new and
//! woken tasks and `move_first_runqueue`, `list_add_tail` for
//! `move_last_runqueue`), and a running task keeps its place. So the
//! index stamps the queue front to back once, when it is built at the
//! first decision, and from then on each hook stamps the task it links —
//! front inserts count down from -1, tail inserts count up from the
//! queue's length — and ascending stamps are list order: the hooks stay
//! O(1), and nothing is renumbered.
//!
//! # What the index hears
//!
//! Everything else that moves a task's key — clock ticks, the counter
//! recalculation, the RR quantum refresh, `processor` after a migration,
//! `has_cpu` at every hand-over, a task linked or unlinked — reaches the
//! index only through the task table's change log: it is one
//! [`LogReader`], subscribed when the index is built (so building a
//! workload costs it nothing) and drained at the start of every scan.
//! A drained slot is re-classified from the task as it stands, and moved
//! between the sets only if its place or key changed. A drain that hands
//! over more slots than there are members (the recalculation touches
//! every task) re-sorts the sets instead of moving tasks one by one.
//!
//! On SMP a task with `has_cpu` set is *held*: counted, but in no set,
//! since no CPU may pick it — which also keeps the clock ticks of running
//! tasks out of the sets. On UP the filter is "not `prev`", so every
//! member is in the sets, and a decision steps over `prev`.

use elsc_ktask::{CpuId, Lists, LogReader, MmId, Task, TaskTable, Tid};
use elsc_sched_api::goodness::{goodness_parts, topo_affinity_bonus, MM_BONUS};
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

/// A set member: a goodness (or static part), a list-position stamp, the
/// slot and its address space, in 24 bytes. The better task is the
/// greater [`Rank`]: higher goodness, then lower stamp.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Member {
    /// The stamp turned around, so that an earlier one is greater.
    early: u64,
    /// The goodness with its sign bit flipped, so that it compares as
    /// unsigned.
    goodness: u32,
    slot: u32,
    mm: MmId,
}

/// A member's sort key, both halves compared at once.
type Rank = u128;

fn rank(goodness: i32, stamp: i64) -> Rank {
    Member::new(goodness, stamp, 0, MmId::KERNEL).rank()
}

impl Member {
    fn new(goodness: i32, stamp: i64, slot: usize, mm: MmId) -> Member {
        Member {
            early: !((stamp as u64) ^ 1 << 63),
            goodness: goodness as u32 ^ 1 << 31,
            slot: slot as u32,
            mm,
        }
    }

    fn rank(&self) -> Rank {
        (self.goodness as u128) << 64 | self.early as u128
    }

    fn goodness(&self) -> i32 {
        (self.goodness ^ 1 << 31) as i32
    }

    #[cfg(test)]
    fn stamp(&self) -> i64 {
        (!self.early ^ 1 << 63) as i64
    }

    /// The same task `by` goodness higher.
    fn lifted(&self, by: i32) -> Member {
        Member {
            goodness: (self.goodness() + by) as u32 ^ 1 << 31,
            ..*self
        }
    }
}

/// A sorted set of members, worst first: the head is the last element,
/// where picks and most inserts happen.
#[derive(Debug, Default)]
struct Members(Vec<Member>);

impl Members {
    /// Where `rank` goes: the number of members below it. Picks and
    /// wake-ups happen near the head, so the search starts there.
    fn position(&self, rank: Rank) -> usize {
        const NEAR: usize = 8;
        let v = &self.0;
        let near = v.len().saturating_sub(NEAR);
        match v[near..].iter().rposition(|x| x.rank() < rank) {
            Some(i) => near + i + 1,
            None => v[..near].partition_point(|x| x.rank() < rank),
        }
    }

    fn insert(&mut self, m: Member) {
        let at = self.position(m.rank());
        self.0.insert(at, m);
    }

    fn remove(&mut self, rank: Rank) {
        let at = self.position(rank);
        debug_assert!(
            self.0.get(at).is_some_and(|x| x.rank() == rank),
            "index set out of step"
        );
        self.0.remove(at);
    }

    /// Best first, without slot `skip`.
    fn best_first(&self, skip: u32) -> impl Iterator<Item = &Member> {
        self.0.iter().rev().filter(move |m| m.slot != skip)
    }
}

/// reg's goodness index (see the module docs).
#[derive(Debug)]
pub(crate) struct GoodnessIndex {
    /// Per slot, its stamp and where it is filed.
    entries: Vec<Entry>,
    /// The next front stamp (counts down) and tail stamp (counts up).
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
    pub(crate) fn new() -> Self {
        GoodnessIndex {
            entries: Vec::new(),
            front: -1,
            back: 0,
            reader: None,
            smp: false,
            drained: Vec::new(),
            members: 0,
            held: 0,
            flat: Members::default(),
            by_cpu: Vec::new(),
        }
    }

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

    /// Refills every set from the entries, sorted, each at its exact size.
    fn rebuild(&mut self) {
        let (mut flat, mut by_cpu) = (0, vec![0; self.by_cpu.len()]);
        for e in &self.entries {
            match e.place {
                Place::Flat => flat += 1,
                Place::Cpu(p, _) => {
                    let p = p as usize;
                    if p >= by_cpu.len() {
                        by_cpu.resize(p + 1, 0);
                    }
                    by_cpu[p] += 1;
                }
                Place::Out | Place::Held => {}
            }
        }
        self.by_cpu.resize_with(by_cpu.len(), Members::default);
        // Fresh vectors, not cleared ones: the first build files every
        // task of a freshly started workload, and the queue soon shrinks.
        for (set, n) in
            std::iter::once((&mut self.flat, flat)).chain(self.by_cpu.iter_mut().zip(by_cpu))
        {
            set.0 = Vec::with_capacity(n);
        }
        for slot in 0..self.entries.len() {
            let e = self.entries[slot];
            let m = Member::new(e.filed_static, e.filed_stamp, slot, Self::mm_of(e.place));
            if let Some(set) = self.set_mut(e.place) {
                set.0.push(m);
            }
        }
        self.flat.0.sort_unstable_by_key(Member::rank);
        for set in &mut self.by_cpu {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_order_by_goodness_then_stamp_and_round_trip() {
        let worst_first = [
            (i32::MIN, 0),
            (-3, 4),
            (0, i64::MAX),
            (41, 9),
            (41, 0),
            (41, -1),
            (1099, -5),
            (i32::MAX, i64::MIN),
        ];
        let members: Vec<Member> = worst_first
            .iter()
            .enumerate()
            .map(|(slot, &(g, stamp))| Member::new(g, stamp, slot, MmId(7)))
            .collect();
        assert!(
            members.windows(2).all(|w| w[0].rank() < w[1].rank()),
            "better is greater"
        );
        for (m, &case) in members.iter().zip(&worst_first) {
            assert_eq!((m.goodness(), m.stamp()), case);
        }
        assert_eq!(members[4].lifted(1).rank(), rank(42, 0));
    }
}
