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
//! read and write that record directly. A slot — record plus key — is 64
//! bytes, one cache line's worth, so a walk over the slab streams one line
//! per task.
//!
//! A task's debug name is not in the record: the table stores each
//! distinct name once and a two-byte name id per slot beside the slab
//! ([`name`](TaskTable::name), [`describe`](TaskTable::describe)).
//!
//! # The change log
//!
//! An observer that wants to know which tasks changed between two points
//! (the machine's oracle between one `schedule()` decision and the next,
//! the baseline scheduler's goodness index between two of its calls)
//! does not have to walk the table: every path that can hand out a
//! `&mut Task` — [`get_mut`](TaskTable::get_mut) /
//! [`task_mut`](TaskTable::task_mut),
//! [`by_index_mut`](TaskTable::by_index_mut),
//! [`iter_mut`](TaskTable::iter_mut) /
//! [`recalc_counters`](TaskTable::recalc_counters),
//! [`spawn`](TaskTable::spawn) and [`free`](TaskTable::free); the slab is
//! private, so the borrow checker guarantees there is no other — records
//! the slot it touched. A reader [subscribes](TaskTable::subscribe) and
//! gets a [`LogReader`]; [`drain_touched`](TaskTable::drain_touched)
//! hands that reader the slots recorded since its previous drain, each
//! once, whatever the other readers did in between (its first drain
//! reports every occupied slot). Up to [`MAX_READERS`] readers may
//! subscribe at once; a table nobody watches allocates nothing for the
//! log. The log is conservative: a slot handed out mutably is reported
//! whether or not the caller wrote to it.
//!
//! The barrier costs an unwatched lookup no instruction of its own. Each
//! slot carries one 64-bit key — generation in the high half, the `EMPTY`
//! flag and one `ARMED` bit per reader in the low — so the single
//! comparison a handle lookup makes anyway (`key == generation << 32`)
//! also answers "occupied?" and "does any reader want to hear about
//! this?". A reader's bit means *watched by it and not yet logged for it
//! since its last drain*: the first mutable lookup of a slot armed for
//! anyone takes the out-of-line path, appends the slot to the log of
//! every reader armed on it and disarms them, and every later lookup is
//! as cheap as if nobody watched. A reader's log therefore holds each
//! slot at most once: one that stops draining — a scheduler swapped out
//! mid-run — costs at most one entry per slot, and no more slow lookups.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::recalc;
use crate::task::{Task, TaskSpec};
use crate::tid::Tid;

/// Slot flag: no task lives here (the record is a freed task's corpse).
const EMPTY: u64 = 1;

/// How many change-log readers may be subscribed to one table at once.
pub const MAX_READERS: usize = 8;

/// Slot flags: reader `r` is subscribed and has not had this slot logged
/// since its last drain (bit `1 + r`). `ARMED` is every reader's bit.
const ARMED: u64 = ((1 << MAX_READERS) - 1) << 1;

/// Reader `r`'s `ARMED` bit.
#[inline]
const fn armed_bit(r: usize) -> u64 {
    2 << r
}

/// The tables created so far: each table's serial, so a reader handed to
/// another table is refused instead of draining someone else's log.
static TABLES: AtomicU64 = AtomicU64::new(0);

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
///
/// Not `align(64)`: an over-aligned slab is allocated through
/// `posix_memalign`, whose alignment slack fragments the heap when a
/// process builds and drops large tables in turn, so the peak RSS of such
/// a process moved by a whole slab with the length of an unrelated string
/// allocated at start-up (DESIGN.md §14).
#[derive(Debug)]
#[repr(C)]
struct Slot {
    task: Task,
    key: u64,
}

// The slab stride every scan and walk streams: the 56-byte record plus
// its key, a cache line's worth.
const _: () = assert!(core::mem::size_of::<Slot>() == 64);

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

/// A subscription to a table's [change log](self#the-change-log): what
/// [`TaskTable::drain_touched`] takes to know whose log to hand over.
/// Neither `Clone` nor `Copy`, so one subscription has one reader.
#[derive(Debug)]
pub struct LogReader {
    table: u64,
    id: u8,
}

/// The set of all tasks in the system.
#[derive(Debug)]
pub struct TaskTable {
    slots: Vec<Slot>,
    /// Per slot, the id of its tenant's name in `names` (a freed slot
    /// keeps its corpse's).
    slot_names: Vec<u16>,
    /// Every distinct task name, once, in first-spawn order.
    names: Vec<&'static str>,
    /// Each name's id in `names`, so a repeated name is found without a
    /// search.
    name_ids: HashMap<&'static str, u16>,
    free: Vec<u32>,
    live: usize,
    spawned: u64,
    /// This table's serial (see `TABLES`).
    serial: u64,
    /// One bit per subscribed reader, at its `ARMED` position. While zero
    /// no slot is ever armed and every log stays empty.
    readers: u64,
    /// Per reader, the slots logged since its last drain, in first-touch
    /// order. A slot logged for a reader is unarmed for it, so each is
    /// in its log once. Grown by `subscribe`: a table nobody watches
    /// holds no log at all.
    logs: Vec<Vec<u32>>,
}

impl Default for TaskTable {
    fn default() -> Self {
        TaskTable {
            slots: Vec::new(),
            slot_names: Vec::new(),
            names: Vec::new(),
            name_ids: HashMap::new(),
            free: Vec::new(),
            live: 0,
            spawned: 0,
            serial: TABLES.fetch_add(1, Ordering::Relaxed),
            readers: 0,
            logs: Vec::new(),
        }
    }
}

impl TaskTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        TaskTable::default()
    }

    /// Makes room for `additional` more tasks without growing the slab
    /// again. A capacity hint only: it spawns nothing.
    pub fn reserve(&mut self, additional: usize) {
        self.slots.reserve_exact(additional);
        self.slot_names.reserve_exact(additional);
    }

    /// The id of `name` in `names`, storing it on its first use.
    ///
    /// # Panics
    ///
    /// Panics past 65 536 distinct names.
    fn intern(&mut self, name: &'static str) -> u16 {
        *self.name_ids.entry(name).or_insert_with(|| {
            let id = u16::try_from(self.names.len()).expect("more than 65536 task names");
            self.names.push(name);
            id
        })
    }

    /// Creates a new task from `spec` and returns its handle.
    pub fn spawn(&mut self, spec: &TaskSpec) -> Tid {
        self.spawned += 1;
        self.live += 1;
        let name = self.intern(spec.name);
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            debug_assert!(!slot.occupied());
            let tid = Tid::from_raw(idx, slot.generation());
            slot.task = Task::new(tid, spec);
            slot.key &= !EMPTY;
            self.slot_names[idx as usize] = name;
            self.log_if_armed(idx as usize);
            tid
        } else {
            let idx = u32::try_from(self.slots.len()).expect("task table overflow");
            let tid = Tid::from_raw(idx, 0);
            self.slots.push(Slot {
                task: Task::new(tid, spec),
                key: key_of(0),
            });
            self.slot_names.push(name);
            // Born logged for every reader, hence unarmed.
            self.log_for(self.readers, idx);
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
        let slot = &self.slots[tid.index()];
        assert_eq!(slot.generation(), tid.generation(), "free of stale {tid:?}");
        assert!(slot.occupied(), "double free of {tid:?}");
        assert!(
            !slot.task.in_list(),
            "freeing {} while still linked into a run queue",
            self.describe(tid)
        );
        let slot = &mut self.slots[tid.index()];
        slot.key = key_of(tid.generation().wrapping_add(1)) | EMPTY | (slot.key & ARMED);
        self.free.push(tid.index() as u32);
        self.live -= 1;
        self.log_if_armed(tid.index());
    }

    /// Logs slot `idx` for every reader it is armed for, and disarms it
    /// (nothing, when nobody watches: then no slot is armed).
    fn log_if_armed(&mut self, idx: usize) {
        let slot = &mut self.slots[idx];
        let armed = slot.key & ARMED;
        if armed != 0 {
            slot.key &= !ARMED;
            self.log_for(armed, idx as u32);
        }
    }

    /// Appends slot `idx` to the log of every reader whose bit is in
    /// `bits`.
    #[inline]
    fn log_for(&mut self, bits: u64, idx: u32) {
        let mut rest = bits >> 1;
        while rest != 0 {
            self.logs[rest.trailing_zeros() as usize].push(idx);
            rest &= rest - 1;
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
        let occupied = match want {
            Some(want) => key & !ARMED == want,
            None => key & EMPTY == 0,
        };
        let occupied_and_armed = occupied && key & ARMED != 0;
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

    /// The debug name `tid` was spawned with ([`TaskSpec::name`]).
    ///
    /// # Panics
    ///
    /// Panics if `tid` is stale.
    #[track_caller]
    pub fn name(&self, tid: Tid) -> &'static str {
        self.task(tid);
        self.names[self.slot_names[tid.index()] as usize]
    }

    /// One line about a live task for messages and panics:
    /// `NAME[INDEX] STATE cnt=COUNTER pri=PRIORITY`.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is stale.
    #[track_caller]
    pub fn describe(&self, tid: Tid) -> String {
        let t = self.task(tid);
        format!(
            "{}[{}] {:?} cnt={} pri={}",
            self.name(tid),
            tid,
            t.state,
            t.counter,
            t.priority
        )
    }

    /// Subscribes a new reader to the [change log](self#the-change-log).
    /// Recording for it starts now, and its first drain reports every
    /// occupied slot, so a reader that applies each drain to its own
    /// picture of the table is exact from its first drain on.
    ///
    /// # Panics
    ///
    /// Panics if [`MAX_READERS`] readers are subscribed already.
    pub fn subscribe(&mut self) -> LogReader {
        let id = (!self.readers & ARMED).trailing_zeros() as usize - 1;
        assert!(
            id < MAX_READERS,
            "more than {MAX_READERS} change-log readers"
        );
        let bit = armed_bit(id);
        self.readers |= bit;
        if id >= self.logs.len() {
            self.logs.resize_with(id + 1, Vec::new);
        }
        // Every slot is now either logged or armed for the reader: the
        // occupied ones are in its first drain, the empty ones wait for
        // `spawn`.
        let log = &mut self.logs[id];
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            if slot.occupied() {
                log.push(idx as u32);
            } else {
                slot.key |= bit;
            }
        }
        LogReader {
            table: self.serial,
            id: id as u8,
        }
    }

    /// Ends `reader`'s subscription: its log is freed and no slot is
    /// armed for it any more. One pass over the slab.
    pub fn unsubscribe(&mut self, reader: LogReader) {
        let id = self.reader_id(&reader);
        let bit = armed_bit(id);
        for slot in &mut self.slots {
            slot.key &= !bit;
        }
        self.readers &= !bit;
        self.logs[id] = Vec::new();
    }

    /// Drains `reader`'s part of the [change log](self#the-change-log):
    /// appends to `out`, in no particular order and each once, every slot
    /// that was spawned into, freed or handed out mutably since the
    /// reader's previous drain (since it subscribed, for the first: then
    /// every occupied slot is reported too).
    ///
    /// # Panics
    ///
    /// Panics if `reader` was subscribed to another table.
    pub fn drain_touched(&mut self, reader: &LogReader, out: &mut Vec<u32>) {
        let id = self.reader_id(reader);
        let bit = armed_bit(id);
        for &idx in &self.logs[id] {
            self.slots[idx as usize].key |= bit;
        }
        out.append(&mut self.logs[id]);
    }

    /// The log index of `reader`, which must be this table's.
    fn reader_id(&self, reader: &LogReader) -> usize {
        assert_eq!(
            reader.table, self.serial,
            "a change-log reader of another table"
        );
        reader.id as usize
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
        if self.readers != 0 {
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
        assert_eq!(t.name(a), "a");
        assert_eq!(t.name(b), "b");
        assert_eq!(t.task(a).tid, a);
    }

    #[test]
    fn a_reserved_table_spawns_without_growing() {
        let mut t = TaskTable::new();
        t.spawn(&TaskSpec::named("idle"));
        t.reserve(1_000);
        let cap = t.slots.capacity();
        assert!(cap >= 1_001);
        for _ in 0..1_000 {
            t.spawn(&TaskSpec::named("t"));
        }
        assert_eq!(t.slots.capacity(), cap, "sized once");
        assert_eq!(t.len(), 1_001);
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
        let names: Vec<_> = t.iter().map(|x| t.name(x.tid)).collect();
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

    /// Drains `reader`'s log into a fresh, sorted vector.
    fn drained(t: &mut TaskTable, reader: &LogReader) -> Vec<u32> {
        let mut out = Vec::new();
        t.drain_touched(reader, &mut out);
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
        assert_eq!(t.readers, 0);
        assert!(t.slots.iter().all(|s| s.key & ARMED == 0), "nothing armed");
        assert_eq!(t.logs.capacity(), 0, "no memory before a reader");
        // The subscriber's first drain reports the table as it stands:
        // every occupied slot, the freed one not among them.
        let r = t.subscribe();
        let all: Vec<u32> = (0..100).filter(|&i| i != 3).collect();
        assert_eq!(drained(&mut t, &r), all);
        assert_eq!(drained(&mut t, &r), [], "a drain empties the log");
        // A slot that was already empty when the reader arrived is logged
        // when it is spawned into.
        assert_eq!(t.spawn(&TaskSpec::default()).index(), 3);
        assert_eq!(drained(&mut t, &r), [3]);
        // Unsubscribing disarms every slot and frees the log.
        t.task_mut(tids[0]).counter = 5;
        t.unsubscribe(r);
        assert_eq!(t.readers, 0);
        assert!(t.slots.iter().all(|s| s.key & ARMED == 0), "nothing armed");
        assert!(t.logs.iter().all(|l| l.capacity() == 0), "log freed");
    }

    #[test]
    fn every_mutable_path_is_drained_exactly_once() {
        let mut t = TaskTable::new();
        let tids: Vec<Tid> = (0..6).map(|_| t.spawn(&TaskSpec::default())).collect();
        let slot = |i: usize| tids[i].index() as u32;
        let r = t.subscribe();
        drained(&mut t, &r);

        // Immutable lookups are not logged.
        let _ = (t.get(tids[0]), t.task(tids[1]), t.by_index(2), t.slot(3));
        let _ = (t.iter().count(), t.tids(), t.len(), t.is_empty());
        assert_eq!(drained(&mut t, &r), []);

        // Each mutable lookup is, once, however often it repeats and
        // whether or not the caller writes through it.
        t.get_mut(tids[0]).unwrap().counter = 3;
        let _ = t.get_mut(tids[0]);
        assert_eq!(drained(&mut t, &r), [slot(0)]);
        t.task_mut(tids[1]).counter = 3;
        t.task_mut(tids[1]).counter = 4;
        assert_eq!(drained(&mut t, &r), [slot(1)]);
        t.by_index_mut(tids[2].index()).counter = 3;
        let _ = t.by_index_mut(tids[2].index());
        assert_eq!(drained(&mut t, &r), [slot(2)]);
        assert_eq!(drained(&mut t, &r), [], "already handed over");

        // A stale handle resolves to nothing and logs nothing.
        t.free(tids[5]);
        assert_eq!(drained(&mut t, &r), [slot(5)], "free is logged");
        assert!(t.get_mut(tids[5]).is_none());
        assert_eq!(drained(&mut t, &r), []);

        // The whole-table walks log every occupied slot (and only those).
        let live: Vec<u32> = (0..5).map(slot).collect();
        t.iter_mut().for_each(drop);
        assert_eq!(drained(&mut t, &r), live);
        t.recalc_counters(false);
        t.task_mut(tids[4]).counter = 0; // no second entry for slot 4
        assert_eq!(drained(&mut t, &r), live);

        // spawn: into the reused slot, then into a fresh one.
        let reused = t.spawn(&TaskSpec::default());
        assert_eq!(reused.index(), tids[5].index());
        assert_eq!(drained(&mut t, &r), [slot(5)]);
        let fresh = t.spawn(&TaskSpec::default());
        assert_eq!(fresh.index(), 6);
        assert_eq!(drained(&mut t, &r), [6]);
    }

    #[test]
    fn a_slot_freed_and_respawned_between_drains_reads_as_its_new_occupant() {
        let mut t = TaskTable::new();
        let old = t.spawn(&TaskSpec::named("old"));
        let gone = t.spawn(&TaskSpec::named("gone"));
        let r = t.subscribe();
        drained(&mut t, &r);
        t.free(old);
        let new = t.spawn(&TaskSpec::named("new"));
        t.free(gone);
        assert_eq!(drained(&mut t, &r), [0, 1], "each slot once");
        assert_eq!(t.slot(0).map(|task| task.tid), Some(new));
        assert_eq!(t.slot(0).map(|task| t.name(task.tid)), Some("new"));
        assert!(t.slot(1).is_none(), "a freed slot is reported, and empty");
        assert!(t.slot(99).is_none(), "past the slab");
    }

    #[test]
    fn names_are_stored_once_and_follow_the_slot_tenant() {
        let mut t = TaskTable::new();
        let first = t.spawn(&TaskSpec::named("server"));
        for i in 0..100 {
            t.spawn(&TaskSpec::named(if i % 2 == 0 {
                "client"
            } else {
                "server"
            }));
        }
        assert_eq!(t.names, ["server", "client"], "each distinct name once");
        // The same text at another address is the same name.
        let copy: &'static str = String::from("client").leak();
        let c = t.spawn(&TaskSpec::named(copy));
        assert_eq!((t.names.len(), t.name(c)), (2, "client"));
        // A freed slot spawned again reports its new tenant's name.
        t.free(first);
        let sleeper = t.spawn(&TaskSpec::named("sleeper").priority(15));
        assert_eq!(sleeper.index(), first.index(), "slot should be reused");
        assert_eq!(t.name(sleeper), "sleeper");
        assert_eq!(t.names, ["server", "client", "sleeper"]);
        // `describe` is the text `Task`'s `Display` printed:
        // "{name}[{tid}] {state:?} cnt={counter} pri={priority}".
        t.task_mut(sleeper).state = TaskState::Interruptible;
        t.task_mut(sleeper).counter = 7;
        assert_eq!(t.describe(sleeper), "sleeper[0] Interruptible cnt=7 pri=15");
        assert_eq!(t.describe(c), "client[101] Running cnt=20 pri=20");
    }

    /// Two readers drain at random, independent points of a random
    /// mutation stream, and a third never drains. Each drain must hand its
    /// reader exactly the slots touched since that reader's last drain,
    /// each once; a mirror each reader keeps from its drains alone must
    /// equal a full walk of the table; and the idle reader's log never
    /// holds more entries than the slab has slots.
    #[test]
    fn interleaved_readers_each_see_every_touched_slot_once() {
        use elsc_simcore::SimRng;
        use std::collections::BTreeSet;

        /// What a reader can know of a slot: its tenant and a field.
        fn look(t: &TaskTable, idx: usize) -> Option<(Tid, i32)> {
            t.slot(idx).map(|task| (task.tid, task.counter))
        }
        struct Reader {
            log: Option<LogReader>,
            touched: BTreeSet<u32>,
            mirror: Vec<Option<(Tid, i32)>>,
        }
        for seed in 0..6 {
            let mut rng = SimRng::new(0x2EAD_0000 + seed);
            let mut t = TaskTable::new();
            let mut live: Vec<Tid> = (0..8).map(|_| t.spawn(&TaskSpec::default())).collect();
            let mut readers: Vec<Reader> = (0..2)
                .map(|_| Reader {
                    log: None,
                    touched: BTreeSet::new(),
                    mirror: Vec::new(),
                })
                .collect();
            let idle = t.subscribe();
            for step in 0..4_000 {
                // Subscribe a reader late, at a random point.
                for r in readers.iter_mut().filter(|r| r.log.is_none()) {
                    if rng.chance(0.01) {
                        r.log = Some(t.subscribe());
                        let occupied = (0..t.slots.len()).filter(|&i| t.slots[i].occupied());
                        r.touched = occupied.map(|i| i as u32).collect();
                        r.mirror.clear();
                    }
                }
                let pick = live[rng.below(live.len() as u64) as usize];
                let touched: Vec<u32> = match rng.below(9) {
                    0 => {
                        let tid = t.spawn(&TaskSpec::default());
                        live.push(tid);
                        vec![tid.index() as u32]
                    }
                    1 if live.len() > 1 => {
                        t.free(pick);
                        live.retain(|&x| x != pick);
                        vec![pick.index() as u32]
                    }
                    2 => {
                        t.task_mut(pick).counter = rng.below(50) as i32;
                        vec![pick.index() as u32]
                    }
                    3 => {
                        let _ = t.get_mut(pick); // handed out, not written
                        vec![pick.index() as u32]
                    }
                    4 => {
                        t.by_index_mut(pick.index()).counter += 1;
                        vec![pick.index() as u32]
                    }
                    5 if rng.chance(0.2) => {
                        t.recalc_counters(false);
                        live.iter().map(|x| x.index() as u32).collect()
                    }
                    _ => {
                        let _ = (t.task(pick).counter, t.iter().count(), t.slot(pick.index()));
                        vec![]
                    }
                };
                for r in readers.iter_mut().filter(|r| r.log.is_some()) {
                    r.touched.extend(&touched);
                }
                for r in &mut readers {
                    let Some(log) = &r.log else { continue };
                    if !rng.chance(0.3) {
                        continue;
                    }
                    let mut out = Vec::new();
                    t.drain_touched(log, &mut out);
                    let once: BTreeSet<u32> = out.iter().copied().collect();
                    assert_eq!(
                        once.len(),
                        out.len(),
                        "seed {seed} step {step}: a slot twice"
                    );
                    assert_eq!(
                        once, r.touched,
                        "seed {seed} step {step}: the touched slots"
                    );
                    r.touched.clear();
                    for idx in out {
                        let idx = idx as usize;
                        if idx >= r.mirror.len() {
                            r.mirror.resize(idx + 1, None);
                        }
                        r.mirror[idx] = look(&t, idx);
                    }
                    let walk: Vec<_> = (0..r.mirror.len().max(t.slots.len()))
                        .map(|i| look(&t, i))
                        .collect();
                    r.mirror.resize(walk.len(), None);
                    assert_eq!(r.mirror, walk, "seed {seed} step {step}: mirror != walk");
                }
                assert!(
                    t.logs[idle.id as usize].len() <= t.slots.len(),
                    "seed {seed} step {step}: the idle reader's log outgrew the slab"
                );
            }
            assert!(readers.iter().all(|r| r.log.is_some()), "both subscribed");
        }
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
