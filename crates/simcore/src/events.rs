//! A deterministic discrete-event queue.
//!
//! Events are ordered by `(time, sequence)`: events scheduled for the same
//! virtual instant pop in the order they were pushed. This tie-breaking is
//! what makes whole-machine simulations bit-for-bit reproducible, which the
//! determinism property tests rely on.
//!
//! The queue is [`CalendarEventQueue`], a hierarchical calendar queue
//! (timing wheel): a sorted "spill" run holding the earliest events, a
//! ring of [`NR_BUCKETS`] unsorted buckets of [`BUCKET_CYCLES`] cycles
//! each covering the near horizon, and a `BTreeMap` overflow for events
//! beyond it. Pushes and pops are O(1) amortised regardless of how many
//! events are pending, which is what lets mega-scale sweeps (100k–1M
//! tasks) run at full speed. The tests of this module keep the original
//! binary heap as a reference model, drive both with identical randomized
//! traffic and demand identical pop streams.

use std::collections::BTreeMap;

use crate::clock::Cycles;

/// Log2 of the wheel bucket width: 2^16 = 65,536 cycles per bucket
/// (~0.16 ms at 400 MHz).
const BUCKET_SHIFT: u32 = 16;

/// Width of one wheel bucket in cycles.
pub const BUCKET_CYCLES: u64 = 1 << BUCKET_SHIFT;

/// Number of buckets in the wheel: the near horizon spans
/// `NR_BUCKETS * BUCKET_CYCLES` ≈ 16.8M cycles (~42 ms at 400 MHz), which
/// comfortably covers timer ticks and wakeup latencies; sleeps and
/// think-time events land in the far overflow.
pub const NR_BUCKETS: usize = 256;

/// An entry in the queue: payload plus its (time, seq) sort key.
struct Entry<E> {
    time: Cycles,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// The total order all implementations agree on.
    #[inline]
    fn key(&self) -> (Cycles, u64) {
        (self.time, self.seq)
    }
}

/// The event queue used by the machine model.
///
/// # Examples
///
/// ```
/// use elsc_simcore::{Cycles, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(Cycles(10), "late");
/// q.push(Cycles(5), "early");
/// q.push(Cycles(5), "early-second");
/// assert_eq!(q.pop(), Some((Cycles(5), "early")));
/// assert_eq!(q.pop(), Some((Cycles(5), "early-second")));
/// assert_eq!(q.pop(), Some((Cycles(10), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub type EventQueue<E> = CalendarEventQueue<E>;

/// A min-ordered event queue keyed by virtual time with FIFO tie-breaking,
/// implemented as a hierarchical calendar queue (timing wheel).
///
/// Three tiers, earliest to latest:
///
/// 1. `sorted` — the spill run: the contents of the last-drained bucket,
///    sorted *descending* by `(time, seq)` so pops are `Vec::pop` from the
///    end. Pushes at or before the wheel cursor (possible: the machine may
///    schedule an event for "now" while draining) binary-insert here.
/// 2. `wheel` — [`NR_BUCKETS`] unsorted buckets of [`BUCKET_CYCLES`]
///    cycles covering absolute bucket numbers
///    `[next_bucket, next_bucket + NR_BUCKETS)`. A push inside the horizon
///    is an O(1) `Vec::push`; a bucket is sorted only once, when the
///    cursor reaches it.
/// 3. `far` — everything beyond the horizon, keyed `(time, seq)` in a
///    `BTreeMap`; migrated into the wheel lazily as the cursor advances.
///
/// Every pop returns the globally earliest `(time, seq)` key, so the pop
/// stream is a binary heap's for any push sequence.
pub struct CalendarEventQueue<E> {
    /// Earliest events, descending by key; popped from the end.
    sorted: Vec<Entry<E>>,
    /// The near-horizon ring; slot `b % NR_BUCKETS` holds bucket `b`.
    wheel: Vec<Vec<Entry<E>>>,
    /// Events currently in the wheel.
    in_wheel: usize,
    /// Absolute bucket number of the wheel cursor: all buckets below it
    /// have been drained into `sorted`.
    next_bucket: u64,
    /// Events beyond the wheel horizon.
    far: BTreeMap<(u64, u64), E>,
    seq: u64,
    pushed: u64,
    popped: u64,
}

impl<E> Default for CalendarEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn bucket_of(time: Cycles) -> u64 {
    time.0 >> BUCKET_SHIFT
}

impl<E> CalendarEventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CalendarEventQueue {
            sorted: Vec::new(),
            wheel: (0..NR_BUCKETS).map(|_| Vec::new()).collect(),
            in_wheel: 0,
            next_bucket: 0,
            far: BTreeMap::new(),
            seq: 0,
            pushed: 0,
            popped: 0,
        }
    }

    /// Schedules `event` at virtual time `time`.
    ///
    /// Pushing an event in the past relative to already-popped events is
    /// not detected here; the machine model guards against it because a
    /// time-travelling event would corrupt causality silently.
    pub fn push(&mut self, time: Cycles, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.pushed += 1;
        self.insert(Entry { time, seq, event });
    }

    /// Places an entry in the tier its time belongs to. The FIFO contract
    /// is carried entirely by the `(time, seq)` key, so placement never
    /// reorders anything.
    fn insert(&mut self, e: Entry<E>) {
        let b = bucket_of(e.time);
        if b < self.next_bucket {
            // At or before the cursor. Everything in `sorted` came from
            // buckets below `next_bucket` too, so a binary insert keeps the
            // run exactly ordered (a later push always has a larger seq,
            // so equal keys cannot occur).
            let pos = self.sorted.partition_point(|x| x.key() > e.key());
            self.sorted.insert(pos, e);
        } else if b < self.next_bucket + NR_BUCKETS as u64 {
            self.wheel[(b % NR_BUCKETS as u64) as usize].push(e);
            self.in_wheel += 1;
        } else {
            self.far.insert((e.time.0, e.seq), e.event);
        }
    }

    /// Moves far-overflow events that now fall inside the wheel horizon
    /// into their buckets. Call whenever `next_bucket` has advanced.
    fn migrate_far(&mut self) {
        let horizon = self.next_bucket + NR_BUCKETS as u64;
        let in_window = |t: u64| (t >> BUCKET_SHIFT) < horizon;
        if !self
            .far
            .first_key_value()
            .is_some_and(|(&(t, _), _)| in_window(t))
        {
            return;
        }
        let boundary = horizon
            .checked_shl(BUCKET_SHIFT)
            .expect("event time beyond representable horizon");
        let rest = self.far.split_off(&(boundary, 0));
        for ((t, seq), event) in std::mem::replace(&mut self.far, rest) {
            self.wheel[((t >> BUCKET_SHIFT) % NR_BUCKETS as u64) as usize].push(Entry {
                time: Cycles(t),
                seq,
                event,
            });
            self.in_wheel += 1;
        }
    }

    /// Refills the empty spill run from the wheel (and the wheel from the
    /// far overflow), advancing the cursor to the next populated bucket.
    fn refill(&mut self) {
        debug_assert!(self.sorted.is_empty());
        if self.in_wheel == 0 {
            // Jump the cursor straight to the first far bucket; far keys
            // are always at or beyond the cursor (see `migrate_far`).
            match self.far.first_key_value() {
                Some((&(t, _), _)) => self.next_bucket = t >> BUCKET_SHIFT,
                None => return,
            }
        }
        self.migrate_far();
        loop {
            let slot = (self.next_bucket % NR_BUCKETS as u64) as usize;
            self.next_bucket += 1;
            if !self.wheel[slot].is_empty() {
                let mut bucket = std::mem::take(&mut self.wheel[slot]);
                self.in_wheel -= bucket.len();
                // Descending, so popping from the end walks the keys in
                // ascending `(time, seq)` order.
                bucket.sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
                self.sorted = bucket;
                return;
            }
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        if self.sorted.is_empty() {
            self.refill();
        }
        let e = self.sorted.pop()?;
        self.popped += 1;
        Some((e.time, e.event))
    }

    /// Returns the time of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<Cycles> {
        if let Some(e) = self.sorted.last() {
            return Some(e.time);
        }
        let far_min = self.far.first_key_value().map(|(&(t, _), _)| Cycles(t));
        if self.in_wheel == 0 {
            return far_min;
        }
        for step in 0..NR_BUCKETS as u64 {
            let slot = &self.wheel[((self.next_bucket + step) % NR_BUCKETS as u64) as usize];
            if let Some(wheel_min) = slot.iter().map(|e| e.time).min() {
                // A pending far migration can hold an earlier bucket than
                // the first populated wheel slot; take the true minimum.
                return Some(match far_min {
                    Some(f) if f < wheel_min => f,
                    _ => wheel_min,
                });
            }
        }
        unreachable!("in_wheel > 0 but every wheel slot is empty")
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.sorted.len() + self.in_wheel + self.far.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events pushed over the queue's lifetime (for reports).
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Total events popped over the queue's lifetime (for reports).
    pub fn total_popped(&self) -> u64 {
        self.popped
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.sorted.clear();
        for slot in &mut self.wheel {
            slot.clear();
        }
        self.in_wheel = 0;
        self.far.clear();
        self.next_bucket = 0;
    }

    /// Moves every pending event `delta` cycles later, preserving the
    /// FIFO tie-break: sequence numbers are untouched and all keys shift
    /// together, so the pop order is exactly the old order, delayed.
    ///
    /// This models a whole-machine stall (a virtualisation pause, an
    /// SMI): nothing is lost, everything simply happens later. Lifetime
    /// counters are unaffected.
    pub fn shift_pending(&mut self, delta: u64) {
        if delta == 0 || self.is_empty() {
            return;
        }
        let mut all: Vec<Entry<E>> = Vec::with_capacity(self.len());
        all.append(&mut self.sorted);
        for slot in &mut self.wheel {
            all.append(slot);
        }
        self.in_wheel = 0;
        for ((t, seq), event) in std::mem::take(&mut self.far) {
            all.push(Entry {
                time: Cycles(t),
                seq,
                event,
            });
        }
        let min_time = all.iter().map(|e| e.time.0).min().unwrap() + delta;
        self.next_bucket = min_time >> BUCKET_SHIFT;
        for mut e in all {
            e.time += delta;
            self.insert(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use core::cmp::{Ordering, Reverse};
    use std::collections::BinaryHeap;

    use super::*;
    use crate::rng::SimRng;

    // Only the key participates in ordering; payloads need not be Ord.
    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.key() == other.key()
        }
    }

    impl<E> Eq for Entry<E> {}

    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            self.key().cmp(&other.key())
        }
    }

    /// The original `BinaryHeap` implementation, kept as the executable
    /// reference for the calendar queue: same `(time, seq)` FIFO contract,
    /// O(log n) operations. The differential test below proves the two
    /// produce identical pop streams.
    struct HeapEventQueue<E> {
        heap: BinaryHeap<Reverse<Entry<E>>>,
        seq: u64,
        pushed: u64,
        popped: u64,
    }

    impl<E> HeapEventQueue<E> {
        fn new() -> Self {
            HeapEventQueue {
                heap: BinaryHeap::new(),
                seq: 0,
                pushed: 0,
                popped: 0,
            }
        }

        fn push(&mut self, time: Cycles, event: E) {
            let seq = self.seq;
            self.seq += 1;
            self.pushed += 1;
            self.heap.push(Reverse(Entry { time, seq, event }));
        }

        fn pop(&mut self) -> Option<(Cycles, E)> {
            let Reverse(e) = self.heap.pop()?;
            self.popped += 1;
            Some((e.time, e.event))
        }

        fn peek_time(&self) -> Option<Cycles> {
            self.heap.peek().map(|Reverse(e)| e.time)
        }

        fn len(&self) -> usize {
            self.heap.len()
        }

        fn total_pushed(&self) -> u64 {
            self.pushed
        }

        fn total_popped(&self) -> u64 {
            self.popped
        }

        /// See [`CalendarEventQueue::shift_pending`].
        fn shift_pending(&mut self, delta: u64) {
            let entries = std::mem::take(&mut self.heap).into_vec();
            self.heap = entries
                .into_iter()
                .map(|Reverse(mut e)| {
                    e.time += delta;
                    Reverse(e)
                })
                .collect();
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Cycles(30), 3);
        q.push(Cycles(10), 1);
        q.push(Cycles(20), 2);
        assert_eq!(q.pop(), Some((Cycles(10), 1)));
        assert_eq!(q.pop(), Some((Cycles(20), 2)));
        assert_eq!(q.pop(), Some((Cycles(30), 3)));
        assert!(q.is_empty());
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Cycles(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycles(7), i)));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(Cycles(5), ());
        assert_eq!(q.peek_time(), Some(Cycles(5)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((Cycles(5), ())));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(Cycles(10), "a");
        q.push(Cycles(5), "b");
        assert_eq!(q.pop(), Some((Cycles(5), "b")));
        q.push(Cycles(7), "c");
        q.push(Cycles(7), "d");
        assert_eq!(q.pop(), Some((Cycles(7), "c")));
        assert_eq!(q.pop(), Some((Cycles(7), "d")));
        assert_eq!(q.pop(), Some((Cycles(10), "a")));
    }

    #[test]
    fn counters_track_traffic() {
        let mut q = EventQueue::new();
        q.push(Cycles(1), ());
        q.push(Cycles(2), ());
        q.pop();
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.total_popped(), 1);
        q.clear();
        assert!(q.is_empty());
        // Clear drops pending events but preserves lifetime counters.
        assert_eq!(q.total_pushed(), 2);
    }

    #[test]
    fn shift_pending_delays_everything_in_order() {
        let mut q = EventQueue::new();
        q.push(Cycles(10), "a");
        q.push(Cycles(10), "b"); // same instant: FIFO must survive
        q.push(Cycles(30), "c");
        q.shift_pending(5);
        assert_eq!(q.pop(), Some((Cycles(15), "a")));
        assert_eq!(q.pop(), Some((Cycles(15), "b")));
        assert_eq!(q.pop(), Some((Cycles(35), "c")));
        // Events pushed after a shift interleave normally.
        q.push(Cycles(40), "d");
        q.push(Cycles(38), "e");
        q.shift_pending(0); // no-op
        assert_eq!(q.pop(), Some((Cycles(38), "e")));
        assert_eq!(q.pop(), Some((Cycles(40), "d")));
    }

    #[test]
    fn shift_pending_keeps_counters() {
        let mut q = EventQueue::new();
        q.push(Cycles(1), ());
        q.shift_pending(100);
        assert_eq!(q.total_pushed(), 1);
        assert_eq!(q.total_popped(), 0);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn payload_need_not_be_ord() {
        // f64 is not Ord; ordering must come solely from the key.
        let mut q = EventQueue::new();
        q.push(Cycles(2), 2.0f64);
        q.push(Cycles(1), 1.0f64);
        assert_eq!(q.pop().unwrap().1, 1.0);
    }

    #[test]
    fn far_horizon_events_pop_in_order() {
        // Spans all three calendar tiers: spill, wheel, far overflow.
        let mut q = CalendarEventQueue::new();
        let far = NR_BUCKETS as u64 * BUCKET_CYCLES * 3;
        q.push(Cycles(far), "far");
        q.push(Cycles(BUCKET_CYCLES + 1), "wheel");
        q.push(Cycles(far), "far-second");
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(Cycles(BUCKET_CYCLES + 1)));
        assert_eq!(q.pop(), Some((Cycles(BUCKET_CYCLES + 1), "wheel")));
        // A "past" push after the cursor advanced must still pop first.
        q.push(Cycles(7), "past");
        assert_eq!(q.peek_time(), Some(Cycles(7)));
        assert_eq!(q.pop(), Some((Cycles(7), "past")));
        assert_eq!(q.pop(), Some((Cycles(far), "far")));
        assert_eq!(q.pop(), Some((Cycles(far), "far-second")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn heap_reference_agrees_on_basics() {
        let mut q = HeapEventQueue::new();
        q.push(Cycles(9), "b");
        q.push(Cycles(9), "c");
        q.push(Cycles(1), "a");
        assert_eq!(q.peek_time(), Some(Cycles(1)));
        assert_eq!(q.pop(), Some((Cycles(1), "a")));
        assert_eq!(q.pop(), Some((Cycles(9), "b")));
        assert_eq!(q.pop(), Some((Cycles(9), "c")));
        assert_eq!(q.total_pushed(), 3);
        assert_eq!(q.total_popped(), 3);
    }

    /// Satellite: the FIFO tie-break must survive a million pushes at the
    /// same instant (one maximally overloaded calendar bucket).
    #[test]
    fn fifo_tie_break_under_one_million_same_time_pushes() {
        const N: u32 = 1_000_000;
        let mut q = EventQueue::new();
        for i in 0..N {
            q.push(Cycles(42), i);
        }
        assert_eq!(q.len(), N as usize);
        for i in 0..N {
            let (t, v) = q.pop().expect("queue drained early");
            assert_eq!(t, Cycles(42));
            assert_eq!(v, i, "FIFO order broken at element {i}");
        }
        assert!(q.is_empty());
        assert_eq!(q.total_popped(), u64::from(N));
    }

    /// Satellite: calendar-vs-heap equivalence on randomized seeded
    /// push/pop/shift sequences mixing near, far, and past times.
    #[test]
    fn calendar_matches_heap_on_random_sequences() {
        for seed in 0..8u64 {
            let mut rng = SimRng::new(0xD1FF ^ seed);
            let mut cal = CalendarEventQueue::new();
            let mut heap = HeapEventQueue::new();
            let mut now = 0u64;
            for step in 0..20_000u64 {
                match rng.next_u64() % 10 {
                    // Pops (biased so the queues drain and the cursor moves).
                    0..=3 => {
                        let a = cal.pop();
                        let b = heap.pop();
                        assert_eq!(a, b, "seed {seed} step {step}: pop diverged");
                        if let Some((t, _)) = a {
                            now = now.max(t.0);
                        }
                    }
                    // Near pushes: same tick, within the wheel.
                    4..=6 => {
                        let t = now + rng.next_u64() % (4 * BUCKET_CYCLES);
                        cal.push(Cycles(t), step);
                        heap.push(Cycles(t), step);
                    }
                    // Same-instant pushes: exercise the FIFO tie-break.
                    7 => {
                        for _ in 0..3 {
                            cal.push(Cycles(now), step);
                            heap.push(Cycles(now), step);
                        }
                    }
                    // Far pushes: beyond the wheel horizon.
                    8 => {
                        let t =
                            now + NR_BUCKETS as u64 * BUCKET_CYCLES + rng.next_u64() % (1 << 30);
                        cal.push(Cycles(t), step);
                        heap.push(Cycles(t), step);
                    }
                    // Whole-machine stall.
                    _ => {
                        let d = rng.next_u64() % (2 * BUCKET_CYCLES);
                        cal.shift_pending(d);
                        heap.shift_pending(d);
                    }
                }
                assert_eq!(cal.len(), heap.len(), "seed {seed} step {step}");
                assert_eq!(cal.peek_time(), heap.peek_time(), "seed {seed} step {step}");
            }
            // Drain both to the end.
            loop {
                let (a, b) = (cal.pop(), heap.pop());
                assert_eq!(a, b, "seed {seed} drain diverged");
                if a.is_none() {
                    break;
                }
            }
            assert_eq!(cal.total_pushed(), heap.total_pushed());
            assert_eq!(cal.total_popped(), heap.total_popped());
        }
    }
}
