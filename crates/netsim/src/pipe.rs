//! Bounded blocking message pipes.
//!
//! # The change log
//!
//! A reader that wants to know which pipes changed between two points
//! (the cluster federation, between one exchange barrier and the next)
//! does not have to visit every pipe. It [`watch`](PipeTable::watch)es the
//! pipes it cares about, each under a token of its choosing; the first
//! time [`pipe_mut`](PipeTable::pipe_mut) — the only path to a `&mut
//! Pipe`, since the table is private — hands out an *armed* watched pipe,
//! the table logs the token and disarms the pipe, and
//! [`drain_touched`](PipeTable::drain_touched) hands the logged tokens
//! over. A drained pipe stays disarmed until the reader
//! [`rearm`](PipeTable::rearm)s it, so the reader's own accesses while it
//! handles the pipe are not logged back to it. The log is conservative: a
//! pipe handed out mutably is logged whether or not the caller changed it.
//!
//! An unwatched pipe costs `pipe_mut` one never-taken branch on a flag in
//! the pipe it hands out, and a table nobody watches allocates nothing
//! for the log.

use std::collections::VecDeque;

use elsc_ktask::{Tid, WaitQueue};

/// A message travelling through a pipe.
///
/// Payload contents never matter to the scheduler; the fields exist so
/// workloads can label and size their traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Msg {
    /// Message size in bytes (drives copy costs in workload models).
    pub len: u32,
    /// Free-form tag (e.g. sender id, sequence number).
    pub tag: u64,
}

impl Msg {
    /// A small fixed-size message with the given tag.
    pub fn tagged(tag: u64) -> Msg {
        Msg { len: 64, tag }
    }
}

/// Identifier of a pipe in a [`PipeTable`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct PipeId(pub u32);

/// Errors from pipe operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipeError {
    /// The operation would block (queue empty on read / full on write).
    WouldBlock,
    /// The other end has been closed and the queue is drained.
    Closed,
}

/// One direction of a connection: a bounded FIFO of messages plus the
/// wait queues of blocked readers and writers.
#[derive(Debug)]
pub struct Pipe {
    queue: VecDeque<Msg>,
    /// Tasks blocked in `read()`.
    pub readers: WaitQueue,
    /// Tasks blocked in `write()`.
    pub writers: WaitQueue,
    total_read: u64,
    capacity: u32,
    closed: bool,
    /// Whether the table's change log follows this pipe.
    watched: bool,
    /// Watched, and not logged since it was last armed.
    armed: bool,
    /// What the change log reports for this pipe.
    token: u32,
}

// A large machine has tens of thousands of pipes. Each wait queue holds
// one waiter inline, the capacity is a `u32`, the lifetime write count is
// derived (`total_read + len`), and the change-log fields share the
// capacity's word.
const _: () = assert!(core::mem::size_of::<Pipe>() <= 88);

impl Pipe {
    /// Creates a pipe holding at most `capacity` messages. The queue
    /// allocates on the first message, not here: most pipes never hold
    /// more than a few at once, and a large machine has tens of
    /// thousands of them.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` (a zero-capacity pipe can never move a
    /// message under blocking semantics without a rendezvous model).
    pub fn new(capacity: usize) -> Pipe {
        assert!(capacity > 0, "pipe capacity must be positive");
        Pipe {
            queue: VecDeque::new(),
            readers: WaitQueue::new(),
            writers: WaitQueue::new(),
            total_read: 0,
            // No queue reaches 2^32 messages (64 GiB of them), so a larger
            // capacity behaves as this one.
            capacity: u32::try_from(capacity).unwrap_or(u32::MAX),
            closed: false,
            watched: false,
            armed: false,
            token: 0,
        }
    }

    /// Attempts to enqueue a message. On success returns the reader to
    /// wake (if one was blocked).
    pub fn try_write(&mut self, msg: Msg) -> Result<Option<Tid>, PipeError> {
        if self.closed {
            return Err(PipeError::Closed);
        }
        if self.is_full() {
            return Err(PipeError::WouldBlock);
        }
        self.queue.push_back(msg);
        Ok(self.readers.wake_one())
    }

    /// Attempts to dequeue a message. On success returns the message and
    /// the writer to wake (if one was blocked on a full queue).
    pub fn try_read(&mut self) -> Result<(Msg, Option<Tid>), PipeError> {
        match self.queue.pop_front() {
            Some(msg) => {
                self.total_read += 1;
                Ok((msg, self.writers.wake_one()))
            }
            None => {
                if self.closed {
                    Err(PipeError::Closed)
                } else {
                    Err(PipeError::WouldBlock)
                }
            }
        }
    }

    /// Enqueues a message arriving from *outside* the machine — a NIC
    /// delivering an inter-node segment. Capacity is ignored: the wire
    /// already applied its own backpressure (see the cluster link
    /// model), and a NIC does not consult socket buffers before DMA.
    /// On success returns the reader to wake, as [`Pipe::try_write`]
    /// does; fails only if the pipe is closed (the segment is dropped,
    /// like data arriving for a dead socket).
    pub fn deliver(&mut self, msg: Msg) -> Result<Option<Tid>, PipeError> {
        if self.closed {
            return Err(PipeError::Closed);
        }
        self.queue.push_back(msg);
        Ok(self.readers.wake_one())
    }

    /// Closes the pipe: subsequent writes fail, reads drain then fail.
    /// Returns every task that was blocked on it (they must be woken to
    /// observe the close).
    pub fn close(&mut self) -> Vec<Tid> {
        self.closed = true;
        let mut woken = self.readers.wake_all();
        woken.extend(self.writers.wake_all());
        woken
    }

    /// Messages currently queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Whether the queue is at capacity.
    pub fn is_full(&self) -> bool {
        self.queue.len() >= self.capacity as usize
    }

    /// Whether the pipe has been closed.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Lifetime messages written: every one was read or is still queued
    /// (nothing else takes a message out).
    pub fn total_written(&self) -> u64 {
        self.total_read + self.queue.len() as u64
    }

    /// Lifetime messages read.
    pub fn total_read(&self) -> u64 {
        self.total_read
    }
}

/// All pipes in the simulated machine.
#[derive(Debug, Default)]
pub struct PipeTable {
    pipes: Vec<Pipe>,
    /// Tokens of the watched pipes logged since the last drain, in
    /// first-touch order. A logged pipe is unarmed, so each is here once.
    touched: Vec<u32>,
}

impl PipeTable {
    /// Creates an empty table.
    pub fn new() -> PipeTable {
        PipeTable::default()
    }

    /// Makes room for `additional` more pipes without growing the table
    /// again. A capacity hint only: it creates nothing.
    pub fn reserve(&mut self, additional: usize) {
        self.pipes.reserve_exact(additional);
    }

    /// Creates a pipe and returns its id.
    pub fn create(&mut self, capacity: usize) -> PipeId {
        let id = PipeId(u32::try_from(self.pipes.len()).expect("pipe table overflow"));
        self.pipes.push(Pipe::new(capacity));
        id
    }

    /// Access a pipe.
    ///
    /// # Panics
    ///
    /// Panics on an invalid id (ids are never reused, so this is a bug).
    pub fn pipe(&self, id: PipeId) -> &Pipe {
        &self.pipes[id.0 as usize]
    }

    /// Mutable access to a pipe. An armed watched pipe is
    /// [logged](self#the-change-log) and disarmed on the way out.
    ///
    /// # Panics
    ///
    /// Panics on an invalid id.
    #[inline]
    pub fn pipe_mut(&mut self, id: PipeId) -> &mut Pipe {
        let pipe = &mut self.pipes[id.0 as usize];
        if pipe.armed {
            pipe.armed = false;
            self.touched.push(pipe.token);
        }
        pipe
    }

    /// Puts pipe `id` under the [change log](self#the-change-log): from
    /// now on its next mutable access logs `token`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid id.
    pub fn watch(&mut self, id: PipeId, token: u32) {
        let pipe = &mut self.pipes[id.0 as usize];
        pipe.watched = true;
        pipe.armed = true;
        pipe.token = token;
    }

    /// Arms a watched pipe again after its token was drained, so its next
    /// mutable access is logged. Does nothing to an unwatched pipe.
    ///
    /// # Panics
    ///
    /// Panics on an invalid id.
    pub fn rearm(&mut self, id: PipeId) {
        let pipe = &mut self.pipes[id.0 as usize];
        pipe.armed = pipe.watched;
    }

    /// Drains the [change log](self#the-change-log): appends to `out`, in
    /// first-touch order, the token of every watched pipe handed out
    /// mutably since it was last armed, each once. The drained pipes stay
    /// disarmed until [`rearm`](PipeTable::rearm)ed.
    pub fn drain_touched(&mut self, out: &mut Vec<u32>) {
        out.append(&mut self.touched);
    }

    /// Number of pipes created.
    pub fn len(&self) -> usize {
        self.pipes.len()
    }

    /// Whether no pipes exist.
    pub fn is_empty(&self) -> bool {
        self.pipes.is_empty()
    }

    /// Total messages delivered (read) across all pipes.
    pub fn total_read(&self) -> u64 {
        self.pipes.iter().map(|p| p.total_read()).sum()
    }

    /// Total messages still in flight (conservation checks).
    pub fn total_queued(&self) -> usize {
        self.pipes.iter().map(|p| p.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(i: u32) -> Tid {
        Tid::from_raw(i, 0)
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut p = Pipe::new(4);
        assert_eq!(p.try_write(Msg::tagged(7)), Ok(None));
        let (msg, waker) = p.try_read().unwrap();
        assert_eq!(msg.tag, 7);
        assert_eq!(waker, None);
        assert_eq!(p.total_written(), 1);
        assert_eq!(p.total_read(), 1);
    }

    #[test]
    fn read_empty_would_block() {
        let mut p = Pipe::new(1);
        assert_eq!(p.try_read().unwrap_err(), PipeError::WouldBlock);
    }

    #[test]
    fn write_full_would_block() {
        let mut p = Pipe::new(2);
        p.try_write(Msg::tagged(1)).unwrap();
        p.try_write(Msg::tagged(2)).unwrap();
        assert!(p.is_full());
        assert_eq!(
            p.try_write(Msg::tagged(3)).unwrap_err(),
            PipeError::WouldBlock
        );
    }

    #[test]
    fn write_wakes_blocked_reader() {
        let mut p = Pipe::new(1);
        p.readers.park(tid(5));
        assert_eq!(p.try_write(Msg::tagged(1)), Ok(Some(tid(5))));
    }

    #[test]
    fn read_wakes_blocked_writer() {
        let mut p = Pipe::new(1);
        p.try_write(Msg::tagged(1)).unwrap();
        p.writers.park(tid(9));
        let (_, waker) = p.try_read().unwrap();
        assert_eq!(waker, Some(tid(9)));
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut p = Pipe::new(8);
        for i in 0..5 {
            p.try_write(Msg::tagged(i)).unwrap();
        }
        for i in 0..5 {
            assert_eq!(p.try_read().unwrap().0.tag, i);
        }
    }

    #[test]
    fn close_wakes_everyone_and_fails_ops() {
        let mut p = Pipe::new(1);
        p.try_write(Msg::tagged(1)).unwrap();
        p.readers.park(tid(1));
        p.writers.park(tid(2));
        let woken = p.close();
        assert_eq!(woken, vec![tid(1), tid(2)]);
        assert_eq!(p.try_write(Msg::tagged(2)).unwrap_err(), PipeError::Closed);
        // Draining reads still succeed, then fail with Closed.
        assert!(p.try_read().is_ok());
        assert_eq!(p.try_read().unwrap_err(), PipeError::Closed);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        Pipe::new(0);
    }

    #[test]
    fn deliver_ignores_capacity_and_wakes_a_reader() {
        let mut p = Pipe::new(1);
        p.try_write(Msg::tagged(1)).unwrap();
        assert!(p.is_full());
        // A NIC delivery lands even on a full socket buffer.
        assert_eq!(p.deliver(Msg::tagged(2)), Ok(None));
        assert_eq!(p.len(), 2);
        p.readers.park(tid(3));
        assert_eq!(p.deliver(Msg::tagged(3)), Ok(Some(tid(3))));
        assert_eq!(p.total_written(), 3);
        // FIFO with locally written messages.
        assert_eq!(p.try_read().unwrap().0.tag, 1);
        assert_eq!(p.try_read().unwrap().0.tag, 2);
    }

    #[test]
    fn deliver_to_closed_pipe_drops_the_segment() {
        let mut p = Pipe::new(1);
        p.close();
        assert_eq!(p.deliver(Msg::tagged(1)).unwrap_err(), PipeError::Closed);
        assert!(p.is_empty());
        assert_eq!(p.total_written(), 0);
    }

    #[test]
    fn a_pipe_allocates_on_its_first_message_and_keeps_its_bounds() {
        let mut p = Pipe::new(3);
        assert_eq!(p.queue.capacity(), 0, "a new pipe owns no buffer");
        // The bound is `capacity`, not what the buffer happens to hold.
        for i in 0..3 {
            p.try_write(Msg::tagged(i)).unwrap();
        }
        assert!(p.is_full());
        assert_eq!(
            p.try_write(Msg::tagged(99)).unwrap_err(),
            PipeError::WouldBlock
        );
        // A NIC delivery still goes past it, growing the buffer.
        for i in 3..9 {
            p.deliver(Msg::tagged(i)).unwrap();
        }
        assert_eq!(p.len(), 9);
        // FIFO across growth and wrap-around: drain some, refill past the
        // front of the buffer, grow again, then read everything back.
        let mut next = 0;
        for _ in 0..5 {
            assert_eq!(p.try_read().unwrap().0.tag, next);
            next += 1;
        }
        for i in 9..40 {
            p.deliver(Msg::tagged(i)).unwrap();
        }
        while let Ok((msg, _)) = p.try_read() {
            assert_eq!(msg.tag, next);
            next += 1;
        }
        assert_eq!(next, 40);
        assert_eq!((p.total_written(), p.total_read()), (40, 40));
    }

    #[test]
    fn a_reserved_table_creates_without_growing() {
        let mut t = PipeTable::new();
        t.reserve(100);
        let cap = t.pipes.capacity();
        assert!(cap >= 100);
        for _ in 0..100 {
            t.create(16);
        }
        assert_eq!(t.pipes.capacity(), cap, "sized once");
        assert_eq!(t.len(), 100, "a hint creates nothing by itself");
    }

    #[test]
    fn table_creates_distinct_pipes() {
        let mut t = PipeTable::new();
        let a = t.create(1);
        let b = t.create(2);
        assert_ne!(a, b);
        t.pipe_mut(a).try_write(Msg::tagged(1)).unwrap();
        assert_eq!(t.pipe(a).len(), 1);
        assert_eq!(t.pipe(b).len(), 0);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn table_aggregates() {
        let mut t = PipeTable::new();
        let a = t.create(4);
        let b = t.create(4);
        t.pipe_mut(a).try_write(Msg::tagged(1)).unwrap();
        t.pipe_mut(a).try_write(Msg::tagged(2)).unwrap();
        t.pipe_mut(b).try_write(Msg::tagged(3)).unwrap();
        t.pipe_mut(a).try_read().unwrap();
        assert_eq!(t.total_read(), 1);
        assert_eq!(t.total_queued(), 2);
    }

    /// Drains the log into a fresh vector.
    fn drained(t: &mut PipeTable) -> Vec<u32> {
        let mut out = Vec::new();
        t.drain_touched(&mut out);
        out
    }

    #[test]
    fn an_unwatched_table_logs_nothing() {
        let mut t = PipeTable::new();
        let ids: Vec<PipeId> = (0..8).map(|_| t.create(2)).collect();
        for &id in &ids {
            t.pipe_mut(id).try_write(Msg::tagged(1)).unwrap();
            t.pipe_mut(id).readers.park(tid(1));
            t.pipe_mut(id).try_read().unwrap();
            t.pipe_mut(id).close();
        }
        t.rearm(ids[0]);
        t.pipe_mut(ids[0]).try_write(Msg::tagged(2)).unwrap_err();
        assert!(
            t.pipes.iter().all(|p| !p.watched && !p.armed),
            "nothing armed"
        );
        assert_eq!(t.touched.capacity(), 0, "no memory without a reader");
        assert_eq!(drained(&mut t), []);
    }

    #[test]
    fn a_watched_pipe_is_reported_once_per_drain() {
        let mut t = PipeTable::new();
        let quiet = t.create(2);
        let busy = t.create(2);
        t.watch(quiet, 10);
        t.watch(busy, 11);
        // Immutable access is not logged.
        let _ = (
            t.pipe(quiet).len(),
            t.pipe(busy).is_closed(),
            t.total_queued(),
        );
        assert_eq!(drained(&mut t), []);
        // However many writes, parks and unparks touch it, once.
        t.pipe_mut(busy).try_write(Msg::tagged(1)).unwrap();
        t.pipe_mut(busy).writers.park(tid(2));
        t.pipe_mut(busy).writers.unpark(tid(2));
        t.pipe_mut(busy).readers.park(tid(3));
        t.pipe_mut(busy).try_write(Msg::tagged(2)).unwrap();
        assert_eq!(drained(&mut t), [11]);
        // Disarmed until re-armed: later touches stay out of the log.
        t.pipe_mut(busy).try_read().unwrap();
        assert_eq!(drained(&mut t), [], "already handed over");
        // A re-armed pipe is logged again on its next write.
        t.rearm(busy);
        assert_eq!(drained(&mut t), [], "re-arming logs nothing");
        t.pipe_mut(busy).try_write(Msg::tagged(3)).unwrap();
        t.pipe_mut(quiet).readers.park(tid(4));
        assert_eq!(drained(&mut t), [11, 10], "first-touch order");
        assert!(t.touched.capacity() > 0, "the log keeps its buffer");
    }

    #[test]
    fn every_mutating_pipe_op_is_logged() {
        /// (name, fill the pipe before watching it, the op)
        type Case = (&'static str, bool, fn(&mut Pipe));
        let ops: [Case; 4] = [
            ("try_write", false, |p| {
                assert_eq!(p.try_write(Msg::tagged(1)), Ok(None));
            }),
            ("close", false, |p| assert!(p.close().is_empty())),
            ("deliver", false, |p| {
                assert_eq!(p.deliver(Msg::tagged(1)), Ok(None));
            }),
            ("would-block write", true, |p| {
                let full = p.try_write(Msg::tagged(2));
                assert_eq!(full.unwrap_err(), PipeError::WouldBlock);
            }),
        ];
        for (name, fill, op) in ops {
            let mut t = PipeTable::new();
            let id = t.create(1);
            if fill {
                t.pipe_mut(id).try_write(Msg::tagged(0)).unwrap();
            }
            t.watch(id, 7);
            assert_eq!(drained(&mut t), [], "{name}: watching logs nothing");
            op(t.pipe_mut(id));
            assert_eq!(drained(&mut t), [7], "{name}");
            // With the token drained and the pipe re-armed, the same op
            // (or any other access) is logged again.
            t.rearm(id);
            let _ = t.pipe_mut(id).try_write(Msg::tagged(9));
            assert_eq!(drained(&mut t), [7], "{name}: re-armed");
        }
    }
}
