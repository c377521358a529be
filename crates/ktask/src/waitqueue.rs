//! Wait queues: where blocked tasks sleep.
//!
//! The socket substrate parks readers and writers here; waking returns the
//! handles so the machine model can run `wake_up_process()` on them. FIFO
//! order matches `wake_up` semantics for exclusive waiters in the kernel.

use std::collections::VecDeque;

use crate::tid::Tid;

/// A FIFO queue of blocked tasks.
///
/// Most queues never hold more than one waiter at a time — a pipe's one
/// reader, or its one writer — so that waiter is stored inline and the
/// queue goes to the heap only when a second task parks. A queue that has
/// gone to the heap keeps its buffer when it empties, so a queue that is
/// contended once allocates once.
#[derive(Clone, Debug, Default)]
pub struct WaitQueue {
    q: Waiters,
}

/// A [`WaitQueue`]'s storage: no waiter, one inline, or (once a second
/// task has parked) a heap queue, which is kept from then on.
#[derive(Clone, Debug, Default)]
enum Waiters {
    #[default]
    Empty,
    One(Tid),
    Many(Box<Spilled>),
}

/// The heap form of a queue. Behind one thin pointer, so the inline form,
/// which most queues never leave, stays 16 bytes.
#[derive(Clone, Debug)]
struct Spilled(VecDeque<Tid>);

// Two per pipe, and a large machine has tens of thousands of pipes.
const _: () = assert!(core::mem::size_of::<WaitQueue>() <= 16);

impl WaitQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        WaitQueue::default()
    }

    /// Parks `tid` at the back of the queue.
    ///
    /// Idempotent, mirroring `prepare_to_wait()`: a task that was woken
    /// spuriously (made runnable *without* being removed from the queue),
    /// re-checked its condition, and blocks again keeps its original
    /// position instead of being enqueued twice. Found by chaos testing:
    /// a `spurious_wakeup` fault aimed at a parked pipe reader made the
    /// retry path double-park the task.
    pub fn park(&mut self, tid: Tid) {
        match self.q {
            Waiters::Empty => self.q = Waiters::One(tid),
            Waiters::One(first) if first != tid => {
                self.q = Waiters::Many(Box::new(Spilled(VecDeque::from([first, tid]))));
            }
            Waiters::One(_) => {}
            Waiters::Many(ref mut q) => {
                if !q.0.contains(&tid) {
                    q.0.push_back(tid);
                }
            }
        }
    }

    /// Removes and returns the longest-waiting task (`wake_one`).
    pub fn wake_one(&mut self) -> Option<Tid> {
        match self.q {
            Waiters::Empty => None,
            Waiters::One(tid) => {
                self.q = Waiters::Empty;
                Some(tid)
            }
            Waiters::Many(ref mut q) => q.0.pop_front(),
        }
    }

    /// Removes and returns all waiting tasks in FIFO order (`wake_up`,
    /// the thundering herd).
    pub fn wake_all(&mut self) -> Vec<Tid> {
        match self.q {
            Waiters::Empty => Vec::new(),
            Waiters::One(tid) => {
                self.q = Waiters::Empty;
                vec![tid]
            }
            Waiters::Many(ref mut q) => q.0.drain(..).collect(),
        }
    }

    /// Removes a specific task (e.g. on exit or signal), returning whether
    /// it was present.
    pub fn unpark(&mut self, tid: Tid) -> bool {
        match self.q {
            Waiters::One(only) if only == tid => {
                self.q = Waiters::Empty;
                true
            }
            Waiters::Many(ref mut q) => match q.0.iter().position(|&t| t == tid) {
                Some(pos) => q.0.remove(pos).is_some(),
                None => false,
            },
            _ => false,
        }
    }

    /// Number of waiters.
    pub fn len(&self) -> usize {
        match &self.q {
            Waiters::Empty => 0,
            Waiters::One(_) => 1,
            Waiters::Many(q) => q.0.len(),
        }
    }

    /// Whether the queue has no waiters.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `tid` is parked here.
    pub fn contains(&self, tid: Tid) -> bool {
        match &self.q {
            Waiters::Empty => false,
            Waiters::One(only) => *only == tid,
            Waiters::Many(q) => q.0.contains(&tid),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(i: u32) -> Tid {
        Tid::from_raw(i, 0)
    }

    #[test]
    fn wake_one_is_fifo() {
        let mut w = WaitQueue::new();
        w.park(tid(1));
        w.park(tid(2));
        w.park(tid(3));
        assert_eq!(w.wake_one(), Some(tid(1)));
        assert_eq!(w.wake_one(), Some(tid(2)));
        assert_eq!(w.wake_one(), Some(tid(3)));
        assert_eq!(w.wake_one(), None);
    }

    #[test]
    fn wake_all_drains_in_order() {
        let mut w = WaitQueue::new();
        for i in 0..5 {
            w.park(tid(i));
        }
        let woken = w.wake_all();
        assert_eq!(woken, (0..5).map(tid).collect::<Vec<_>>());
        assert!(w.is_empty());
    }

    #[test]
    fn unpark_removes_specific_waiter() {
        let mut w = WaitQueue::new();
        w.park(tid(1));
        w.park(tid(2));
        assert!(w.unpark(tid(1)));
        assert!(!w.unpark(tid(1)));
        assert_eq!(w.len(), 1);
        assert!(w.contains(tid(2)));
        assert!(!w.contains(tid(1)));
    }

    #[test]
    fn repark_is_idempotent_and_keeps_position() {
        // prepare_to_wait() semantics: a spuriously woken task that blocks
        // again must neither duplicate its entry nor lose its FIFO slot.
        let mut w = WaitQueue::new();
        w.park(tid(1));
        w.park(tid(2));
        w.park(tid(1)); // woken spuriously, re-parks
        assert_eq!(w.len(), 2);
        assert_eq!(w.wake_one(), Some(tid(1)), "original position kept");
        assert_eq!(w.wake_one(), Some(tid(2)));
    }

    /// Random `park` / `unpark` / `wake_one` / `wake_all` / `contains`
    /// sequences through the queue and through a plain `VecDeque` model:
    /// every return value, the length and the FIFO order must agree after
    /// each step. Four tids keep the queue short, so it crosses one waiter
    /// ↔ two in both directions often, with re-parks on either side of
    /// that line; a fresh queue now and then starts inline again.
    #[test]
    fn matches_a_vecdeque_model_across_the_inline_boundary() {
        use elsc_simcore::SimRng;

        let (mut grew, mut shrank) = (0, 0);
        let (mut reparked_inline, mut reparked_heap) = (0, 0);
        for seed in 0..32 {
            let mut rng = SimRng::new(0x3A17_0000 + seed);
            let mut w = WaitQueue::new();
            let mut model: VecDeque<Tid> = VecDeque::new();
            for step in 0..2_000 {
                if rng.chance(0.01) {
                    w = WaitQueue::new();
                    model.clear();
                }
                let was_heap = matches!(w.q, Waiters::Many(_));
                let before = model.len();
                let t = tid(rng.below(4) as u32);
                match rng.below(6) {
                    0 | 1 => {
                        if !model.contains(&t) {
                            model.push_back(t);
                        } else if was_heap {
                            reparked_heap += 1;
                        } else {
                            reparked_inline += 1;
                        }
                        w.park(t);
                    }
                    2 => {
                        let pos = model.iter().position(|&x| x == t);
                        let removed = pos.and_then(|p| model.remove(p)).is_some();
                        assert_eq!(w.unpark(t), removed, "seed {seed} step {step}: unpark");
                    }
                    3 => assert_eq!(w.wake_one(), model.pop_front(), "seed {seed} step {step}"),
                    4 if rng.chance(0.2) => {
                        let all: Vec<Tid> = model.drain(..).collect();
                        assert_eq!(w.wake_all(), all, "seed {seed} step {step}: wake_all");
                    }
                    _ => assert_eq!(w.contains(t), model.contains(&t), "seed {seed} step {step}"),
                }
                assert_eq!(w.len(), model.len(), "seed {seed} step {step}: len");
                assert_eq!(w.is_empty(), model.is_empty());
                let order: Vec<Tid> = model.iter().copied().collect();
                assert_eq!(
                    w.clone().wake_all(),
                    order,
                    "seed {seed} step {step}: order"
                );
                if was_heap {
                    assert!(
                        matches!(w.q, Waiters::Many(_)),
                        "a heap queue keeps its buffer"
                    );
                }
                grew += usize::from(before == 1 && model.len() == 2);
                shrank += usize::from(before == 2 && model.len() == 1);
            }
        }
        for (what, n) in [
            ("one -> two waiters", grew),
            ("two -> one waiter", shrank),
            ("re-parks inline", reparked_inline),
            ("re-parks on the heap", reparked_heap),
        ] {
            assert!(n >= 100, "only {n} {what}");
        }
    }
}
