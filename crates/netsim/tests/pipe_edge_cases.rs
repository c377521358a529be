//! Regression tests for pipe edge cases.
//!
//! The PR 4 chaos sweep caught `Pipe::close` waking only parked readers,
//! leaving writers parked forever on a dead pipe (the `peer_reset` wedge).
//! These tests pin the fixed contract — close wakes *everyone* — plus the
//! nearby edges: double close, zero capacity, and post-close semantics —
//! and a randomized check of the whole pipe against a bounded-FIFO model.

use elsc_ktask::Tid;
use elsc_netsim::{Msg, Pipe, PipeError, PipeTable};
use elsc_simcore::SimRng;
use std::collections::VecDeque;

fn tid(i: u32) -> Tid {
    Tid::from_raw(i, 0)
}

#[test]
fn close_wakes_parked_readers_and_writers() {
    // The PR 4 fix: both wait queues drain on close, readers first
    // (matching the kernel's shutdown order), each task exactly once.
    let mut p = Pipe::new(1);
    p.try_write(Msg::tagged(9)).unwrap();
    p.readers.park(tid(1));
    p.readers.park(tid(2));
    p.writers.park(tid(3));
    p.writers.park(tid(4));
    let woken = p.close();
    assert_eq!(woken, vec![tid(1), tid(2), tid(3), tid(4)]);
}

#[test]
fn close_with_only_parked_writers_wakes_them() {
    // The exact shape of the original bug: a full pipe, writers parked,
    // no readers anywhere.
    let mut p = Pipe::new(1);
    p.try_write(Msg::tagged(1)).unwrap();
    p.writers.park(tid(7));
    assert_eq!(p.close(), vec![tid(7)]);
    // The woken writer's retry observes Closed, not WouldBlock —
    // otherwise it would park again and wedge.
    assert_eq!(p.try_write(Msg::tagged(2)).unwrap_err(), PipeError::Closed);
}

#[test]
fn double_close_is_idempotent_and_wakes_nobody_twice() {
    let mut p = Pipe::new(1);
    p.readers.park(tid(1));
    assert_eq!(p.close(), vec![tid(1)]);
    // A second close finds empty wait queues: no task is woken twice.
    assert_eq!(p.close(), Vec::<Tid>::new());
    assert!(p.is_closed());
}

#[test]
fn park_after_close_still_surfaces_on_reclose() {
    // A racer that parked between close and its wakeup delivery must not
    // be stranded if teardown closes again (ServerRx's Teardown phase
    // closes every outbox, some already closed by a sibling).
    let mut p = Pipe::new(1);
    p.close();
    p.readers.park(tid(5));
    assert_eq!(p.close(), vec![tid(5)]);
}

#[test]
fn closed_pipe_drains_reads_then_fails() {
    let mut p = Pipe::new(4);
    p.try_write(Msg::tagged(1)).unwrap();
    p.try_write(Msg::tagged(2)).unwrap();
    p.close();
    // EOF semantics: buffered data survives the close...
    assert_eq!(p.try_read().unwrap().0.tag, 1);
    assert_eq!(p.try_read().unwrap().0.tag, 2);
    // ...then reads report Closed, never WouldBlock (WouldBlock would
    // park the reader on a pipe nothing will ever write again).
    assert_eq!(p.try_read().unwrap_err(), PipeError::Closed);
    assert_eq!(p.try_read().unwrap_err(), PipeError::Closed);
}

#[test]
#[should_panic(expected = "pipe capacity must be positive")]
fn zero_capacity_pipe_is_rejected() {
    // Blocking semantics with no buffer is a rendezvous model we don't
    // implement; constructing one must fail loudly, not deadlock later.
    Pipe::new(0);
}

#[test]
#[should_panic(expected = "pipe capacity must be positive")]
fn zero_capacity_rejected_via_table_too() {
    PipeTable::new().create(0);
}

#[test]
fn close_then_deliver_counts_nothing() {
    // NIC deliveries racing a close are dropped without touching the
    // counters conservation checks read.
    let mut p = Pipe::new(2);
    p.close();
    assert_eq!(p.deliver(Msg::tagged(3)).unwrap_err(), PipeError::Closed);
    assert_eq!(p.total_written(), 0);
    assert_eq!(p.len(), 0);
}

/// Under `SimRng` write/read/park sequences a pipe is a bounded FIFO:
/// writes fail exactly when full, reads exactly when empty, each success
/// wakes the oldest parked task of the other side, and everything
/// written is either read or still queued.
#[test]
fn pipe_matches_a_bounded_fifo_model_under_random_ops() {
    for seed in 0..64u64 {
        let mut rng = SimRng::new(0x919E ^ seed);
        let cap = rng.range(1, 8) as usize;
        let mut pipe = Pipe::new(cap);
        let mut model = VecDeque::new();
        let mut readers = VecDeque::new();
        let mut writers = VecDeque::new();
        for step in 0..200u64 {
            match rng.below(4) {
                0 => match pipe.try_write(Msg::tagged(step)) {
                    Ok(woken) => {
                        assert!(model.len() < cap, "seed {seed}: wrote into a full pipe");
                        model.push_back(step);
                        assert_eq!(woken, readers.pop_front());
                    }
                    Err(e) => {
                        assert_eq!((e, model.len()), (PipeError::WouldBlock, cap));
                    }
                },
                1 => match pipe.try_read() {
                    Ok((msg, woken)) => {
                        assert_eq!(Some(msg.tag), model.pop_front());
                        assert_eq!(woken, writers.pop_front());
                    }
                    Err(e) => assert_eq!((e, model.len()), (PipeError::WouldBlock, 0)),
                },
                2 => {
                    let t = tid(rng.below(8) as u32);
                    if !pipe.readers.contains(t) {
                        pipe.readers.park(t);
                        readers.push_back(t);
                    }
                }
                _ => {
                    let t = tid(8 + rng.below(8) as u32);
                    if !pipe.writers.contains(t) {
                        pipe.writers.park(t);
                        writers.push_back(t);
                    }
                }
            }
            assert_eq!(pipe.len(), model.len());
            assert_eq!(pipe.is_full(), model.len() >= cap);
        }
        assert_eq!(pipe.total_written(), pipe.total_read() + model.len() as u64);
    }
}
