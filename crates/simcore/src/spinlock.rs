//! A busy-interval model of a contended kernel spinlock.
//!
//! Linux 2.3.99 serializes all run-queue manipulation — including the whole
//! of `schedule()`'s goodness scan — under a single global `runqueue_lock`.
//! The paper's 2P/4P results are shaped by this: the longer the baseline
//! scheduler holds the lock, the longer other CPUs spin.
//!
//! The simulation is single-threaded and processes events in global time
//! order, so the lock can be modelled analytically: the lock records when
//! it next becomes free, an acquirer at time `t` obtains it at
//! `max(t, free_at) + transfer`, and the difference is the acquirer's spin
//! time. `transfer` models the cache-line migration cost of passing lock
//! ownership between CPUs.

use crate::clock::Cycles;

/// Identifier of the last lock holder, used to decide whether a cache-line
/// transfer cost applies.
pub type HolderId = usize;

/// Sentinel holder meaning "never held".
pub const NO_HOLDER: HolderId = usize::MAX;

/// Busy-interval spinlock model.
///
/// # Examples
///
/// ```
/// use elsc_simcore::{Cycles, SimSpinLock};
///
/// let mut lock = SimSpinLock::new(100); // 100-cycle line transfer
/// let a = lock.acquire(Cycles(0), 0);
/// lock.release(a + 500);
/// // CPU 1 arrives while CPU 0 still holds the lock: it spins.
/// let b = lock.acquire(Cycles(200), 1);
/// assert!(b.get() >= 500 + 100);
/// assert!(lock.total_spin().get() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct SimSpinLock {
    free_at: Cycles,
    held: bool,
    last_holder: HolderId,
    transfer_cost: u64,
    total_spin: Cycles,
    acquisitions: u64,
    contended: u64,
    total_held: Cycles,
    acquired_at: Cycles,
}

impl SimSpinLock {
    /// Creates an uncontended lock with the given cache-line transfer cost
    /// (cycles charged when ownership moves between CPUs).
    pub fn new(transfer_cost: u64) -> Self {
        SimSpinLock {
            free_at: Cycles::ZERO,
            held: false,
            last_holder: NO_HOLDER,
            transfer_cost,
            total_spin: Cycles::ZERO,
            acquisitions: 0,
            contended: 0,
            total_held: Cycles::ZERO,
            acquired_at: Cycles::ZERO,
        }
    }

    /// Acquires the lock at time `now` on behalf of `holder`.
    ///
    /// Returns the instant at which the acquirer actually owns the lock
    /// (spin time plus any cache-line transfer already included). The
    /// caller must later call [`SimSpinLock::release`] with a time not
    /// before the returned instant.
    ///
    /// # Panics
    ///
    /// Panics if the lock is currently held: events are processed one at a
    /// time, so a nested acquire means the machine model forgot a release
    /// — a bug we want loud.
    pub fn acquire(&mut self, now: Cycles, holder: HolderId) -> Cycles {
        assert!(
            !self.held,
            "SimSpinLock: acquire while held (missing release)"
        );
        let ready = now.max(self.free_at);
        let spin = ready - now;
        if spin > Cycles::ZERO {
            self.contended += 1;
        }
        self.total_spin += spin;
        let transfer = if self.last_holder != holder && self.last_holder != NO_HOLDER {
            self.transfer_cost
        } else {
            0
        };
        let owned_at = ready + transfer;
        self.held = true;
        self.last_holder = holder;
        self.acquisitions += 1;
        self.acquired_at = owned_at;
        owned_at
    }

    /// Releases the lock at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if the lock is not held, or if `at` precedes the acquisition
    /// instant (time must not run backwards).
    pub fn release(&mut self, at: Cycles) {
        assert!(self.held, "SimSpinLock: release while not held");
        assert!(
            at >= self.acquired_at,
            "SimSpinLock: release at {at:?} before acquire at {:?}",
            self.acquired_at
        );
        self.held = false;
        self.free_at = at;
        self.total_held += at - self.acquired_at;
    }

    /// Total cycles all acquirers spent spinning.
    pub fn total_spin(&self) -> Cycles {
        self.total_spin
    }

    /// Total cycles the lock was held.
    pub fn total_held(&self) -> Cycles {
        self.total_held
    }

    /// Number of acquisitions.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions
    }

    /// Number of acquisitions that had to spin.
    pub fn contended(&self) -> u64 {
        self.contended
    }

    /// Whether the lock is currently held (mainly for assertions).
    pub fn is_held(&self) -> bool {
        self.held
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_acquire_is_immediate() {
        let mut l = SimSpinLock::new(100);
        let a = l.acquire(Cycles(50), 0);
        assert_eq!(a, Cycles(50)); // first-ever acquire: no transfer
        l.release(Cycles(60));
        assert_eq!(l.total_spin(), Cycles::ZERO);
        assert_eq!(l.contended(), 0);
        assert_eq!(l.acquisitions(), 1);
    }

    #[test]
    fn same_holder_pays_no_transfer() {
        let mut l = SimSpinLock::new(100);
        let a = l.acquire(Cycles(0), 3);
        l.release(a + 10);
        let b = l.acquire(Cycles(20), 3);
        assert_eq!(b, Cycles(20));
    }

    #[test]
    fn different_holder_pays_transfer() {
        let mut l = SimSpinLock::new(100);
        let a = l.acquire(Cycles(0), 0);
        l.release(a + 10);
        let b = l.acquire(Cycles(50), 1);
        assert_eq!(b, Cycles(150));
    }

    #[test]
    fn contended_acquire_spins_until_release() {
        let mut l = SimSpinLock::new(0);
        let a = l.acquire(Cycles(0), 0);
        l.release(a + 1000);
        let b = l.acquire(Cycles(100), 1);
        assert_eq!(b, Cycles(1000));
        assert_eq!(l.total_spin(), Cycles(900));
        assert_eq!(l.contended(), 1);
    }

    #[test]
    fn held_time_accumulates() {
        let mut l = SimSpinLock::new(0);
        let a = l.acquire(Cycles(0), 0);
        l.release(a + 300);
        let b = l.acquire(Cycles(500), 0);
        l.release(b + 200);
        assert_eq!(l.total_held(), Cycles(500));
    }

    #[test]
    #[should_panic(expected = "acquire while held")]
    fn double_acquire_panics() {
        let mut l = SimSpinLock::new(0);
        l.acquire(Cycles(0), 0);
        l.acquire(Cycles(1), 1);
    }

    #[test]
    #[should_panic(expected = "release while not held")]
    fn release_unheld_panics() {
        let mut l = SimSpinLock::new(0);
        l.release(Cycles(5));
    }

    #[test]
    #[should_panic(expected = "before acquire")]
    fn release_before_acquire_panics() {
        let mut l = SimSpinLock::new(0);
        l.acquire(Cycles(100), 0);
        l.release(Cycles(50));
    }

    /// Acquire/release with `SimRng` arrival gaps and hold times:
    /// ownership intervals never overlap, and the spin accounting equals
    /// the waiting that serialization implies.
    #[test]
    fn random_arrivals_serialize_and_account_their_spin() {
        use crate::SimRng;
        for seed in 0..64u64 {
            let mut rng = SimRng::new(0x10CC ^ seed);
            let mut lock = SimSpinLock::new(0);
            let (mut now, mut last_release) = (Cycles::ZERO, Cycles::ZERO);
            let mut expected_spin = 0u64;
            let n = 1 + rng.below(100);
            for i in 0..n {
                now += rng.below(500);
                let acquired = lock.acquire(now, (i % 3) as usize);
                assert!(acquired >= last_release.max(now), "overlapping ownership");
                expected_spin += acquired.saturating_sub(now).get();
                last_release = acquired + rng.range(1, 500);
                lock.release(last_release);
            }
            assert_eq!(lock.total_spin().get(), expected_spin);
            assert_eq!(lock.acquisitions(), n);
        }
    }
}
