#[cfg(test)]
mod tests {
    //! One run-queue lock: [`LockModel`] under the `global` plan, which
    //! is 2.3.99's `runqueue_lock`. A call's home acquisition is the
    //! lock's acquire and `release_all` its release.

    use crate::{LockModel, LockPlan};
    use elsc_simcore::{Cycles, SimRng};

    /// The global lock of a 4-CPU machine with the given transfer cost.
    fn lock(transfer: u64) -> LockModel {
        LockModel::new(LockPlan::Global, 4, transfer)
    }

    #[test]
    fn uncontended_acquire_is_immediate() {
        let mut l = lock(100);
        let a = l.lock_home(0, 0, Cycles(50));
        assert_eq!(a.at, Cycles(50)); // first-ever acquire: no transfer
        assert_eq!(a.spin, 0);
        l.release_all(Cycles(60));
        let s = l.domain_stats()[0];
        assert_eq!(l.total_spin(), Cycles::ZERO);
        assert_eq!(s.contended, 0);
        assert_eq!(s.acquisitions, 1);
    }

    #[test]
    fn same_holder_pays_no_transfer() {
        let mut l = lock(100);
        let a = l.lock_home(3, 3, Cycles(0));
        l.release_all(a.at + 10);
        let b = l.lock_home(3, 3, Cycles(20));
        assert_eq!(b.at, Cycles(20));
    }

    #[test]
    fn different_holder_pays_transfer() {
        let mut l = lock(100);
        let a = l.lock_home(0, 0, Cycles(0));
        l.release_all(a.at + 10);
        let b = l.lock_home(1, 1, Cycles(50));
        assert_eq!(b.at, Cycles(150));
        assert_eq!(b.spin, 100);
    }

    #[test]
    fn contended_acquire_spins_until_release() {
        let mut l = lock(0);
        let a = l.lock_home(0, 0, Cycles(0));
        l.release_all(a.at + 1000);
        let b = l.lock_home(1, 1, Cycles(100));
        assert_eq!(b.at, Cycles(1000));
        assert_eq!(l.total_spin(), Cycles(900));
        assert_eq!(l.domain_stats()[0].contended, 1);
    }

    #[test]
    fn held_time_accumulates() {
        let mut l = lock(0);
        let a = l.lock_home(0, 0, Cycles(0));
        l.release_all(a.at + 300);
        let b = l.lock_home(0, 0, Cycles(500));
        l.release_all(b.at + 200);
        assert_eq!(l.domain_stats()[0].held_cycles, 500);
    }

    #[test]
    #[should_panic(expected = "still held")]
    fn double_acquire_panics() {
        let mut l = lock(0);
        l.lock_home(0, 0, Cycles(0));
        l.lock_home(1, 1, Cycles(1));
    }

    #[test]
    #[should_panic(expected = "before acquire")]
    fn release_before_acquire_panics() {
        let mut l = lock(0);
        l.lock_home(0, 0, Cycles(100));
        l.release_all(Cycles(50));
    }

    /// Acquire/release with `SimRng` arrival gaps and hold times:
    /// ownership intervals never overlap, and the spin accounting equals
    /// the waiting that serialization implies.
    #[test]
    fn random_arrivals_serialize_and_account_their_spin() {
        for seed in 0..64u64 {
            let mut rng = SimRng::new(0x10CC ^ seed);
            let mut l = lock(0);
            let (mut now, mut last_release) = (Cycles::ZERO, Cycles::ZERO);
            let mut expected_spin = 0u64;
            let n = 1 + rng.below(100);
            for i in 0..n {
                now += rng.below(500);
                let cpu = (i % 3) as usize;
                let acquired = l.lock_home(cpu, cpu, now).at;
                assert!(acquired >= last_release.max(now), "overlapping ownership");
                expected_spin += acquired.saturating_sub(now).get();
                last_release = acquired + rng.range(1, 500);
                l.release_all(last_release);
            }
            assert_eq!(l.total_spin().get(), expected_spin);
            assert_eq!(l.total_acquisitions(), n);
        }
    }
}
