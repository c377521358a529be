#[cfg(test)]
mod tests {
    //! Independent lock domains: [`LockModel`] under plans with more than
    //! one domain. Under `percpu` on these machines, domain `d` guards
    //! CPU `d`'s queue.

    use crate::{LockModel, LockPlan};
    use elsc_simcore::Cycles;

    /// A one-domain plan other than `global` follows the global lock's
    /// arithmetic exactly, whichever CPU's queue each call locks.
    #[test]
    fn single_domain_matches_simspinlock() {
        let mut m = LockModel::new(LockPlan::PerNode(4), 4, 0);
        let mut l = LockModel::new(LockPlan::Global, 4, 0);
        let a = m.lock_home(2, 0, Cycles(0));
        let b = l.lock_home(0, 0, Cycles(0));
        assert_eq!(a, b);
        m.release_all(a.at + 1000);
        l.release_all(b.at + 1000);
        let a2 = m.lock_home(3, 1, Cycles(100));
        let b2 = l.lock_home(1, 1, Cycles(100));
        assert_eq!(a2, b2);
        assert_eq!(a2.at, Cycles(1000));
        m.release_all(a2.at + 10);
        l.release_all(b2.at + 10);
        assert_eq!(m.total_spin(), l.total_spin());
        assert_eq!(m.total_acquisitions(), l.total_acquisitions());
        assert_eq!(m.domain_stats(), l.domain_stats());
    }

    #[test]
    fn domains_are_independent() {
        let mut m = LockModel::new(LockPlan::PerCpu, 4, 0);
        let a = m.lock_home(0, 0, Cycles(0));
        m.release_all(a.at + 10_000);
        // A different domain sees no busy interval.
        let b = m.lock_home(1, 1, Cycles(5));
        assert_eq!(b.at, Cycles(5));
        m.release_all(b.at + 1);
        assert_eq!(m.total_spin(), Cycles::ZERO);
        // The same domain does.
        let c = m.lock_home(0, 1, Cycles(20));
        assert_eq!(c.at, Cycles(10_000));
        m.release_all(c.at + 1);
        assert_eq!(m.total_spin(), Cycles(10_000 - 20));
    }

    #[test]
    fn per_domain_stats_sum_to_totals() {
        let mut m = LockModel::new(LockPlan::PerCpu, 3, 50);
        let mut contended = 0;
        for (d, t) in [(0usize, 0u64), (1, 10), (2, 20), (0, 30), (1, 40)] {
            let a = m.lock_home(d, d, Cycles(t));
            // Each domain keeps one holder, so any spin is waiting.
            contended += u64::from(a.spin > 0);
            m.release_all(a.at + 100);
        }
        let stats = m.domain_stats();
        assert_eq!(stats.len(), 3);
        let spin: u64 = stats.iter().map(|s| s.spin_cycles).sum();
        let acq: u64 = stats.iter().map(|s| s.acquisitions).sum();
        let cont: u64 = stats.iter().map(|s| s.contended).sum();
        assert_eq!(spin, m.total_spin().get());
        assert_eq!(acq, m.total_acquisitions());
        assert_eq!(cont, contended);
        // Domains 0 and 1 are each re-taken inside their first hold.
        assert_eq!(cont, 2);
        assert_eq!(acq, 5);
    }

    #[test]
    #[should_panic(expected = "still held")]
    fn nested_acquire_of_one_domain_panics() {
        let mut m = LockModel::new(LockPlan::PerCpu, 2, 0);
        m.lock_home(1, 0, Cycles(0));
        m.lock_home(1, 1, Cycles(1));
    }
}
