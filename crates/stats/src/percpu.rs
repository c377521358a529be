//! Per-CPU scheduler counters and their aggregation.

use core::ops::{Add, Sub};

/// Counters collected on one CPU.
///
/// All counters are monotonically increasing over a run; deltas between
/// [`SchedStats::snapshot`]s give per-phase numbers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Entries into `schedule()`.
    pub sched_calls: u64,
    /// Cycles spent inside `schedule()` (scan + bookkeeping, excluding
    /// spin-wait on the run-queue lock).
    pub sched_cycles: u64,
    /// Cycles spent spinning on the run-queue lock before `schedule()`
    /// could begin.
    pub lock_spin_cycles: u64,
    /// Run-queue lock-domain acquisitions made from this CPU (the home
    /// acquire of each `schedule()`/wakeup plus any mid-call domain
    /// acquisitions a sharded plan incurs).
    pub lock_acquisitions: u64,
    /// Candidate tasks examined across all `schedule()` calls.
    pub tasks_examined: u64,
    /// Entries into the counter-recalculation loop.
    pub recalc_entries: u64,
    /// Individual task counters recalculated (recalc loop iterations).
    pub recalc_tasks: u64,
    /// Times the chosen task last ran on a *different* processor
    /// ("Tasks Scheduled on New Processor", Figure 6).
    pub picked_new_cpu: u64,
    /// Times `schedule()` picked the idle task.
    pub idle_scheduled: u64,
    /// Times a yielded previous task was re-run because nothing else was
    /// runnable (the ELSC behaviour that avoids the recalc storm).
    pub yield_reruns: u64,
    /// Context switches performed (prev != next).
    pub ctx_switches: u64,
    /// Address-space switches (prev.mm != next.mm on a context switch).
    pub mm_switches: u64,
    /// Timer ticks handled.
    pub ticks: u64,
    /// `wake_up_process()` calls executed on this CPU.
    pub wakeups: u64,
    /// Reschedule IPIs sent from this CPU.
    pub ipis_sent: u64,
    /// `sys_sched_yield()` calls made by tasks running on this CPU.
    pub yields: u64,
    /// Total cycles this CPU spent executing task (non-scheduler) work.
    pub work_cycles: u64,
    /// Total cycles this CPU spent idle.
    pub idle_cycles: u64,
}

macro_rules! combine_fields {
    ($op:tt, $a:expr, $b:expr) => {
        CpuStats {
            sched_calls: $a.sched_calls $op $b.sched_calls,
            sched_cycles: $a.sched_cycles $op $b.sched_cycles,
            lock_spin_cycles: $a.lock_spin_cycles $op $b.lock_spin_cycles,
            lock_acquisitions: $a.lock_acquisitions $op $b.lock_acquisitions,
            tasks_examined: $a.tasks_examined $op $b.tasks_examined,
            recalc_entries: $a.recalc_entries $op $b.recalc_entries,
            recalc_tasks: $a.recalc_tasks $op $b.recalc_tasks,
            picked_new_cpu: $a.picked_new_cpu $op $b.picked_new_cpu,
            idle_scheduled: $a.idle_scheduled $op $b.idle_scheduled,
            yield_reruns: $a.yield_reruns $op $b.yield_reruns,
            ctx_switches: $a.ctx_switches $op $b.ctx_switches,
            mm_switches: $a.mm_switches $op $b.mm_switches,
            ticks: $a.ticks $op $b.ticks,
            wakeups: $a.wakeups $op $b.wakeups,
            ipis_sent: $a.ipis_sent $op $b.ipis_sent,
            yields: $a.yields $op $b.yields,
            work_cycles: $a.work_cycles $op $b.work_cycles,
            idle_cycles: $a.idle_cycles $op $b.idle_cycles,
        }
    };
}

impl Add for CpuStats {
    type Output = CpuStats;

    fn add(self, rhs: CpuStats) -> CpuStats {
        combine_fields!(+, self, rhs)
    }
}

impl Sub for CpuStats {
    type Output = CpuStats;

    /// Saturating per-field difference (counters are monotone, so a
    /// later-minus-earlier delta never actually saturates).
    fn sub(self, rhs: CpuStats) -> CpuStats {
        macro_rules! ss {
            ($f:ident) => {
                self.$f.saturating_sub(rhs.$f)
            };
        }
        CpuStats {
            sched_calls: ss!(sched_calls),
            sched_cycles: ss!(sched_cycles),
            lock_spin_cycles: ss!(lock_spin_cycles),
            lock_acquisitions: ss!(lock_acquisitions),
            tasks_examined: ss!(tasks_examined),
            recalc_entries: ss!(recalc_entries),
            recalc_tasks: ss!(recalc_tasks),
            picked_new_cpu: ss!(picked_new_cpu),
            idle_scheduled: ss!(idle_scheduled),
            yield_reruns: ss!(yield_reruns),
            ctx_switches: ss!(ctx_switches),
            mm_switches: ss!(mm_switches),
            ticks: ss!(ticks),
            wakeups: ss!(wakeups),
            ipis_sent: ss!(ipis_sent),
            yields: ss!(yields),
            work_cycles: ss!(work_cycles),
            idle_cycles: ss!(idle_cycles),
        }
    }
}

/// One counter of [`CpuStats::COUNTERS`]: `(name, getter)`.
pub type Counter = (&'static str, fn(&CpuStats) -> u64);

impl CpuStats {
    /// Every counter, in field order: the rows of
    /// [`render_proc`](crate::render::render_proc) and the keys of the
    /// JSON export (`elsc_obs::export`).
    pub const COUNTERS: [Counter; 18] = [
        ("sched_calls", |c| c.sched_calls),
        ("sched_cycles", |c| c.sched_cycles),
        ("lock_spin_cycles", |c| c.lock_spin_cycles),
        ("lock_acquisitions", |c| c.lock_acquisitions),
        ("tasks_examined", |c| c.tasks_examined),
        ("recalc_entries", |c| c.recalc_entries),
        ("recalc_tasks", |c| c.recalc_tasks),
        ("picked_new_cpu", |c| c.picked_new_cpu),
        ("idle_scheduled", |c| c.idle_scheduled),
        ("yield_reruns", |c| c.yield_reruns),
        ("ctx_switches", |c| c.ctx_switches),
        ("mm_switches", |c| c.mm_switches),
        ("ticks", |c| c.ticks),
        ("wakeups", |c| c.wakeups),
        ("ipis_sent", |c| c.ipis_sent),
        ("yields", |c| c.yields),
        ("work_cycles", |c| c.work_cycles),
        ("idle_cycles", |c| c.idle_cycles),
    ];

    /// Average cycles per `schedule()` call (Figure 5, top chart).
    ///
    /// Includes lock spin time, since that is time the CPU loses to
    /// scheduling; returns 0.0 when no calls were made.
    pub fn cycles_per_schedule(&self) -> f64 {
        if self.sched_calls == 0 {
            0.0
        } else {
            (self.sched_cycles + self.lock_spin_cycles) as f64 / self.sched_calls as f64
        }
    }

    /// Average tasks examined per `schedule()` call (Figure 5, bottom).
    pub fn tasks_examined_per_schedule(&self) -> f64 {
        if self.sched_calls == 0 {
            0.0
        } else {
            self.tasks_examined as f64 / self.sched_calls as f64
        }
    }

    /// Fraction of non-idle CPU time spent in the scheduler (the paper's
    /// §4 "37–55 % of kernel time" style figure, against total busy time).
    pub fn sched_time_share(&self) -> f64 {
        let sched = self.sched_cycles + self.lock_spin_cycles;
        let busy = sched + self.work_cycles;
        if busy == 0 {
            0.0
        } else {
            sched as f64 / busy as f64
        }
    }
}

/// Statistics for a whole simulated machine: one [`CpuStats`] per CPU.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    cpus: Vec<CpuStats>,
}

impl SchedStats {
    /// Creates zeroed statistics for `nr_cpus` processors.
    ///
    /// # Panics
    ///
    /// Panics if `nr_cpus == 0`.
    pub fn new(nr_cpus: usize) -> Self {
        assert!(nr_cpus > 0, "a machine has at least one CPU");
        SchedStats {
            cpus: vec![CpuStats::default(); nr_cpus],
        }
    }

    /// Number of CPUs covered.
    pub fn nr_cpus(&self) -> usize {
        self.cpus.len()
    }

    /// Mutable access to one CPU's counters.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    #[inline]
    pub fn cpu_mut(&mut self, cpu: usize) -> &mut CpuStats {
        &mut self.cpus[cpu]
    }

    /// Read access to one CPU's counters.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    #[inline]
    pub fn cpu(&self, cpu: usize) -> &CpuStats {
        &self.cpus[cpu]
    }

    /// Per-CPU view.
    pub fn per_cpu(&self) -> &[CpuStats] {
        &self.cpus
    }

    /// Sum of all CPUs' counters.
    pub fn total(&self) -> CpuStats {
        self.cpus
            .iter()
            .copied()
            .fold(CpuStats::default(), |a, b| a + b)
    }

    /// A copy of the current counters, for later delta computation.
    pub fn snapshot(&self) -> SchedStats {
        self.clone()
    }

    /// Per-field difference `self - earlier`.
    ///
    /// # Panics
    ///
    /// Panics if the CPU counts differ.
    pub fn delta(&self, earlier: &SchedStats) -> SchedStats {
        assert_eq!(
            self.cpus.len(),
            earlier.cpus.len(),
            "snapshots must cover the same CPUs"
        );
        SchedStats {
            cpus: self
                .cpus
                .iter()
                .zip(&earlier.cpus)
                .map(|(&a, &b)| a - b)
                .collect(),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        for c in &mut self.cpus {
            *c = CpuStats::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zeroed() {
        let s = SchedStats::new(4);
        assert_eq!(s.nr_cpus(), 4);
        assert_eq!(s.total(), CpuStats::default());
    }

    #[test]
    #[should_panic(expected = "at least one CPU")]
    fn zero_cpus_panics() {
        SchedStats::new(0);
    }

    #[test]
    fn totals_sum_across_cpus() {
        let mut s = SchedStats::new(2);
        s.cpu_mut(0).sched_calls = 10;
        s.cpu_mut(1).sched_calls = 5;
        s.cpu_mut(1).tasks_examined = 7;
        let t = s.total();
        assert_eq!(t.sched_calls, 15);
        assert_eq!(t.tasks_examined, 7);
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let mut s = SchedStats::new(1);
        s.cpu_mut(0).sched_calls = 3;
        s.cpu_mut(0).sched_cycles = 100;
        let snap = s.snapshot();
        s.cpu_mut(0).sched_calls = 10;
        s.cpu_mut(0).sched_cycles = 450;
        let d = s.delta(&snap);
        assert_eq!(d.cpu(0).sched_calls, 7);
        assert_eq!(d.cpu(0).sched_cycles, 350);
    }

    #[test]
    #[should_panic(expected = "same CPUs")]
    fn delta_mismatched_cpus_panics() {
        let a = SchedStats::new(2);
        let b = SchedStats::new(4);
        let _ = a.delta(&b);
    }

    #[test]
    fn cycles_per_schedule_includes_spin() {
        let mut c = CpuStats::default();
        assert_eq!(c.cycles_per_schedule(), 0.0);
        c.sched_calls = 4;
        c.sched_cycles = 800;
        c.lock_spin_cycles = 200;
        assert_eq!(c.cycles_per_schedule(), 250.0);
    }

    #[test]
    fn tasks_examined_average() {
        let c = CpuStats {
            sched_calls: 10,
            tasks_examined: 35,
            ..CpuStats::default()
        };
        assert_eq!(c.tasks_examined_per_schedule(), 3.5);
    }

    #[test]
    fn sched_time_share_bounds() {
        let mut c = CpuStats::default();
        assert_eq!(c.sched_time_share(), 0.0);
        c.sched_cycles = 30;
        c.work_cycles = 70;
        assert!((c.sched_time_share() - 0.3).abs() < 1e-12);
        c.work_cycles = 0;
        assert_eq!(c.sched_time_share(), 1.0);
    }

    #[test]
    fn reset_zeroes_all() {
        let mut s = SchedStats::new(2);
        s.cpu_mut(1).wakeups = 9;
        s.reset();
        assert_eq!(s.total(), CpuStats::default());
    }

    #[test]
    fn add_and_sub_are_inverse() {
        let a = CpuStats {
            sched_calls: 5,
            ticks: 2,
            ..CpuStats::default()
        };
        let b = CpuStats {
            sched_calls: 3,
            ticks: 1,
            ..CpuStats::default()
        };
        assert_eq!((a + b) - b, a);
    }

    #[test]
    fn sub_saturates() {
        let mut a = CpuStats::default();
        let mut b = CpuStats::default();
        a.sched_calls = 1;
        b.sched_calls = 5;
        assert_eq!((a - b).sched_calls, 0);
    }
}
