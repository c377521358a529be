//! The raw-scheduler rig `benchmark/`'s `schedule()` probes drive: the
//! shared [`elsc_sched_api::Rig`] around a design from the lab registry,
//! loaded with runnable tasks, so a timing loop around it measures the
//! algorithm's *host* cost and the meter reports its *simulated* cost.

use std::ops::{Deref, DerefMut};

use elsc_ktask::{MmId, TaskSpec};
use elsc_sched_api::SchedConfig;

use crate::SchedKind;

/// [`elsc_sched_api::Rig`] around a registry design; it derefs to it.
/// Its own type only to keep the constructor's `(kind, cfg, n)` shape.
pub struct Rig(elsc_sched_api::Rig);

impl Rig {
    /// Builds a rig with `n` runnable default-priority tasks.
    pub fn new(kind: SchedKind, cfg: SchedConfig, n: usize) -> Rig {
        let sched = kind.build(cfg.topology);
        let mut rig = elsc_sched_api::Rig::boxed(cfg, sched);
        for i in 0..n {
            let tid = rig
                .tasks
                .spawn(&TaskSpec::named("load").mm(MmId(1 + (i % 8) as u32)));
            // Spread counters so static goodness varies across tasks.
            rig.tasks.task_mut(tid).counter = 1 + (i % 20) as i32;
            rig.tasks.task_mut(tid).processor = i % rig.cfg.nr_cpus;
            rig.add(tid);
        }
        Rig(rig)
    }
}

impl Deref for Rig {
    type Target = elsc_sched_api::Rig;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl DerefMut for Rig {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsc_ktask::TaskState;

    /// Every native design, UP and 2P: two hot-loop calls, then schedule
    /// until idle while each `prev` blocks, checking the design after
    /// every call — so every design's `del` runs through the frame.
    #[test]
    fn rig_builds_and_schedules() {
        for cfg in [SchedConfig::up(), SchedConfig::smp(2)] {
            for kind in SchedKind::NATIVE {
                let at = format!("{} on {} CPUs", kind.label(), cfg.nr_cpus);
                let mut rig = Rig::new(kind, cfg.clone(), 50);
                let idle = rig.idle(0);
                assert_eq!(rig.sched.nr_running(), 50, "{at}");
                let next = rig.schedule_once();
                assert_ne!(next, idle, "{at}");
                // A second call keeps working with prev = the chosen task.
                let mut prev = rig.schedule_once();
                assert_ne!(prev, idle, "{at}");
                for calls in 1.. {
                    assert!(calls <= 51, "{at}: runnable work left after 50 blocks");
                    rig.tasks.task_mut(prev).state = TaskState::Interruptible;
                    prev = rig.schedule(0, prev);
                    if prev == idle {
                        break;
                    }
                }
                assert_eq!(rig.sched.nr_running(), 0, "{at}");
            }
        }
    }

    #[test]
    fn simulated_cost_reg_linear_elsc_flat() {
        let cost = |kind: SchedKind, n: usize| {
            let mut rig = Rig::new(kind, SchedConfig::up(), n);
            rig.meter.take();
            for _ in 0..50 {
                rig.schedule_once();
            }
            rig.meter.take() as f64 / rig.stats.cpu(0).sched_calls as f64
        };
        let reg_1000 = cost(SchedKind::Reg, 1000);
        let reg_10 = cost(SchedKind::Reg, 10);
        let elsc_1000 = cost(SchedKind::Elsc, 1000);
        assert!(reg_1000 > reg_10 * 10.0);
        assert!(elsc_1000 < reg_1000 / 10.0);
    }
}
