//! The §8 "heap" design: one structure ordered by static goodness.
//!
//! The paper suggests "sorting tasks by static goodness within heaps" so
//! the best task is found at the top. Every queued task sits in one
//! sorted set under its static key; ties are FIFO (front inserts
//! stamp down from -1, tail inserts up from 0). Like ELSC, a running task
//! is out of the structure and re-keyed on re-insertion (its `counter`
//! changes while running). Selection examines only the tasks tied at the
//! maximum key, best-first (up to the same `nr_cpus/2 + 5` limit),
//! evaluating dynamic bonuses among them; a yielded previous task is
//! only a fallback, inheriting ELSC's recalc-storm fix.

use elsc_ktask::{Task, TaskTable};
use elsc_sched_api::order::{Member, Members};
use elsc_sched_api::SchedConfig;

use crate::sorted::{static_key, Design, Home, SortedQueue};

/// Ordered-structure scheduler ("heap" in the paper's sketch).
pub type HeapScheduler = SortedQueue<Heap>;

/// `heap`'s partition: one set of every queued task.
#[derive(Debug, Default)]
pub struct Heap(Members);

impl Design for Heap {
    const NAME: &'static str = "heap";
    const LIFO: bool = false;
    const RESTAMP_BY_KEY: bool = true;
    fn set_mut(&mut self, _: Home) -> &mut Members {
        &mut self.0
    }

    fn candidates<'a>(
        &'a self,
        tasks: &'a TaskTable,
        cfg: &SchedConfig,
    ) -> impl Iterator<Item = (&'a Task, i32, Home)> {
        // The tasks tied at the top key, best-first, bounded before they
        // are filtered; each weighed from where it last ran.
        let top = self.0.best_first(u32::MAX).next().map(Member::goodness);
        let tied = self.0.best_first(u32::MAX);
        let tied = tied.take_while(move |m| Some(m.goodness()) == top);
        tied.take(cfg.search_limit()).map(|m| {
            let p = tasks.by_index(m.slot as usize);
            (p, static_key(p), (p.processor, p.mm))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsc_ktask::{MmId, SchedClass, TaskSpec, TaskState};
    use elsc_sched_api::{Rig, SchedConfig, Scheduler};

    fn rig(cfg: SchedConfig) -> Rig<HeapScheduler> {
        Rig::new(cfg, HeapScheduler::new())
    }

    #[test]
    fn empty_schedules_idle() {
        let mut rig = rig(SchedConfig::up());
        assert_eq!(rig.schedule(0, rig.idle(0)), rig.idle(0));
        assert_eq!(rig.stats.cpu(0).idle_scheduled, 1);
    }

    #[test]
    fn picks_highest_static_goodness() {
        let mut rig = rig(SchedConfig::up());
        let weak = rig.spawn("weak");
        let strong = rig.spawn("strong");
        rig.tasks.task_mut(weak).counter = 1;
        rig.tasks.task_mut(strong).counter = 20;
        // Keys were computed at insert; re-add with fresh counters.
        rig.del(weak);
        rig.add(weak);
        assert_eq!(rig.schedule(0, rig.idle(0)), strong);
    }

    #[test]
    fn exact_best_across_classes_unlike_elsc() {
        // The heap picks the absolute best static goodness, not just the
        // best within a bucket of 4.
        let mut rig = rig(SchedConfig::up());
        let a = rig.spawn("a");
        let b = rig.spawn("b");
        rig.tasks.task_mut(a).counter = 19;
        rig.tasks.task_mut(b).counter = 20;
        for t in [a, b] {
            rig.del(t);
            rig.add(t);
        }
        assert_eq!(rig.schedule(0, rig.idle(0)), b);
    }

    #[test]
    fn running_task_is_out_of_structure() {
        let mut rig = rig(SchedConfig::up());
        let a = rig.spawn("a");
        assert_eq!(rig.schedule(0, rig.idle(0)), a);
        assert_eq!(rig.sched.nr_running(), 1);
        assert!(rig.sched.design.0 .0.is_empty());
        // Re-enters on the next schedule.
        let b = rig.spawn("b");
        rig.tasks.task_mut(b).counter = 1;
        rig.del(b);
        rig.add(b);
        assert_eq!(rig.schedule(0, a), a, "prev re-wins on static goodness");
        assert_eq!(rig.sched.nr_running(), 2);
    }

    #[test]
    fn exhausted_tasks_trigger_recalc() {
        let mut rig = rig(SchedConfig::up());
        let a = rig.spawn("a");
        assert_eq!(rig.schedule(0, rig.idle(0)), a);
        rig.tasks.task_mut(a).counter = 0;
        let next = rig.schedule(0, a);
        assert_eq!(next, a);
        assert_eq!(rig.stats.cpu(0).recalc_entries, 1);
        assert_eq!(rig.tasks.task(a).counter, 20);
    }

    #[test]
    fn lone_yielder_reruns_without_recalc() {
        let mut rig = rig(SchedConfig::up());
        let y = rig.spawn("y");
        assert_eq!(rig.schedule(0, rig.idle(0)), y);
        rig.tasks.task_mut(y).policy.yielded = true;
        assert_eq!(rig.schedule(0, y), y);
        assert_eq!(rig.stats.cpu(0).recalc_entries, 0);
        assert_eq!(rig.stats.cpu(0).yield_reruns, 1);
    }

    #[test]
    fn mm_bonus_breaks_ties() {
        let mut rig = rig(SchedConfig::up());
        let prev = rig.spawn("prev");
        rig.tasks.task_mut(prev).mm = MmId(5);
        assert_eq!(rig.schedule(0, rig.idle(0)), prev);
        let kin = rig.tasks.spawn(&TaskSpec::named("kin").mm(MmId(5)));
        let stranger = rig.tasks.spawn(&TaskSpec::named("stranger").mm(MmId(6)));
        rig.add(kin);
        rig.add(stranger);
        rig.tasks.task_mut(prev).state = TaskState::Interruptible;
        assert_eq!(rig.schedule(0, prev), kin);
    }

    #[test]
    fn blocked_prev_leaves_structure() {
        let mut rig = rig(SchedConfig::up());
        let a = rig.spawn("a");
        assert_eq!(rig.schedule(0, rig.idle(0)), a);
        rig.tasks.task_mut(a).state = TaskState::Interruptible;
        assert_eq!(rig.schedule(0, a), rig.idle(0));
        assert_eq!(rig.sched.nr_running(), 0);
    }

    #[test]
    fn realtime_on_top() {
        let mut rig = rig(SchedConfig::up());
        let other = rig.tasks.spawn(&TaskSpec::named("other"));
        rig.tasks.task_mut(other).counter = 40;
        rig.add(other);
        let rt = rig
            .tasks
            .spawn(&TaskSpec::named("rt").realtime(SchedClass::Fifo, 0));
        rig.add(rt);
        assert_eq!(rig.schedule(0, rig.idle(0)), rt);
    }
}
