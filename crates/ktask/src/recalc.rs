//! The counter-recalculation loop.
//!
//! When every runnable task has exhausted its quantum (or yielded with
//! nothing else to run), the 2.3 scheduler walks *all* tasks in the system
//! and resets their counters:
//!
//! ```c
//! for_each_task(p)
//!     p->counter = (p->counter >> 1) + p->priority;
//! ```
//!
//! Sleeping tasks keep half their unused quantum as an interactivity
//! bonus; runnable tasks (counter 0) get a fresh `priority`-sized quantum.
//! The cost is proportional to the number of tasks in the system —
//! runnable or not — which is exactly what makes the baseline's frequent
//! recalculation storms expensive (Figure 2).

use crate::table::TaskTable;
use crate::task::{Task, TaskState};

/// Recalculates one task's counter; returns the new value.
///
/// Exposed separately so ELSC's *predicted counter* insertion
/// (paper §5.1) can ask "what will the recalc loop set this task's
/// counter to?" without running the loop.
#[inline]
pub fn recalculated_counter(task: &Task) -> i32 {
    (task.counter >> 1) + task.priority
}

/// Whether the recalculation walk should touch this task.
///
/// Zombies are excluded: an exited task lingers in the [`TaskTable`]
/// between its `exit()` and the post-`schedule()` reap, and a recalc
/// that fires inside that very `schedule()` call would otherwise both
/// walk the corpse and charge `RecalcPerTask` for it. The paper's
/// recalc cost is per *live* task, and a zombie's counter can never be
/// read again — every scheduler's recalc walk uses this filter so the
/// charged count always matches the live population.
#[inline]
pub fn in_recalc_walk(task: &Task) -> bool {
    task.state != TaskState::Zombie
}

/// Runs the recalculation loop over every live task in the system.
///
/// Returns the number of tasks touched so the caller can charge
/// `RecalcPerTask` cycles for each. Zombies awaiting reaping are
/// skipped (see [`in_recalc_walk`]).
///
/// This is [`TaskTable::recalc_counters`] without the ELSC `rq_zero`
/// reset: one pass over the slab that applies [`recalculated_counter`]
/// to every task.
///
/// [`TaskTable::recalc_counters`]: crate::table::TaskTable::recalc_counters
pub fn recalculate_counters(tasks: &mut TaskTable) -> usize {
    tasks.recalc_counters(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskSpec;

    #[test]
    fn zero_counter_becomes_priority() {
        let mut t = TaskTable::new();
        let a = t.spawn(&TaskSpec::default().priority(20));
        t.task_mut(a).counter = 0;
        recalculate_counters(&mut t);
        assert_eq!(t.task(a).counter, 20);
    }

    #[test]
    fn sleeper_keeps_half_its_quantum() {
        let mut t = TaskTable::new();
        let a = t.spawn(&TaskSpec::default().priority(20));
        t.task_mut(a).counter = 10;
        recalculate_counters(&mut t);
        assert_eq!(t.task(a).counter, 25);
    }

    #[test]
    fn counter_never_exceeds_twice_priority() {
        // Fixed point: repeated recalculation converges below 2*priority
        // (paper §3.1: counter ranges from 0 to twice the priority).
        let mut t = TaskTable::new();
        let a = t.spawn(&TaskSpec::default().priority(20));
        for _ in 0..100 {
            recalculate_counters(&mut t);
            let c = t.task(a).counter;
            assert!(c <= 2 * 20, "counter {c} exceeded 2*priority");
        }
        // The limit of c -> c/2 + p is 2p (minus rounding).
        assert!(t.task(a).counter >= 38);
    }

    #[test]
    fn touches_every_task_and_reports_count() {
        let mut t = TaskTable::new();
        for _ in 0..7 {
            t.spawn(&TaskSpec::default());
        }
        assert_eq!(recalculate_counters(&mut t), 7);
    }

    #[test]
    fn zombies_are_skipped_and_not_counted() {
        use crate::task::TaskState;
        let mut t = TaskTable::new();
        let live = t.spawn(&TaskSpec::default().priority(20));
        let dead = t.spawn(&TaskSpec::default().priority(20));
        t.task_mut(live).counter = 0;
        t.task_mut(dead).counter = 7;
        t.task_mut(dead).state = TaskState::Zombie;
        // Only the live task is walked *and* charged for.
        assert_eq!(recalculate_counters(&mut t), 1);
        assert_eq!(t.task(live).counter, 20);
        assert_eq!(t.task(dead).counter, 7, "corpse untouched");
    }

    #[test]
    fn predicted_matches_actual() {
        let mut t = TaskTable::new();
        let a = t.spawn(&TaskSpec::default().priority(17));
        t.task_mut(a).counter = 9;
        let predicted = recalculated_counter(t.task(a));
        recalculate_counters(&mut t);
        assert_eq!(t.task(a).counter, predicted);
    }
}
