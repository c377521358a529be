//! The `goodness()` heuristic (paper §3.3.1).
//!
//! For real-time tasks goodness is `1000 + rt_priority`, putting them above
//! every `SCHED_OTHER` task. For ordinary tasks, a zero `counter` means
//! "runnable but out of quantum" (goodness 0); otherwise goodness is
//! `counter + priority` plus two *dynamic* bonuses that depend on the
//! calling context: +15 for last having run on the deciding CPU
//! (`PROC_CHANGE_PENALTY`) and +1 for sharing the previous task's address
//! space (cheap context switch).
//!
//! ELSC's key observation (§5): `counter + priority` is *static* while a
//! task waits on the run queue, so the run queue can be kept sorted by it;
//! only the two small bonuses need evaluating at decision time.

use elsc_ktask::{CpuId, MmId, Task};
use elsc_simcore::Topology;

/// Goodness floor for real-time tasks (`SCHED_FIFO`/`SCHED_RR`).
pub const RT_GOODNESS_BASE: i32 = 1000;

/// Goodness assigned to the idle task: `schedule()` seeds its search with
/// `c = -1000` (`kernel/sched.c`), below every runnable task — including
/// out-of-quantum and yielded tasks, which evaluate to 0 — so anything
/// runnable beats going idle.
pub const IDLE_GOODNESS: i32 = -1000;

/// Affinity bonus for tasks whose last run was on the deciding CPU.
pub const PROC_CHANGE_PENALTY: i32 = 15;

/// Bonus for sharing the previous task's memory map.
pub const MM_BONUS: i32 = 1;

/// Affinity bonus for a task that last ran on an SMT sibling of the
/// deciding CPU (shared L1/L2; nearly as warm as the CPU itself).
pub const SMT_AFFINITY_BONUS: i32 = 12;

/// Affinity bonus for a task that last ran on the deciding CPU's NUMA
/// node (shared last-level cache; warm-ish).
pub const LLC_AFFINITY_BONUS: i32 = 6;

/// Affinity bonus for a task that last ran in the deciding CPU's package
/// but on another node (shared socket interconnect only).
pub const PACKAGE_AFFINITY_BONUS: i32 = 2;

/// The distance-graded affinity bonus under a declared topology.
///
/// The full `PROC_CHANGE_PENALTY` still applies on an exact CPU match;
/// below that, each level of the tree contributes a smaller bonus — but
/// only when the level is *informative* (shared by some CPUs and not by
/// all). On a flat one-level tree no sub-level is informative, so the
/// function degrades to the classic `{+15 on match, else 0}` rule
/// exactly — the keystone of the flat byte-identity guarantee.
///
/// ```
/// use elsc_simcore::Topology;
/// use elsc_sched_api::goodness::{topo_affinity_bonus, PROC_CHANGE_PENALTY};
///
/// let numa: Topology = "2N4C2T".parse().unwrap();
/// assert_eq!(topo_affinity_bonus(&numa, 0, 0), PROC_CHANGE_PENALTY);
/// assert_eq!(topo_affinity_bonus(&numa, 0, 1), 12); // SMT sibling
/// assert_eq!(topo_affinity_bonus(&numa, 0, 6), 6); // same node
/// assert_eq!(topo_affinity_bonus(&numa, 0, 8), 0); // cross node
///
/// let flat = Topology::flat(4);
/// assert_eq!(topo_affinity_bonus(&flat, 2, 2), PROC_CHANGE_PENALTY);
/// assert_eq!(topo_affinity_bonus(&flat, 2, 3), 0);
/// ```
#[inline]
pub fn topo_affinity_bonus(topo: &Topology, this_cpu: CpuId, last_cpu: CpuId) -> i32 {
    if last_cpu == this_cpu {
        return PROC_CHANGE_PENALTY;
    }
    if topo.threads_per_core() > 1 && topo.same_core(this_cpu, last_cpu) {
        return SMT_AFFINITY_BONUS;
    }
    if topo.nr_nodes() > 1 && topo.same_node(this_cpu, last_cpu) {
        return LLC_AFFINITY_BONUS;
    }
    if topo.packages() > 1 && topo.same_package(this_cpu, last_cpu) {
        return PACKAGE_AFFINITY_BONUS;
    }
    0
}

/// Goodness of a real-time task.
///
/// ```
/// use elsc_ktask::{SchedClass, TaskSpec, TaskTable};
/// use elsc_sched_api::goodness::{rt_goodness, RT_GOODNESS_BASE};
///
/// let mut table = TaskTable::new();
/// let tid = table.spawn(&TaskSpec::default().realtime(SchedClass::Fifo, 55));
/// assert_eq!(rt_goodness(table.task(tid)), RT_GOODNESS_BASE + 55);
/// ```
#[inline]
pub fn rt_goodness(task: &Task) -> i32 {
    debug_assert!(task.policy.class.is_realtime());
    RT_GOODNESS_BASE + task.rt_priority
}

/// Full `goodness()` as the baseline scheduler computes it, *ignoring* the
/// `SCHED_YIELD` bit (the caller handles yield specially, as `schedule()`
/// does for the previous task).
///
/// ```
/// use elsc_ktask::{MmId, TaskSpec, TaskTable};
/// use elsc_sched_api::goodness::goodness_ignoring_yield;
///
/// let mut table = TaskTable::new();
/// let tid = table.spawn(&TaskSpec::default().priority(20).mm(MmId(1)));
/// table.task_mut(tid).counter = 7;
/// table.task_mut(tid).policy.yielded = true; // ignored by this variant
/// assert_eq!(goodness_ignoring_yield(table.task(tid), 0, MmId(2)), 7 + 20 + 15);
/// ```
#[inline]
pub fn goodness_ignoring_yield(task: &Task, this_cpu: CpuId, prev_mm: MmId) -> i32 {
    if task.policy.class.is_realtime() {
        return rt_goodness(task);
    }
    if task.counter == 0 {
        // Runnable, but its time slice is used up.
        return 0;
    }
    let mut weight = task.counter + task.priority;
    if task.processor == this_cpu {
        weight += PROC_CHANGE_PENALTY;
    }
    if task.mm == prev_mm {
        weight += MM_BONUS;
    }
    weight
}

/// [`goodness_ignoring_yield`] under a declared topology: the flat
/// `+15`-on-CPU-match affinity bonus generalizes to the distance-graded
/// [`topo_affinity_bonus`]. On flat trees this equals
/// [`goodness_ignoring_yield`] on every input (pinned by test).
#[inline]
pub fn goodness_ignoring_yield_on(
    topo: &Topology,
    task: &Task,
    this_cpu: CpuId,
    prev_mm: MmId,
) -> i32 {
    if task.policy.class.is_realtime() {
        return rt_goodness(task);
    }
    if task.counter == 0 {
        // Runnable, but its time slice is used up.
        return 0;
    }
    let mut weight = task.counter + task.priority;
    weight += topo_affinity_bonus(topo, this_cpu, task.processor);
    if task.mm == prev_mm {
        weight += MM_BONUS;
    }
    weight
}

/// Full `goodness()` including the yield rule: a task that called
/// `sys_sched_yield()` evaluates to 0 once (paper §3.3.2).
///
/// ```
/// use elsc_ktask::{MmId, TaskSpec, TaskTable};
/// use elsc_sched_api::goodness::{goodness, MM_BONUS, PROC_CHANGE_PENALTY};
///
/// let mut table = TaskTable::new();
/// let tid = table.spawn(&TaskSpec::default().priority(20).mm(MmId(1)));
/// table.task_mut(tid).counter = 7;
/// table.task_mut(tid).processor = 3;
/// // Deciding on CPU 0 against a different mm: counter + priority only.
/// assert_eq!(goodness(table.task(tid), 0, MmId(2)), 27);
/// // Same CPU, same mm: both dynamic bonuses stack.
/// assert_eq!(
///     goodness(table.task(tid), 3, MmId(1)),
///     27 + PROC_CHANGE_PENALTY + MM_BONUS
/// );
/// // Out of quantum: runnable, but goodness 0.
/// table.task_mut(tid).counter = 0;
/// assert_eq!(goodness(table.task(tid), 3, MmId(1)), 0);
/// ```
#[inline]
pub fn goodness(task: &Task, this_cpu: CpuId, prev_mm: MmId) -> i32 {
    if task.policy.yielded {
        return 0;
    }
    goodness_ignoring_yield(task, this_cpu, prev_mm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsc_ktask::{SchedClass, TaskSpec, TaskTable, Tid};

    fn other_task(counter: i32, priority: i32, processor: CpuId, mm: MmId) -> Task {
        let mut t = Task::new(
            Tid::from_raw(0, 0),
            &TaskSpec::default().priority(priority).mm(mm),
        );
        t.counter = counter;
        t.processor = processor;
        t
    }

    #[test]
    fn zero_counter_means_zero_goodness() {
        let t = other_task(0, 20, 0, MmId(1));
        assert_eq!(goodness(&t, 0, MmId(1)), 0);
    }

    #[test]
    fn base_weight_is_counter_plus_priority() {
        let t = other_task(7, 20, 5, MmId(1));
        // CPU 0 deciding, task last ran on CPU 5, different mm: no bonus.
        assert_eq!(goodness(&t, 0, MmId(2)), 27);
    }

    #[test]
    fn affinity_bonus_is_fifteen() {
        let t = other_task(7, 20, 3, MmId(1));
        assert_eq!(goodness(&t, 3, MmId(2)), 27 + PROC_CHANGE_PENALTY);
    }

    #[test]
    fn mm_bonus_is_one() {
        let t = other_task(7, 20, 5, MmId(1));
        assert_eq!(goodness(&t, 0, MmId(1)), 27 + MM_BONUS);
    }

    #[test]
    fn both_bonuses_stack() {
        let t = other_task(7, 20, 0, MmId(1));
        assert_eq!(
            goodness(&t, 0, MmId(1)),
            27 + PROC_CHANGE_PENALTY + MM_BONUS
        );
    }

    #[test]
    fn realtime_beats_any_other() {
        let mut table = TaskTable::new();
        let rt = table.spawn(&TaskSpec::default().realtime(SchedClass::Fifo, 0));
        let best_other = other_task(80, 40, 0, MmId(1));
        let g_rt = goodness(table.task(rt), 0, MmId(1));
        let g_other = goodness(&best_other, 0, MmId(1));
        assert_eq!(g_rt, RT_GOODNESS_BASE);
        assert!(g_rt > g_other);
    }

    #[test]
    fn realtime_goodness_adds_rt_priority() {
        let mut table = TaskTable::new();
        let rt = table.spawn(&TaskSpec::default().realtime(SchedClass::Rr, 55));
        assert_eq!(goodness(table.task(rt), 0, MmId::KERNEL), 1055);
    }

    #[test]
    fn realtime_ignores_zero_counter() {
        let mut table = TaskTable::new();
        let rt = table.spawn(&TaskSpec::default().realtime(SchedClass::Rr, 10));
        table.task_mut(rt).counter = 0;
        assert_eq!(goodness(table.task(rt), 0, MmId::KERNEL), 1010);
    }

    #[test]
    fn yielded_task_evaluates_to_zero() {
        let mut t = other_task(7, 20, 0, MmId(1));
        t.policy.yielded = true;
        assert_eq!(goodness(&t, 0, MmId(1)), 0);
        // But the yield-ignoring variant sees through it.
        assert!(goodness_ignoring_yield(&t, 0, MmId(1)) > 0);
    }

    #[test]
    fn static_part_matches_task_helper() {
        let t = other_task(9, 20, 99, MmId(7));
        // With no bonuses, goodness equals the static goodness.
        assert_eq!(goodness(&t, 0, MmId(8)), t.static_goodness());
    }

    #[test]
    fn topo_goodness_on_flat_trees_equals_flat_goodness() {
        // The byte-identity keystone: on a one-level tree the topology
        // variants agree with the classic functions on every input.
        let flat = elsc_simcore::Topology::flat(4);
        let mut table = TaskTable::new();
        let mut tids = Vec::new();
        for (counter, priority, processor, mm) in [
            (0, 20, 0, MmId(1)),
            (7, 20, 0, MmId(1)),
            (7, 20, 3, MmId(2)),
            (80, 40, 1, MmId::KERNEL),
        ] {
            let tid = table.spawn(&TaskSpec::default().priority(priority).mm(mm));
            let t = table.task_mut(tid);
            t.counter = counter;
            t.processor = processor;
            tids.push(tid);
        }
        let rt = table.spawn(&TaskSpec::default().realtime(SchedClass::Fifo, 55));
        tids.push(rt);
        for &tid in &tids {
            for cpu in 0..4 {
                for prev_mm in [MmId::KERNEL, MmId(1), MmId(2)] {
                    assert_eq!(
                        goodness_ignoring_yield_on(&flat, table.task(tid), cpu, prev_mm),
                        goodness_ignoring_yield(table.task(tid), cpu, prev_mm),
                        "flat-topology goodness must match for {tid:?} cpu={cpu}"
                    );
                }
            }
        }
    }

    #[test]
    fn topo_bonus_grades_by_distance() {
        let numa: elsc_simcore::Topology = "2N4C2T".parse().unwrap();
        let t = other_task(7, 20, 1, MmId(1));
        // Deciding on CPU 0; task last ran on CPU 1 (SMT sibling).
        assert_eq!(
            goodness_ignoring_yield_on(&numa, &t, 0, MmId(2)),
            27 + SMT_AFFINITY_BONUS
        );
        let t = other_task(7, 20, 5, MmId(1));
        assert_eq!(
            goodness_ignoring_yield_on(&numa, &t, 0, MmId(2)),
            27 + LLC_AFFINITY_BONUS
        );
        let t = other_task(7, 20, 9, MmId(1));
        assert_eq!(goodness_ignoring_yield_on(&numa, &t, 0, MmId(2)), 27);
        // The exact-CPU bonus is unchanged and still dominates.
        let t = other_task(7, 20, 0, MmId(1));
        assert_eq!(
            goodness_ignoring_yield_on(&numa, &t, 0, MmId(2)),
            27 + PROC_CHANGE_PENALTY
        );
        // The ladder must be strictly decreasing with distance.
        const {
            assert!(PROC_CHANGE_PENALTY > SMT_AFFINITY_BONUS);
            assert!(SMT_AFFINITY_BONUS > LLC_AFFINITY_BONUS);
            assert!(LLC_AFFINITY_BONUS > PACKAGE_AFFINITY_BONUS);
            assert!(PACKAGE_AFFINITY_BONUS > 0);
        }
    }
}
