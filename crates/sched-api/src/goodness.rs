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

/// [`goodness_ignoring_yield_on`] split the way ELSC splits it (§5): the
/// part that holds while the task waits, and whether the two dynamic
/// bonuses — [`topo_affinity_bonus`] for the deciding CPU and
/// [`MM_BONUS`] for sharing `prev`'s address space — are added to it.
/// A real-time task's `1000 + rt_priority` and an exhausted task's 0 are
/// static whole; otherwise the static part is `counter + priority`.
///
/// ```
/// use elsc_ktask::{SchedClass, TaskSpec, TaskTable};
/// use elsc_sched_api::goodness::goodness_parts;
///
/// let mut table = TaskTable::new();
/// let tid = table.spawn(&TaskSpec::default().priority(20));
/// table.task_mut(tid).counter = 7;
/// assert_eq!(goodness_parts(table.task(tid)), (27, true));
/// table.task_mut(tid).counter = 0;
/// assert_eq!(goodness_parts(table.task(tid)), (0, false));
/// let rt = table.spawn(&TaskSpec::default().realtime(SchedClass::Fifo, 5));
/// assert_eq!(goodness_parts(table.task(rt)), (1005, false));
/// ```
#[inline]
pub fn goodness_parts(task: &Task) -> (i32, bool) {
    if task.policy.class.is_realtime() {
        return (rt_goodness(task), false);
    }
    if task.counter == 0 {
        // Runnable, but its time slice is used up.
        return (0, false);
    }
    (task.counter + task.priority, true)
}

/// Full `goodness()` as the baseline scheduler computes it on CPU
/// `this_cpu` of `topo`, *ignoring* the `SCHED_YIELD` bit (the caller
/// handles yield specially, as `schedule()` does for the previous task:
/// see `frame::select`). The affinity bonus is the distance-graded
/// [`topo_affinity_bonus`]; on a flat tree that is the classic +15 on
/// the same CPU and nothing elsewhere (pinned by test).
///
/// ```
/// use elsc_ktask::{MmId, TaskSpec, TaskTable};
/// use elsc_sched_api::goodness::{goodness_ignoring_yield_on, LLC_AFFINITY_BONUS};
/// use elsc_simcore::Topology;
///
/// let numa: Topology = "2N2C1T".parse().unwrap();
/// let mut table = TaskTable::new();
/// let tid = table.spawn(&TaskSpec::default().priority(20).mm(MmId(1)));
/// table.task_mut(tid).counter = 7;
/// table.task_mut(tid).processor = 3;
/// // A CPU of the same node earns the smaller node bonus ...
/// assert_eq!(
///     goodness_ignoring_yield_on(&numa, table.task(tid), 2, MmId(2)),
///     27 + LLC_AFFINITY_BONUS
/// );
/// // ... and a CPU of the other node none.
/// assert_eq!(goodness_ignoring_yield_on(&numa, table.task(tid), 0, MmId(2)), 27);
/// ```
#[inline]
pub fn goodness_ignoring_yield_on(
    topo: &Topology,
    task: &Task,
    this_cpu: CpuId,
    prev_mm: MmId,
) -> i32 {
    let (mut weight, dynamic) = goodness_parts(task);
    if !dynamic {
        return weight;
    }
    weight += topo_affinity_bonus(topo, this_cpu, task.processor);
    if task.mm == prev_mm {
        weight += MM_BONUS;
    }
    weight
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

    /// Goodness on a flat four-CPU tree, the paper's machine.
    fn goodness(task: &Task, this_cpu: CpuId, prev_mm: MmId) -> i32 {
        goodness_ignoring_yield_on(&Topology::flat(4), task, this_cpu, prev_mm)
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
    fn goodness_sees_through_the_yield_bit() {
        // The yielder's one-time 0 is `frame::select`'s rule, not
        // goodness's.
        let mut t = other_task(7, 20, 0, MmId(1));
        t.policy.yielded = true;
        assert_eq!(
            goodness(&t, 0, MmId(1)),
            27 + PROC_CHANGE_PENALTY + MM_BONUS
        );
    }

    #[test]
    fn static_part_matches_task_helper() {
        let t = other_task(9, 20, 3, MmId(7));
        // With no bonuses, goodness equals the static goodness.
        assert_eq!(goodness(&t, 0, MmId(8)), t.static_goodness());
    }

    #[test]
    fn topo_goodness_on_flat_trees_equals_flat_goodness() {
        // The byte-identity keystone: on a one-level tree goodness is
        // the classic rule (+15 on the same CPU only) on every input.
        let classic = |t: &Task, cpu: CpuId, prev_mm: MmId| match t.counter {
            _ if t.policy.class.is_realtime() => RT_GOODNESS_BASE + t.rt_priority,
            0 => 0,
            c => {
                let (same_cpu, same_mm) = (t.processor == cpu, t.mm == prev_mm);
                c + t.priority
                    + i32::from(same_cpu) * PROC_CHANGE_PENALTY
                    + i32::from(same_mm) * MM_BONUS
            }
        };
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
                        goodness(table.task(tid), cpu, prev_mm),
                        classic(table.task(tid), cpu, prev_mm),
                        "flat-topology goodness must match for {tid:?} cpu={cpu}"
                    );
                }
            }
        }
    }

    #[test]
    fn topo_bonus_grades_by_distance() {
        let numa: Topology = "2N4C2T".parse().unwrap();
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

/// The classic `goodness()` of `kernel/sched.c` is
/// [`goodness_ignoring_yield_on`] over a flat tree: the two dynamic
/// bonuses stack, and a task out of quantum is worth 0.
///
/// ```
/// use elsc_ktask::{MmId, TaskSpec, TaskTable};
/// use elsc_sched_api::goodness::{goodness_ignoring_yield_on, MM_BONUS, PROC_CHANGE_PENALTY};
/// use elsc_simcore::Topology;
///
/// let flat = Topology::flat(4);
/// let mut table = TaskTable::new();
/// let tid = table.spawn(&TaskSpec::default().priority(20).mm(MmId(1)));
/// table.task_mut(tid).counter = 7;
/// table.task_mut(tid).processor = 3;
/// // Deciding on CPU 0 against a different mm: counter + priority only.
/// assert_eq!(goodness_ignoring_yield_on(&flat, table.task(tid), 0, MmId(2)), 27);
/// // Same CPU, same mm: both dynamic bonuses stack.
/// assert_eq!(
///     goodness_ignoring_yield_on(&flat, table.task(tid), 3, MmId(1)),
///     27 + PROC_CHANGE_PENALTY + MM_BONUS
/// );
/// // Out of quantum: runnable, but goodness 0.
/// table.task_mut(tid).counter = 0;
/// assert_eq!(goodness_ignoring_yield_on(&flat, table.task(tid), 3, MmId(1)), 0);
/// ```
#[cfg(doctest)]
mod goodness {}

/// The `SCHED_YIELD` bit does not enter goodness: the yielder's one-time 0
/// is `frame::select`'s rule, applied to the previous task only.
///
/// ```
/// use elsc_ktask::{MmId, TaskSpec, TaskTable};
/// use elsc_sched_api::goodness::goodness_ignoring_yield_on;
/// use elsc_simcore::Topology;
///
/// let mut table = TaskTable::new();
/// let tid = table.spawn(&TaskSpec::default().priority(20).mm(MmId(1)));
/// table.task_mut(tid).counter = 7;
/// table.task_mut(tid).policy.yielded = true;
/// let flat = Topology::flat(4);
/// assert_eq!(goodness_ignoring_yield_on(&flat, table.task(tid), 0, MmId(2)), 7 + 20 + 15);
/// ```
#[cfg(doctest)]
mod goodness_ignoring_yield {}
