//! `reschedule_idle()`: deciding which CPU should run a freshly-woken task.
//!
//! When `wake_up_process()` makes a task runnable, the 2.3 kernel looks
//! for a processor to run it on: preferably the task's last CPU if idle
//! (warm caches), then any idle CPU, otherwise the CPU whose current task
//! has the lowest goodness — preempted only if the woken task beats it.
//!
//! The paper leaves this logic untouched in both schedulers, so it lives
//! here, shared. The machine model turns the returned [`WakeTarget`] into
//! an IPI or a `need_resched` flag.

use elsc_ktask::{CpuId, TaskTable, Tid};

use crate::config::SchedConfig;
use crate::goodness::{goodness_ignoring_yield, goodness_ignoring_yield_on, topo_affinity_bonus};

/// What the waker sees of one CPU.
#[derive(Clone, Copy, Debug)]
pub struct CpuView {
    /// The CPU's id.
    pub id: CpuId,
    /// Whether it is running its idle task.
    pub idle: bool,
    /// The task currently running (the idle task if `idle`).
    pub current: Tid,
}

/// The placement decision for a woken task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WakeTarget {
    /// Send a reschedule IPI to an idle CPU.
    IpiIdle(CpuId),
    /// Mark `need_resched` on a busy CPU (preemption at its next
    /// scheduling point).
    Preempt(CpuId),
    /// Leave the task queued; no CPU change is warranted.
    None,
}

/// Decides where a woken task should run (`reschedule_idle`).
///
/// `cpus` must contain one entry per processor. On a non-SMP build the
/// only possible outcomes are preempting CPU 0 or nothing.
///
/// # Panics
///
/// Panics if `cpus` is empty or `woken` is stale.
pub fn reschedule_idle(
    tasks: &TaskTable,
    cfg: &SchedConfig,
    cpus: &[CpuView],
    woken: Tid,
) -> WakeTarget {
    assert!(!cpus.is_empty(), "no CPUs to consider");
    let task = tasks.task(woken);

    if !cfg.smp {
        // UP kernel: just check whether the woken task should preempt the
        // single running task.
        let view = &cpus[0];
        if view.idle {
            return WakeTarget::IpiIdle(0);
        }
        let cur = tasks.task(view.current);
        let g_new = goodness_ignoring_yield(task, 0, cur.mm);
        let g_cur = goodness_ignoring_yield(cur, 0, cur.mm);
        if g_new > g_cur {
            return WakeTarget::Preempt(0);
        }
        return WakeTarget::None;
    }

    // SMP: prefer the task's own last CPU if idle (cache affinity)...
    let last = task.processor;
    if let Some(view) = cpus.iter().find(|v| v.id == last) {
        if view.idle {
            return WakeTarget::IpiIdle(last);
        }
    }
    // ...then the *nearest* idle CPU. The flat model had no notion of
    // near: its "any idle CPU" fallback took the lowest-numbered one.
    // Under a declared topology that choice is a bug — it happily sends
    // a task across the machine while an SMT sibling of its last CPU
    // sits idle — so idle candidates are ranked by the same
    // distance-graded affinity bonus `goodness()` uses. Ties keep the
    // first (lowest-id) candidate, and on a flat tree every bonus is 0,
    // so the flat behaviour is bit-for-bit the old `find(idle)`.
    let topo = &cfg.topology;
    let mut nearest: Option<(CpuId, i32)> = None;
    for view in cpus.iter().filter(|v| v.idle) {
        let bonus = topo_affinity_bonus(topo, view.id, last);
        if nearest.is_none_or(|(_, b)| bonus > b) {
            nearest = Some((view.id, bonus));
        }
    }
    if let Some((cpu, _)) = nearest {
        return WakeTarget::IpiIdle(cpu);
    }
    // ...else the busy CPU whose current task is weakest, preempting only
    // if the woken task clearly beats it (the affinity penalty acts as the
    // preemption margin, as in the kernel).
    let mut weakest: Option<(CpuId, i32)> = None;
    for view in cpus {
        let cur = tasks.task(view.current);
        let g_cur = goodness_ignoring_yield_on(topo, cur, view.id, cur.mm);
        if weakest.is_none_or(|(_, g)| g_cur < g) {
            weakest = Some((view.id, g_cur));
        }
    }
    if let Some((cpu, g_cur)) = weakest {
        // The woken task's goodness from that CPU's perspective; it does
        // not get the affinity bonus unless it last ran near there.
        let cur_mm = tasks
            .task(cpus.iter().find(|v| v.id == cpu).unwrap().current)
            .mm;
        let g_new = goodness_ignoring_yield_on(topo, task, cpu, cur_mm);
        if g_new > g_cur {
            return WakeTarget::Preempt(cpu);
        }
    }
    WakeTarget::None
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsc_ktask::{MmId, TaskSpec, TaskTable};

    struct Fixture {
        tasks: TaskTable,
        idle: Vec<Tid>,
        busy: Vec<Tid>,
    }

    fn fixture(nr_cpus: usize) -> Fixture {
        let mut tasks = TaskTable::new();
        let idle = (0..nr_cpus)
            .map(|cpu| {
                let tid = tasks.spawn(&TaskSpec::named("idle").priority(1));
                let t = tasks.task_mut(tid);
                t.counter = 0;
                t.processor = cpu;
                tid
            })
            .collect();
        let busy = (0..nr_cpus)
            .map(|cpu| {
                let tid = tasks.spawn(&TaskSpec::named("busy").mm(MmId(1)));
                let t = tasks.task_mut(tid);
                t.processor = cpu;
                t.has_cpu = true;
                tid
            })
            .collect();
        Fixture { tasks, idle, busy }
    }

    fn views(f: &Fixture, idle_mask: &[bool]) -> Vec<CpuView> {
        idle_mask
            .iter()
            .enumerate()
            .map(|(i, &is_idle)| CpuView {
                id: i,
                idle: is_idle,
                current: if is_idle { f.idle[i] } else { f.busy[i] },
            })
            .collect()
    }

    fn spawn_woken(f: &mut Fixture, counter: i32, last_cpu: usize) -> Tid {
        let tid = f.tasks.spawn(&TaskSpec::named("woken").mm(MmId(2)));
        let t = f.tasks.task_mut(tid);
        t.counter = counter;
        t.processor = last_cpu;
        tid
    }

    #[test]
    fn prefers_last_cpu_when_idle() {
        let mut f = fixture(4);
        let woken = spawn_woken(&mut f, 20, 2);
        let v = views(&f, &[true, false, true, false]);
        let target = reschedule_idle(&f.tasks, &SchedConfig::smp(4), &v, woken);
        assert_eq!(target, WakeTarget::IpiIdle(2));
    }

    #[test]
    fn falls_back_to_any_idle_cpu() {
        let mut f = fixture(4);
        let woken = spawn_woken(&mut f, 20, 3);
        let v = views(&f, &[false, true, false, false]);
        let target = reschedule_idle(&f.tasks, &SchedConfig::smp(4), &v, woken);
        assert_eq!(target, WakeTarget::IpiIdle(1));
    }

    #[test]
    fn preempts_weakest_busy_cpu_when_clearly_better() {
        let mut f = fixture(2);
        // CPU 1's current task is nearly out of quantum.
        f.tasks.task_mut(f.busy[1]).counter = 1;
        f.tasks.task_mut(f.busy[0]).counter = 20;
        // Woken task is strong and last ran on CPU 1 (gets affinity there).
        let woken = spawn_woken(&mut f, 20, 1);
        let v = views(&f, &[false, false]);
        let target = reschedule_idle(&f.tasks, &SchedConfig::smp(2), &v, woken);
        assert_eq!(target, WakeTarget::Preempt(1));
    }

    #[test]
    fn does_not_preempt_stronger_tasks() {
        let mut f = fixture(2);
        // Both currents are strong; woken task is weak.
        let woken = spawn_woken(&mut f, 1, 0);
        f.tasks.task_mut(woken).priority = 1;
        let v = views(&f, &[false, false]);
        let target = reschedule_idle(&f.tasks, &SchedConfig::smp(2), &v, woken);
        assert_eq!(target, WakeTarget::None);
    }

    #[test]
    fn up_kernel_preempts_only_on_better_goodness() {
        let mut f = fixture(1);
        let weak = spawn_woken(&mut f, 1, 0);
        f.tasks.task_mut(weak).priority = 1;
        let v = views(&f, &[false]);
        assert_eq!(
            reschedule_idle(&f.tasks, &SchedConfig::up(), &v, weak),
            WakeTarget::None
        );
        f.tasks.task_mut(f.busy[0]).counter = 0; // current exhausted
        let strong = spawn_woken(&mut f, 20, 0);
        assert_eq!(
            reschedule_idle(&f.tasks, &SchedConfig::up(), &v, strong),
            WakeTarget::Preempt(0)
        );
    }

    #[test]
    fn up_kernel_kicks_idle_cpu() {
        let mut f = fixture(1);
        let woken = spawn_woken(&mut f, 20, 0);
        let v = views(&f, &[true]);
        assert_eq!(
            reschedule_idle(&f.tasks, &SchedConfig::up(), &v, woken),
            WakeTarget::IpiIdle(0)
        );
    }

    #[test]
    fn idle_fallback_prefers_nearest_cpu_under_topology() {
        // Regression for the flat-model bug: with the task's last CPU
        // busy, the old fallback took the lowest-numbered idle CPU even
        // when an SMT sibling or node-mate of the last CPU was idle.
        let mut f = fixture(16);
        let mut cfg = SchedConfig::smp(16);
        cfg.topology = "2N4C2T".parse().unwrap();
        // Woken task last ran on CPU 9 (node 1); CPU 9 is busy.
        let woken = spawn_woken(&mut f, 20, 9);
        let mut mask = [false; 16];
        mask[2] = true; // idle, but node 0: remote
        mask[8] = true; // idle SMT sibling of CPU 9
        mask[12] = true; // idle, same node, different core
        let v = views(&f, &mask);
        let target = reschedule_idle(&f.tasks, &cfg, &v, woken);
        assert_eq!(target, WakeTarget::IpiIdle(8), "SMT sibling wins");
        // Without the sibling, the node-mate beats the remote CPU.
        let mut mask = [false; 16];
        mask[2] = true;
        mask[12] = true;
        let v = views(&f, &mask);
        let target = reschedule_idle(&f.tasks, &cfg, &v, woken);
        assert_eq!(target, WakeTarget::IpiIdle(12), "node-mate beats remote");
    }

    #[test]
    fn idle_fallback_on_flat_trees_is_first_idle_cpu() {
        // Pinned flat behaviour: a declared flat tree must reproduce the
        // pre-topology pick (the lowest-numbered idle CPU) exactly, for
        // every idle mask.
        let mut f = fixture(4);
        let woken = spawn_woken(&mut f, 20, 3);
        let mut cfg = SchedConfig::smp(4);
        cfg.topology = elsc_simcore::Topology::flat(4);
        for mask_bits in 0u32..8 {
            // CPU 3 (the last CPU) stays busy so the fallback is reached.
            let mask = [
                mask_bits & 1 != 0,
                mask_bits & 2 != 0,
                mask_bits & 4 != 0,
                false,
            ];
            let v = views(&f, &mask);
            let got = reschedule_idle(&f.tasks, &cfg, &v, woken);
            let want = match mask.iter().position(|&b| b) {
                Some(first_idle) => WakeTarget::IpiIdle(first_idle),
                None => reschedule_idle(&f.tasks, &SchedConfig::smp(4), &v, woken),
            };
            assert_eq!(got, want, "mask {mask:?}");
        }
    }

    #[test]
    fn realtime_task_preempts_everything() {
        let mut f = fixture(4);
        let rt = f
            .tasks
            .spawn(&TaskSpec::named("rt").realtime(elsc_ktask::SchedClass::Fifo, 50));
        let v = views(&f, &[false, false, false, false]);
        let target = reschedule_idle(&f.tasks, &SchedConfig::smp(4), &v, rt);
        assert!(matches!(target, WakeTarget::Preempt(_)));
    }
}
