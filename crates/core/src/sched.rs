//! The ELSC `schedule()` implementation (paper §5.2).

use elsc_ktask::{CpuId, TaskTable, Tid};
use elsc_sched_api::{frame, rt_goodness, topo_affinity_bonus, SchedCtx, Scheduler, MM_BONUS};
use elsc_simcore::CostKind;

use crate::table::ElscTable;

/// The ELSC scheduler.
///
/// See the crate-level documentation for the design; this type wires the
/// [`ElscTable`] into the kernel's scheduling entry points.
#[derive(Debug, Default)]
pub struct ElscScheduler {
    table: ElscTable,
    /// Tasks accounted to the run queue, including the running tasks that
    /// are marked on-queue while unlinked from their list.
    nr_running: usize,
}

impl ElscScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read access to the table (examples and tests).
    pub fn table(&self) -> &ElscTable {
        &self.table
    }

    /// Removes the on-queue marker or list linkage of a task leaving the
    /// run queue; shared by `del_from_runqueue` and the blocked-prev path.
    fn detach(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge(ctx.costs, CostKind::ListOp);
        let in_list = ctx.tasks.task(tid).in_list();
        if in_list {
            self.table.unlink(ctx.tasks, tid);
        } else {
            // Marked on-queue while running: only the stale `next` needs
            // clearing (paper §5.1's del_from_runqueue description).
            ElscTable::clear_marker(ctx.tasks, tid);
        }
        self.nr_running -= 1;
    }
}

/// Outcome of scanning one list.
struct ListScan {
    best: Option<(Tid, i32)>,
    yielded: Option<Tid>,
    /// UP shortcut hit: stop the whole search.
    shortcut: bool,
}

impl Scheduler for ElscScheduler {
    fn name(&self) -> &'static str {
        "elsc"
    }

    fn add_to_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        debug_assert!(
            !ctx.tasks.task(tid).on_runqueue(),
            "double add to run queue"
        );
        ctx.meter.charge(ctx.costs, CostKind::TableIndex);
        ctx.meter.charge(ctx.costs, CostKind::ListOp);
        self.table.link(ctx.tasks, tid);
        self.nr_running += 1;
    }

    fn del_from_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        debug_assert!(
            ctx.tasks.task(tid).on_runqueue(),
            "del of task not on run queue"
        );
        self.detach(ctx, tid);
    }

    fn move_first_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge_n(ctx.costs, CostKind::ListOp, 2);
        self.table.move_first(ctx.tasks, tid);
    }

    fn move_last_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge_n(ctx.costs, CostKind::ListOp, 2);
        self.table.move_last(ctx.tasks, tid);
    }

    fn schedule(&mut self, ctx: &mut SchedCtx<'_>, cpu: CpuId, prev: Tid, idle: Tid) -> Tid {
        frame::charge_entry(ctx, cpu);

        let prev_yielded = ctx.tasks.task(prev).policy.yielded;

        // --- Previous-task handling (§5.2, first step) ---------------
        if prev != idle {
            let runnable = ctx.tasks.task(prev).state.is_runnable();
            if runnable {
                // An exhausted round-robin task gets its quantum refreshed
                // *before* insertion so it is indexed correctly; it then
                // goes to the end of its (new) list, as both schedulers do.
                let rr_exhausted = frame::refresh_rr_quantum(ctx, prev);
                // Re-insert prev: it was removed from its list when it was
                // chosen to run, but kept its on-queue marker.
                let prev_task = ctx.tasks.task(prev);
                if prev_task.on_runqueue() && !prev_task.in_list() {
                    ElscTable::clear_marker(ctx.tasks, prev);
                    ctx.meter.charge(ctx.costs, CostKind::TableIndex);
                    ctx.meter.charge(ctx.costs, CostKind::ListOp);
                    self.table.link(ctx.tasks, prev);
                }
                if rr_exhausted && ctx.tasks.task(prev).in_list() {
                    ctx.meter.charge_n(ctx.costs, CostKind::ListOp, 2);
                    self.table.move_last(ctx.tasks, prev);
                }
            } else if ctx.tasks.task(prev).on_runqueue() {
                // Blocking or exiting: leave the run queue.
                self.detach(ctx, prev);
            }
        }

        // --- Recalculation check (§5.2) -------------------------------
        if self.table.top().is_none() {
            if self.table.next_top().is_some() {
                // Runnable tasks exist but all are out of quantum. The
                // walk clears the zero-section annotations in the same
                // pass, so the table merge is consistent.
                frame::recalculate(ctx, cpu, self.nr_running, true);
                self.table.merge_after_recalc();
            } else {
                // The table is completely empty: run the idle task and
                // skip the rest of the decision process.
                if prev_yielded {
                    ctx.tasks.task_mut(prev).policy.yielded = false;
                }
                return frame::commit(ctx, cpu, prev, idle, idle);
            }
        }

        // --- The bounded search loop (§5.2) ----------------------------
        let limit = ctx.cfg.search_limit();
        let prev_mm = ctx.tasks.task(prev).mm;
        let mut best: Option<(Tid, i32)> = None;
        let mut yielded_fallback: Option<Tid> = None;
        let mut idx_opt = self.table.top();
        while let Some(idx) = idx_opt {
            let scan = scan_list(self, ctx, cpu, prev_mm, idx, limit);
            if scan.best.is_some() {
                best = scan.best;
            }
            if yielded_fallback.is_none() {
                yielded_fallback = scan.yielded;
            }
            if scan.shortcut || best.is_some() || yielded_fallback.is_some() {
                // ELSC limits its search to (essentially) one list: stop
                // as soon as any candidate was found.
                break;
            }
            // Every task in this list was eliminated (running on another
            // CPU, or the zero section): try the next populated list.
            idx_opt = self.table.next_populated_below(idx);
        }

        let next = match (best, yielded_fallback) {
            (Some((tid, _)), _) => tid,
            (None, Some(tid)) => {
                // Nothing but the yielded previous task: run it again
                // rather than entering the recalculation loop (§5.2 end).
                ctx.stats.cpu_mut(cpu).yield_reruns += 1;
                tid
            }
            (None, None) => idle,
        };

        // --- Commit ----------------------------------------------------
        if next != idle {
            // Manually remove the chosen task from its list, leaving the
            // on-queue marker (`prev = NULL`, `next` stale).
            ctx.meter.charge(ctx.costs, CostKind::ListOp);
            self.table.unlink_keep_next(ctx.tasks, next);
        }
        if prev_yielded {
            // Clear SCHED_YIELD to give prev a fair chance next time.
            ctx.tasks.task_mut(prev).policy.yielded = false;
        }
        frame::commit(ctx, cpu, prev, next, idle)
    }

    fn nr_running(&self) -> usize {
        self.nr_running
    }

    fn debug_check(&self, tasks: &TaskTable) {
        self.table.debug_check(tasks);
    }
}

/// Whether a freshly computed goodness `w` displaces the best seen so far.
///
/// The incremental scan keeps the *first* task examined on ties (strict
/// `>`), matching the reference `goodness()` loop in 2.3.99 `schedule()`.
#[cfg(not(feature = "chaos-selftest"))]
#[inline]
fn beats(w: i32, best: i32) -> bool {
    w > best
}

/// The `chaos-selftest` mutation: an off-by-one that makes the scan keep a
/// stale best when a rival is better by exactly one (e.g. the mm bonus).
/// CI builds with this feature and asserts the differential oracle flags
/// the divergence — a seeded bug proving the oracle has teeth. See
/// `docs/DESIGN.md` §"Fault injection & the oracle".
#[cfg(feature = "chaos-selftest")]
#[inline]
fn beats(w: i32, best: i32) -> bool {
    w > best + 1
}

/// Scans one table list, honouring the examination limit, the zero-counter
/// early exit, the SMP `has_cpu` skip, and the uniprocessor shared-mm
/// shortcut. Returns the best candidate and any yielded fallback found.
fn scan_list(
    sched: &ElscScheduler,
    ctx: &mut SchedCtx<'_>,
    cpu: CpuId,
    prev_mm: elsc_ktask::MmId,
    idx: usize,
    limit: usize,
) -> ListScan {
    let mut out = ListScan {
        best: None,
        yielded: None,
        shortcut: false,
    };
    let mut examined = 0usize;
    let mut cur = sched.table.lists().first(idx);
    while let Some(i) = cur {
        let next_link = sched.table.lists().next_task(ctx.tasks, i);
        // One fetch of the record; skip test, goodness arithmetic and the
        // candidate's handle all come from it.
        let t = ctx.tasks.by_index(i as usize);
        // Skip tasks executing on *another* CPU; if everything here is
        // skipped we fall through to the next populated list.
        if ctx.cfg.smp && t.has_cpu && t.processor != cpu {
            cur = next_link;
            continue;
        }
        let is_rt = t.policy.class.is_realtime();
        if !is_rt && t.counter == 0 {
            // The rest of the list is the parked zero section: unusable.
            break;
        }
        ctx.meter.charge(ctx.costs, CostKind::GoodnessEval);
        ctx.stats.cpu_mut(cpu).tasks_examined += 1;
        if t.policy.yielded {
            // Run a yielded task only if nothing else turns up.
            if out.yielded.is_none() {
                out.yielded = Some(t.tid);
            }
        } else if is_rt {
            // Real-time: no yield handling, no bonuses — highest
            // rt_priority wins (§5.2).
            let w = rt_goodness(t);
            if out.best.is_none_or(|(_, b)| beats(w, b)) {
                out.best = Some((t.tid, w));
            }
        } else {
            // The affinity term is distance-graded under a declared
            // topology; on a flat tree `topo_affinity_bonus` is exactly
            // the classic `{+15 on same CPU, else 0}`.
            let mut w =
                t.static_goodness() + topo_affinity_bonus(&ctx.cfg.topology, cpu, t.processor);
            let mm_match = t.mm == prev_mm;
            if mm_match {
                w += MM_BONUS;
            }
            if !ctx.cfg.smp
                && mm_match
                && idx < crate::table::RT_BASE_LIST - 1
                && t.static_goodness() == (4 * idx as i32) + 3
            {
                // Uniprocessor shortcut (§5.2): affinity always matches on
                // UP, so a shared mm is the maximum possible *bonus* — but
                // a same-list rival can still have strictly higher static
                // goodness (lists bucket four values). The shortcut is
                // exact only when this kin already sits at the bucket
                // maximum `4*idx + 3`: then no unexamined task in the list
                // can reach `w`, since the best a non-kin can manage is
                // the same static goodness without the +1 mm bonus. The
                // clamped top list (19) has no bucket maximum, so it never
                // takes the shortcut.
                out.best = Some((t.tid, w));
                out.shortcut = true;
                return out;
            }
            if out.best.is_none_or(|(_, b)| beats(w, b)) {
                out.best = Some((t.tid, w));
            }
        }
        examined += 1;
        if examined >= limit {
            break;
        }
        cur = next_link;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsc_ktask::{MmId, SchedClass, TaskSpec, TaskState};
    use elsc_sched_api::{Rig, SchedConfig};

    /// A rig around a fresh `ElscScheduler`.
    fn rig(cfg: SchedConfig) -> Rig<ElscScheduler> {
        Rig::new(cfg, ElscScheduler::new())
    }

    #[test]
    fn empty_table_schedules_idle_without_recalc() {
        let mut rig = rig(SchedConfig::up());
        let next = rig.schedule(0, rig.idle(0));
        assert_eq!(next, rig.idle(0));
        assert_eq!(rig.stats.cpu(0).idle_scheduled, 1);
        assert_eq!(rig.stats.cpu(0).recalc_entries, 0);
    }

    #[test]
    fn chosen_task_is_unlinked_but_marked_on_queue() {
        let mut rig = rig(SchedConfig::up());
        let a = rig.spawn("a");
        let next = rig.schedule(0, rig.idle(0));
        assert_eq!(next, a);
        let t = rig.tasks.task(a);
        assert!(t.on_runqueue(), "must still look on-queue");
        assert!(!t.in_list(), "must be off the actual list");
        assert!(t.has_cpu);
        assert_eq!(rig.sched.nr_running(), 1);
    }

    #[test]
    fn prev_is_reinserted_and_can_be_rechosen() {
        let mut rig = rig(SchedConfig::up());
        let a = rig.spawn("a");
        let first = rig.schedule(0, rig.idle(0));
        assert_eq!(first, a);
        // Quantum tick elsewhere; still runnable, calls schedule again.
        rig.tasks.task_mut(a).counter = 10;
        let second = rig.schedule(0, a);
        assert_eq!(second, a);
        assert_eq!(rig.sched.nr_running(), 1);
    }

    #[test]
    fn picks_from_highest_populated_list() {
        let mut rig = rig(SchedConfig::up());
        let weak = rig.spawn("weak");
        rig.tasks.task_mut(weak).counter = 2; // sg 22 -> list 5
                                              // Re-link with the new counter.
        rig.del(weak);
        rig.add(weak);
        let strong = rig.spawn("strong"); // counter 20 -> list 10
        let next = rig.schedule(0, rig.idle(0));
        assert_eq!(next, strong);
    }

    #[test]
    fn bounded_examination_regardless_of_queue_length() {
        let mut rig = rig(SchedConfig::up());
        for _ in 0..500 {
            rig.spawn("t"); // all identical -> same list
        }
        rig.schedule(0, rig.idle(0));
        // UP limit = 5 (paper: nr_cpus/2 + 5)... the UP mm shortcut can
        // stop even earlier. Either way: bounded, nowhere near 500.
        let examined = rig.stats.cpu(0).tasks_examined;
        assert!(examined <= 5, "examined {examined} tasks");
    }

    #[test]
    fn up_shortcut_stops_on_mm_match() {
        let mut rig = rig(SchedConfig::up());
        let prev = rig.spawn("prev");
        rig.tasks.task_mut(prev).mm = MmId(3);
        // prev runs, then blocks.
        let got = rig.schedule(0, rig.idle(0));
        assert_eq!(got, prev);
        // Fillers that will sit *behind* the kin (LIFO front inserts).
        for _ in 0..3 {
            let f = rig.spawn("filler");
            rig.tasks.task_mut(f).mm = MmId(4);
        }
        let kin = rig.spawn("kin");
        // Lift the kin to the bucket maximum of list 10 (static
        // 40..=43): the shortcut condition is met and is exact.
        rig.tasks.task_mut(kin).counter = 23;
        rig.tasks.task_mut(kin).mm = MmId(3);
        let other = rig.spawn("other");
        rig.tasks.task_mut(other).mm = MmId(4);
        // Queue front-to-back within the list: other, kin, fillers.
        rig.tasks.task_mut(prev).state = TaskState::Interruptible;
        let before = rig.stats.cpu(0).tasks_examined;
        let next = rig.schedule(0, prev);
        assert_eq!(next, kin, "mm match wins despite queue position");
        // The shortcut stopped the scan: other + kin only, the three
        // fillers behind the kin were never examined.
        assert_eq!(rig.stats.cpu(0).tasks_examined - before, 2);
    }

    #[test]
    fn up_shortcut_yields_to_better_goodness_in_same_list() {
        // Regression: the UP mm shortcut used to fire on *any* kin,
        // even when a same-list rival had strictly higher goodness
        // (lists bucket four static-goodness values, and the +1 mm
        // bonus cannot close a 3-point static gap). §5.2 semantics:
        // the best-goodness task must win.
        let mut rig = rig(SchedConfig::up());
        let prev = rig.spawn("prev");
        rig.tasks.task_mut(prev).mm = MmId(3);
        let got = rig.schedule(0, rig.idle(0));
        assert_eq!(got, prev);
        let rival = rig.spawn("rival");
        rig.tasks.task_mut(rival).mm = MmId(4);
        // static 43 (still list 10): w = 43 + 15 = 58.
        rig.tasks.task_mut(rival).counter = 23;
        let kin = rig.spawn("kin");
        // static 40: w = 40 + 15 + 1 = 56 — kin loses despite the bonus.
        rig.tasks.task_mut(kin).mm = MmId(3);
        // Front-to-back: kin, rival — the old shortcut stopped at kin.
        rig.tasks.task_mut(prev).state = TaskState::Interruptible;
        let next = rig.schedule(0, prev);
        assert_eq!(next, rival, "strictly better goodness beats the mm kin");
    }

    #[test]
    fn yield_with_alternative_runs_the_alternative() {
        let mut rig = rig(SchedConfig::up());
        let y = rig.spawn("y");
        let got = rig.schedule(0, rig.idle(0));
        assert_eq!(got, y);
        let o = rig.spawn("o");
        rig.tasks.task_mut(y).policy.yielded = true;
        let next = rig.schedule(0, y);
        assert_eq!(next, o);
        assert!(!rig.tasks.task(y).policy.yielded, "yield bit consumed");
        assert_eq!(rig.stats.cpu(0).yield_reruns, 0);
    }

    #[test]
    fn lone_yielder_is_rerun_without_recalc() {
        // The headline behavioural fix (Figure 2).
        let mut rig = rig(SchedConfig::up());
        let y = rig.spawn("y");
        let got = rig.schedule(0, rig.idle(0));
        assert_eq!(got, y);
        for round in 1..=100 {
            rig.tasks.task_mut(y).policy.yielded = true;
            let next = rig.schedule(0, y);
            assert_eq!(next, y);
            assert_eq!(rig.stats.cpu(0).recalc_entries, 0, "round {round}");
        }
        assert_eq!(rig.stats.cpu(0).yield_reruns, 100);
    }

    #[test]
    fn all_quanta_exhausted_triggers_one_recalc() {
        let mut rig = rig(SchedConfig::up());
        let a = rig.spawn("a");
        let got = rig.schedule(0, rig.idle(0));
        assert_eq!(got, a);
        // a exhausts its quantum while running.
        rig.tasks.task_mut(a).counter = 0;
        let next = rig.schedule(0, a);
        assert_eq!(next, a);
        assert_eq!(rig.stats.cpu(0).recalc_entries, 1);
        assert_eq!(rig.tasks.task(a).counter, 20);
    }

    #[test]
    fn blocked_prev_leaves_queue() {
        let mut rig = rig(SchedConfig::up());
        let a = rig.spawn("a");
        let b = rig.spawn("b");
        let got = rig.schedule(0, rig.idle(0));
        // LIFO front insert: b is at the front of the list.
        assert_eq!(got, b);
        rig.tasks.task_mut(b).state = TaskState::Interruptible;
        let next = rig.schedule(0, b);
        assert_eq!(next, a);
        assert!(!rig.tasks.task(b).on_runqueue());
        assert_eq!(rig.sched.nr_running(), 1);
    }

    #[test]
    fn smp_skips_tasks_running_elsewhere_and_descends() {
        let mut rig = rig(SchedConfig::smp(2));
        let strong = rig.spawn("strong"); // list 10
        let weak = rig.spawn("weak");
        rig.tasks.task_mut(weak).counter = 2; // list 5
        rig.del(weak);
        rig.add(weak);
        // strong is executing on CPU 1 but (oddly) still linked — that
        // happens between wakeup and its first schedule; simulate it.
        rig.tasks.task_mut(strong).has_cpu = true;
        rig.tasks.task_mut(strong).processor = 1;
        let next = rig.schedule(0, rig.idle(0));
        assert_eq!(next, weak, "descend past the occupied top list");
    }

    #[test]
    fn realtime_chosen_by_rt_priority_not_bonuses() {
        let mut rig = rig(SchedConfig::up());
        let low = rig
            .tasks
            .spawn(&TaskSpec::named("rt-low").realtime(SchedClass::Fifo, 53));
        let high = rig
            .tasks
            .spawn(&TaskSpec::named("rt-high").realtime(SchedClass::Fifo, 57));
        rig.add(low);
        rig.add(high);
        // Same RT list (53/10 == 57/10 == 5 -> list 25); low is in front.
        let next = rig.schedule(0, rig.idle(0));
        assert_eq!(next, high);
    }

    #[test]
    fn realtime_beats_timesharing() {
        let mut rig = rig(SchedConfig::up());
        let normal = rig.spawn("normal");
        rig.tasks.task_mut(normal).counter = 40;
        let rt = rig
            .tasks
            .spawn(&TaskSpec::named("rt").realtime(SchedClass::Rr, 0));
        rig.add(rt);
        let next = rig.schedule(0, rig.idle(0));
        assert_eq!(next, rt);
    }

    #[test]
    fn rr_exhaustion_moves_to_end_of_list() {
        let mut rig = rig(SchedConfig::up());
        let rr1 = rig
            .tasks
            .spawn(&TaskSpec::named("rr1").realtime(SchedClass::Rr, 10));
        let rr2 = rig
            .tasks
            .spawn(&TaskSpec::named("rr2").realtime(SchedClass::Rr, 10));
        rig.add(rr1);
        rig.add(rr2);
        let got = rig.schedule(0, rig.idle(0));
        assert_eq!(got, rr2, "front of the RT list");
        // rr2 exhausts its quantum.
        rig.tasks.task_mut(rr2).counter = 0;
        let next = rig.schedule(0, rr2);
        assert_eq!(next, rr1, "exhausted RR task went to the back");
        assert_eq!(rig.tasks.task(rr2).counter, rig.tasks.task(rr2).priority);
    }

    #[test]
    fn scheduler_cost_is_flat_in_queue_length() {
        // The mirror image of the baseline's linear-cost test.
        let cost_at = |n: usize| -> u64 {
            let mut rig = rig(SchedConfig::up());
            for _ in 0..n {
                rig.spawn("t");
            }
            rig.meter.take();
            rig.schedule(0, rig.idle(0));
            rig.meter.take()
        };
        let c10 = cost_at(10);
        let c1000 = cost_at(1000);
        assert_eq!(c10, c1000, "ELSC cost must not depend on queue length");
    }

    #[test]
    fn zero_counter_wakeups_park_until_recalc() {
        let mut rig = rig(SchedConfig::up());
        let fresh = rig.spawn("fresh");
        let parked = rig.tasks.spawn(&TaskSpec::named("parked"));
        rig.tasks.task_mut(parked).counter = 0;
        rig.add(parked);
        // The parked task is not usable yet.
        let next = rig.schedule(0, rig.idle(0));
        assert_eq!(next, fresh);
        // fresh exhausts its quantum: recalc promotes parked in place.
        rig.tasks.task_mut(fresh).counter = 0;
        let next = rig.schedule(0, fresh);
        assert_eq!(rig.stats.cpu(0).recalc_entries, 1);
        // Both are usable now; either may win (same list; parked was
        // appended behind fresh's reinsertion... fresh wins the front).
        assert!(next == fresh || next == parked);
        rig.sched.debug_check(&rig.tasks);
    }

    #[test]
    fn del_of_running_marked_task_clears_marker() {
        let mut rig = rig(SchedConfig::up());
        let a = rig.spawn("a");
        let got = rig.schedule(0, rig.idle(0));
        assert_eq!(got, a);
        // a exits while running: the machine dels it from the run queue.
        rig.del(a);
        assert!(!rig.tasks.task(a).on_runqueue());
        assert_eq!(rig.sched.nr_running(), 0);
        rig.sched.debug_check(&rig.tasks);
    }
}
