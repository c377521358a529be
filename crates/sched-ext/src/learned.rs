//! The `learned:<model>` scheduler: model-predicted picks with a
//! verified native fallback.
//!
//! A trained `elsc-learn` model (logistic regression or MLP over the
//! seven per-candidate features) predicts which task `schedule()` should
//! pick. The prediction is never trusted blindly: a **bounded goodness
//! check** — the first `search_limit()` queue candidates, the same bound
//! ELSC's table search uses — verifies the pick is at least as good as
//! anything the bound saw. A verified hit dispatches straight away, so a
//! good model replaces the baseline's O(n) goodness scan with O(n) cheap
//! table-index scores plus an O(limit) verification. A failed check
//! charges one [`CostKind::Mispredict`] (pipeline-flush class) and falls
//! back to the full native scan, so a bad model costs strictly *more*
//! than the baseline — which the machine's accuracy watchdog notices and
//! punishes with deterministic ejection (`learn_eject_k` consecutive
//! misses), reusing the policy watchdog's swap-to-baseline machinery.
//!
//! The scheduler *is* `reg` plus that verified shortcut: it wraps a
//! [`LinuxScheduler`], delegates every queue operation to it, and its
//! fallback is the baseline's own selection — so it can never pick
//! worse than `reg`, and an ejection's drain + reversed re-add into a
//! fresh baseline scheduler preserves queue order exactly.
//!
//! One deliberate train/inference skew: the machine snapshots trace
//! features *before* `schedule()` runs, but inference scores *after* the
//! RR quantum refresh on `prev`. Only exhausted SCHED_RR prevs are
//! affected, and the verification bound catches any pick the skew
//! misleads.

use std::collections::HashMap;

use elsc_ktask::{CpuId, MmId, TaskTable, Tid};
use elsc_learn::{quantize, Model, FEATURES};
use elsc_sched_api::{
    frame, goodness_ignoring_yield_on, topo_affinity_bonus, LearnedInfo, SchedCtx, Scheduler,
    IDLE_GOODNESS,
};
use elsc_sched_linux::LinuxScheduler;
use elsc_simcore::CostKind;

/// A scheduler driving its picks from a trained [`Model`].
#[derive(Debug)]
pub struct LearnedScheduler {
    /// The run queue, its manipulators and the fallback selection.
    base: LinuxScheduler,
    /// The trained scorer.
    model: Model,
    /// Report name, `learned:<model stem>`.
    name: &'static str,
    /// Decision counter for the recency feature (mirrors the machine's
    /// `--decision-trace` bookkeeping, so trained recency columns mean
    /// the same thing at inference).
    decisions: u64,
    /// Decision index of each task's last win on any CPU.
    last_picked: HashMap<Tid, u64>,
    /// Predictions made (one per decision with scorable candidates).
    predictions: u64,
    /// Predictions that survived verification.
    hits: u64,
    /// Outcome of the last decision's prediction, for the machine's
    /// watchdog poll.
    last_outcome: Option<bool>,
}

impl LearnedScheduler {
    /// Builds a scheduler from an already-parsed model. `name` is the
    /// report label, conventionally `learned:<model stem>`.
    pub fn new(name: &'static str, model: Model) -> LearnedScheduler {
        LearnedScheduler {
            base: LinuxScheduler::new(),
            model,
            name,
            decisions: 0,
            last_picked: HashMap::new(),
            predictions: 0,
            hits: 0,
            last_outcome: None,
        }
    }

    /// Parses a model file's text and builds the scheduler. `stem` is
    /// the model's short name (file stem); the report name becomes
    /// `learned:<stem>` (leaked once per load, like policy names).
    pub fn from_text(stem: &str, text: &str) -> Result<LearnedScheduler, String> {
        let model = Model::parse(text)?;
        let name: &'static str = Box::leak(format!("learned:{stem}").into_boxed_str());
        Ok(LearnedScheduler::new(name, model))
    }

    /// Scores one candidate: features vs this decision's context, then
    /// the model. `depth` is the queue depth sampled at entry.
    fn score_candidate(
        &self,
        ctx: &SchedCtx<'_>,
        cpu: CpuId,
        tid: Tid,
        depth: u64,
        prev_mm: MmId,
    ) -> i64 {
        let task = ctx.tasks.task(tid);
        let recency = self
            .last_picked
            .get(&tid)
            .map_or(255, |&won| (self.decisions - won).min(255));
        let raw: [i64; FEATURES] = [
            depth as i64,
            task.counter.max(0) as i64,
            task.priority.max(0) as i64,
            task.policy.class.is_realtime() as i64,
            (task.mm == prev_mm) as i64,
            topo_affinity_bonus(&ctx.cfg.topology, cpu, task.processor).max(0) as i64,
            recency as i64,
        ];
        self.model.score(&quantize(&raw))
    }
}

impl Scheduler for LearnedScheduler {
    fn name(&self) -> &'static str {
        self.name
    }

    fn add_to_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        self.base.add_to_runqueue(ctx, tid);
    }

    fn del_from_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        self.base.del_from_runqueue(ctx, tid);
    }

    fn move_first_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        self.base.move_first_runqueue(ctx, tid);
    }

    fn move_last_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        self.base.move_last_runqueue(ctx, tid);
    }

    fn schedule(&mut self, ctx: &mut SchedCtx<'_>, cpu: CpuId, prev: Tid, idle: Tid) -> Tid {
        self.decisions += 1;
        self.last_outcome = None;
        // Queue depth *before* prev leaves, matching the machine's
        // `--decision-trace` sampling point.
        let depth = self.base.nr_running() as u64;
        let entered = frame::enter(&mut self.base, ctx, cpu, prev, idle);
        let prev_mm = entered.prev_mm;
        let smp = ctx.cfg.smp;

        // Prediction pass: model-score every eligible candidate (prev
        // first, then the queue), one TableIndex charge per score — the
        // fixed-topology model evaluates in constant time, like an ELSC
        // table lookup. First-wins argmax mirrors the trainer's eval.
        let mut pick: Option<(i64, Tid)> = None;
        if prev != idle && ctx.tasks.task(prev).state.is_runnable() {
            ctx.meter.charge(ctx.costs, CostKind::TableIndex);
            ctx.stats.cpu_mut(cpu).tasks_examined += 1;
            let s = self.score_candidate(ctx, cpu, prev, depth, prev_mm);
            pick = Some((s, prev));
        }
        let tasks: &TaskTable = ctx.tasks;
        for t in frame::schedulable(self.base.run_list(), 0, tasks, smp, prev) {
            ctx.meter.charge(ctx.costs, CostKind::TableIndex);
            ctx.stats.cpu_mut(cpu).tasks_examined += 1;
            let tid = t.tid;
            let s = self.score_candidate(ctx, cpu, tid, depth, prev_mm);
            if pick.is_none_or(|(bs, _)| s > bs) {
                pick = Some((s, tid));
            }
        }

        // Bounded verification: the predicted pick must be schedulable
        // now (goodness > 0, yield respected) and at least as good as the
        // first `search_limit()` queue candidates.
        let verified = pick.and_then(|(_, predicted)| {
            let g_pick = if predicted == prev && entered.prev_yielded {
                0
            } else {
                let task = ctx.tasks.task(predicted);
                goodness_ignoring_yield_on(&ctx.cfg.topology, task, cpu, prev_mm)
            };
            ctx.meter.charge(ctx.costs, CostKind::GoodnessEval);
            ctx.stats.cpu_mut(cpu).tasks_examined += 1;
            let mut best_bounded = IDLE_GOODNESS;
            let tasks: &TaskTable = ctx.tasks;
            let bound = ctx.cfg.search_limit();
            for t in frame::schedulable(self.base.run_list(), 0, tasks, smp, prev).take(bound) {
                ctx.meter.charge(ctx.costs, CostKind::GoodnessEval);
                ctx.stats.cpu_mut(cpu).tasks_examined += 1;
                let w = goodness_ignoring_yield_on(&ctx.cfg.topology, t, cpu, prev_mm);
                best_bounded = best_bounded.max(w);
            }
            if g_pick > 0 && g_pick >= best_bounded {
                self.predictions += 1;
                self.hits += 1;
                self.last_outcome = Some(true);
                return Some(predicted);
            }
            // When nothing within the bound is schedulable either, the
            // world is out of quantum, not the model: no prediction is
            // scored, and the baseline recalculates and picks.
            if best_bounded > 0 || g_pick > 0 {
                self.predictions += 1;
                self.last_outcome = Some(false);
                ctx.meter.charge(ctx.costs, CostKind::Mispredict);
            }
            None
        });
        // A miss — or no scorable candidate at all (empty queue) — is
        // the baseline's decision to make.
        let next = verified.unwrap_or_else(|| self.base.select(ctx, cpu, prev, idle, entered));

        if next != idle {
            self.last_picked.insert(next, self.decisions);
        }
        frame::commit(ctx, cpu, prev, next, idle)
    }

    fn nr_running(&self) -> usize {
        self.base.nr_running()
    }

    fn debug_check(&self, tasks: &TaskTable) {
        self.base.debug_check(tasks);
    }

    fn learned_info(&self) -> Option<LearnedInfo> {
        Some(LearnedInfo {
            name: self.name,
            arch: self.model.arch.name(),
        })
    }

    fn take_prediction(&mut self) -> Option<bool> {
        self.last_outcome.take()
    }

    fn prediction_stats(&self) -> (u64, u64) {
        (self.predictions, self.hits)
    }

    fn drain(&mut self, ctx: &mut SchedCtx<'_>) -> Vec<Tid> {
        self.base.drain(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsc_ktask::{TaskSpec, TaskState};
    use elsc_learn::model::Arch;
    use elsc_learn::Q_ONE;
    use elsc_sched_api::SchedConfig;
    use elsc_simcore::{CostModel, CycleMeter};
    use elsc_stats::SchedStats;

    /// Model scoring `+counter`: agrees with goodness on equal-priority
    /// timesharing tasks, so its predictions verify.
    fn good_model() -> Model {
        let mut m = Model::zeroed(Arch::LogReg);
        m.w[1] = Q_ONE;
        m
    }

    /// Model scoring `-counter`: prefers exactly the task goodness would
    /// not, so every contested prediction fails verification.
    fn bad_model() -> Model {
        let mut m = Model::zeroed(Arch::LogReg);
        m.w[1] = -Q_ONE;
        m
    }

    struct Rig {
        tasks: TaskTable,
        stats: SchedStats,
        meter: CycleMeter,
        costs: CostModel,
        cfg: SchedConfig,
        sched: LearnedScheduler,
        idle: Tid,
    }

    impl Rig {
        fn new(cfg: SchedConfig, model: Model) -> Rig {
            let mut tasks = TaskTable::new();
            let idle = tasks.spawn(&TaskSpec::named("idle").priority(1));
            tasks.task_mut(idle).counter = 0;
            tasks.task_mut(idle).has_cpu = true;
            Rig {
                tasks,
                stats: SchedStats::new(cfg.nr_cpus),
                meter: CycleMeter::new(),
                costs: CostModel::default(),
                cfg,
                sched: LearnedScheduler::new("learned:test", model),
                idle,
            }
        }

        fn spawn(&mut self, name: &'static str, counter: i32) -> Tid {
            let tid = self.tasks.spawn(&TaskSpec::named(name));
            self.tasks.task_mut(tid).counter = counter;
            let mut ctx = SchedCtx {
                tasks: &mut self.tasks,
                stats: &mut self.stats,
                meter: &mut self.meter,
                costs: &self.costs,
                cfg: &self.cfg,
                probe: None,
                locks: None,
            };
            self.sched.add_to_runqueue(&mut ctx, tid);
            tid
        }

        fn schedule(&mut self, cpu: CpuId, prev: Tid) -> Tid {
            let mut ctx = SchedCtx {
                tasks: &mut self.tasks,
                stats: &mut self.stats,
                meter: &mut self.meter,
                costs: &self.costs,
                cfg: &self.cfg,
                probe: None,
                locks: None,
            };
            let next = self.sched.schedule(&mut ctx, cpu, prev, self.idle);
            self.sched.debug_check(&self.tasks);
            next
        }
    }

    #[test]
    fn verified_hit_dispatches_the_prediction() {
        let mut rig = Rig::new(SchedConfig::up(), good_model());
        rig.spawn("a", 5);
        let b = rig.spawn("b", 15);
        let next = rig.schedule(0, rig.idle);
        assert_eq!(next, b);
        assert_eq!(rig.sched.prediction_stats(), (1, 1));
        assert_eq!(rig.sched.take_prediction(), Some(true));
        assert_eq!(rig.sched.take_prediction(), None, "take clears");
        assert_eq!(rig.meter.kind_cycles()[CostKind::Mispredict as usize], 0);
    }

    #[test]
    fn misprediction_charges_and_falls_back_to_native_pick() {
        let mut rig = Rig::new(SchedConfig::up(), bad_model());
        rig.spawn("a", 5);
        let b = rig.spawn("b", 15);
        let next = rig.schedule(0, rig.idle);
        assert_eq!(next, b, "fallback must pick the goodness winner");
        assert_eq!(rig.sched.prediction_stats(), (1, 0));
        assert_eq!(rig.sched.take_prediction(), Some(false));
        assert_eq!(
            rig.meter.kind_cycles()[CostKind::Mispredict as usize],
            CostModel::default().get(CostKind::Mispredict)
        );
    }

    #[test]
    fn empty_queue_schedules_idle_without_predicting() {
        let mut rig = Rig::new(SchedConfig::up(), good_model());
        let next = rig.schedule(0, rig.idle);
        assert_eq!(next, rig.idle);
        assert_eq!(rig.sched.prediction_stats(), (0, 0));
        assert_eq!(rig.sched.take_prediction(), None);
        assert_eq!(rig.stats.cpu(0).recalc_entries, 0, "footnote 1 holds");
    }

    #[test]
    fn quantum_exhaustion_recalculates_without_scoring_a_miss() {
        let mut rig = Rig::new(SchedConfig::up(), good_model());
        let a = rig.spawn("a", 0);
        let b = rig.spawn("b", 0);
        let next = rig.schedule(0, rig.idle);
        assert!(next == a || next == b);
        assert_eq!(rig.stats.cpu(0).recalc_entries, 1);
        assert_eq!(
            rig.sched.prediction_stats(),
            (0, 0),
            "an unschedulable world is not the model's miss"
        );
    }

    #[test]
    fn blocking_prev_leaves_the_queue() {
        let mut rig = Rig::new(SchedConfig::up(), good_model());
        let a = rig.spawn("a", 10);
        let b = rig.spawn("b", 10);
        rig.tasks.task_mut(a).has_cpu = true;
        rig.tasks.task_mut(a).state = TaskState::Interruptible;
        let next = rig.schedule(0, a);
        assert_eq!(next, b);
        assert!(!rig.tasks.task(a).on_runqueue());
        assert_eq!(rig.sched.nr_running(), 1);
    }

    #[test]
    fn smp_skips_tasks_running_elsewhere() {
        let mut rig = Rig::new(SchedConfig::smp(2), good_model());
        let a = rig.spawn("a", 40);
        let b = rig.spawn("b", 1);
        rig.tasks.task_mut(a).has_cpu = true; // on the other CPU
        let next = rig.schedule(0, rig.idle);
        assert_eq!(next, b);
    }

    #[test]
    fn drain_preserves_queue_order() {
        let mut rig = Rig::new(SchedConfig::up(), good_model());
        let a = rig.spawn("a", 5);
        let b = rig.spawn("b", 5);
        // Adds insert at the front: queue order is b, a.
        let mut ctx = SchedCtx {
            tasks: &mut rig.tasks,
            stats: &mut rig.stats,
            meter: &mut rig.meter,
            costs: &rig.costs,
            cfg: &rig.cfg,
            probe: None,
            locks: None,
        };
        let drained = rig.sched.drain(&mut ctx);
        assert_eq!(drained, vec![b, a]);
        assert_eq!(rig.sched.nr_running(), 0);
        assert!(!ctx.tasks.task(a).on_runqueue());
        assert!(!ctx.tasks.task(b).on_runqueue());
    }

    #[test]
    fn yielding_prev_is_not_verified_as_a_hit() {
        let mut rig = Rig::new(SchedConfig::up(), good_model());
        let y = rig.spawn("y", 20);
        let o = rig.spawn("o", 5);
        rig.tasks.task_mut(y).policy.yielded = true;
        rig.tasks.task_mut(y).has_cpu = true;
        let next = rig.schedule(0, y);
        assert_eq!(next, o, "the yield must be honoured");
        assert!(!rig.tasks.task(y).policy.yielded, "yield bit consumed");
    }

    #[test]
    fn from_text_round_trips_and_names() {
        let text = good_model().to_text();
        let s = LearnedScheduler::from_text("volano-logreg", &text).unwrap();
        assert_eq!(s.name(), "learned:volano-logreg");
        let info = s.learned_info().unwrap();
        assert_eq!(info.arch, "logreg");
        assert!(LearnedScheduler::from_text("x", "garbage").is_err());
    }

    #[test]
    fn recency_feature_tracks_wins() {
        // A model scoring only recency (prefer least-recently-run) must
        // alternate between two equal tasks... as long as verification
        // lets it, which it does for equal-goodness candidates.
        let mut m = Model::zeroed(Arch::LogReg);
        m.w[6] = Q_ONE;
        let mut rig = Rig::new(SchedConfig::up(), m);
        let a = rig.spawn("a", 10);
        let b = rig.spawn("b", 10);
        let first = rig.schedule(0, rig.idle);
        let prev = first;
        let second = rig.schedule(0, prev);
        assert_ne!(first, second, "least-recent candidate wins round 2");
        assert_eq!(rig.sched.prediction_stats(), (2, 2));
        let _ = (a, b);
    }
}
