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

use elsc_ktask::{CpuId, MmId, TaskTable, Tid};
use elsc_learn::{quantize, Model, Recency, FEATURES};
use elsc_sched_api::{
    frame, goodness_ignoring_yield_on, topo_affinity_bonus, Load, SchedCtx, Scheduler, Supervised,
    Verdict, IDLE_GOODNESS,
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
    /// The recency feature's clock, the one the machine's
    /// `--decision-trace` keeps, so trained recency columns mean the same
    /// thing at inference.
    recency: Recency,
    /// Predictions made (one per decision with scorable candidates).
    predictions: u64,
    /// Predictions that survived verification.
    hits: u64,
    /// The watchdog's verdict on the last decision's prediction: sound
    /// for a verified hit, bad for a miss, abstaining without one.
    verdict: Verdict,
}

impl LearnedScheduler {
    /// Builds a scheduler from an already-parsed model. `name` is the
    /// report label, conventionally `learned:<model stem>`.
    pub fn new(name: &'static str, model: Model) -> LearnedScheduler {
        LearnedScheduler {
            base: LinuxScheduler::new(),
            model,
            name,
            recency: Recency::default(),
            predictions: 0,
            hits: 0,
            verdict: Verdict::Abstain,
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
        let raw: [i64; FEATURES] = [
            depth as i64,
            task.counter.max(0) as i64,
            task.priority.max(0) as i64,
            task.policy.class.is_realtime() as i64,
            (task.mm == prev_mm) as i64,
            topo_affinity_bonus(&ctx.cfg.topology, cpu, task.processor).max(0) as i64,
            self.recency.of(tid) as i64,
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
        self.recency.tick();
        self.verdict = Verdict::Abstain;
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
                self.verdict = Verdict::Sound;
                return Some(predicted);
            }
            // When nothing within the bound is schedulable either, the
            // world is out of quantum, not the model: no prediction is
            // scored, and the baseline recalculates and picks.
            if best_bounded > 0 || g_pick > 0 {
                self.predictions += 1;
                self.verdict = Verdict::Bad("accuracy_collapse");
                ctx.meter.charge(ctx.costs, CostKind::Mispredict);
            }
            None
        });
        // A miss — or no scorable candidate at all (empty queue) — is
        // the baseline's decision to make.
        let next = verified.unwrap_or_else(|| self.base.select(ctx, cpu, prev, idle, entered));

        if next != idle {
            self.recency.won(next);
        }
        frame::commit(ctx, cpu, prev, next, idle)
    }

    fn nr_running(&self) -> usize {
        self.base.nr_running()
    }

    fn debug_check(&self, tasks: &TaskTable) {
        self.base.debug_check(tasks);
    }

    fn supervised(&mut self) -> Option<&mut dyn Supervised> {
        Some(self)
    }
}

impl Supervised for LearnedScheduler {
    fn load(&self) -> Load {
        Load::Learned {
            name: self.name,
            arch: self.model.arch.name(),
        }
    }

    fn take_verdict(&mut self) -> Verdict {
        std::mem::replace(&mut self.verdict, Verdict::Abstain)
    }

    fn counters(&self) -> [u64; 2] {
        [self.predictions, self.hits]
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
    use elsc_sched_api::{Rig, SchedConfig};
    use elsc_simcore::CostModel;

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

    fn rig(cfg: SchedConfig, model: Model) -> Rig<LearnedScheduler> {
        Rig::new(cfg, LearnedScheduler::new("learned:test", model))
    }

    fn spawn(rig: &mut Rig<LearnedScheduler>, name: &'static str, counter: i32) -> Tid {
        let tid = rig.tasks.spawn(&TaskSpec::named(name));
        rig.tasks.task_mut(tid).counter = counter;
        rig.add(tid);
        tid
    }

    #[test]
    fn verified_hit_dispatches_the_prediction() {
        let mut rig = rig(SchedConfig::up(), good_model());
        spawn(&mut rig, "a", 5);
        let b = spawn(&mut rig, "b", 15);
        let next = rig.schedule(0, rig.idle(0));
        assert_eq!(next, b);
        assert_eq!(rig.sched.counters(), [1, 1]);
        assert_eq!(rig.sched.take_verdict(), Verdict::Sound);
        assert_eq!(rig.sched.take_verdict(), Verdict::Abstain, "take clears");
        assert_eq!(rig.meter.kind_cycles()[CostKind::Mispredict as usize], 0);
    }

    #[test]
    fn misprediction_charges_and_falls_back_to_native_pick() {
        let mut rig = rig(SchedConfig::up(), bad_model());
        spawn(&mut rig, "a", 5);
        let b = spawn(&mut rig, "b", 15);
        let next = rig.schedule(0, rig.idle(0));
        assert_eq!(next, b, "fallback must pick the goodness winner");
        assert_eq!(rig.sched.counters(), [1, 0]);
        assert_eq!(rig.sched.take_verdict(), Verdict::Bad("accuracy_collapse"));
        assert_eq!(
            rig.meter.kind_cycles()[CostKind::Mispredict as usize],
            CostModel::default().get(CostKind::Mispredict)
        );
    }

    #[test]
    fn empty_queue_schedules_idle_without_predicting() {
        let mut rig = rig(SchedConfig::up(), good_model());
        let next = rig.schedule(0, rig.idle(0));
        assert_eq!(next, rig.idle(0));
        assert_eq!(rig.sched.counters(), [0, 0]);
        assert_eq!(rig.sched.take_verdict(), Verdict::Abstain);
        assert_eq!(rig.stats.cpu(0).recalc_entries, 0, "footnote 1 holds");
    }

    #[test]
    fn quantum_exhaustion_recalculates_without_scoring_a_miss() {
        let mut rig = rig(SchedConfig::up(), good_model());
        let a = spawn(&mut rig, "a", 0);
        let b = spawn(&mut rig, "b", 0);
        let next = rig.schedule(0, rig.idle(0));
        assert!(next == a || next == b);
        assert_eq!(rig.stats.cpu(0).recalc_entries, 1);
        assert_eq!(
            rig.sched.counters(),
            [0, 0],
            "an unschedulable world is not the model's miss"
        );
    }

    #[test]
    fn blocking_prev_leaves_the_queue() {
        let mut rig = rig(SchedConfig::up(), good_model());
        let a = spawn(&mut rig, "a", 10);
        let b = spawn(&mut rig, "b", 10);
        rig.tasks.task_mut(a).has_cpu = true;
        rig.tasks.task_mut(a).state = TaskState::Interruptible;
        let next = rig.schedule(0, a);
        assert_eq!(next, b);
        assert!(!rig.tasks.task(a).on_runqueue());
        assert_eq!(rig.sched.nr_running(), 1);
    }

    #[test]
    fn smp_skips_tasks_running_elsewhere() {
        let mut rig = rig(SchedConfig::smp(2), good_model());
        let a = spawn(&mut rig, "a", 40);
        let b = spawn(&mut rig, "b", 1);
        rig.tasks.task_mut(a).has_cpu = true; // on the other CPU
        let next = rig.schedule(0, rig.idle(0));
        assert_eq!(next, b);
    }

    #[test]
    fn drain_preserves_queue_order() {
        let mut rig = rig(SchedConfig::up(), good_model());
        let a = spawn(&mut rig, "a", 5);
        let b = spawn(&mut rig, "b", 5);
        // Adds insert at the front: queue order is b, a.
        let drained = rig.call(|s, ctx| s.drain(ctx));
        assert_eq!(drained, vec![b, a]);
        assert_eq!(rig.sched.nr_running(), 0);
        assert!(!rig.tasks.task(a).on_runqueue());
        assert!(!rig.tasks.task(b).on_runqueue());
    }

    #[test]
    fn yielding_prev_is_not_verified_as_a_hit() {
        let mut rig = rig(SchedConfig::up(), good_model());
        let y = spawn(&mut rig, "y", 20);
        let o = spawn(&mut rig, "o", 5);
        rig.tasks.task_mut(y).policy.yielded = true;
        rig.tasks.task_mut(y).has_cpu = true;
        let next = rig.schedule(0, y);
        assert_eq!(next, o, "the yield must be honoured");
        assert!(!rig.tasks.task(y).policy.yielded, "yield bit consumed");
    }

    #[test]
    fn from_text_round_trips_and_names() {
        let text = good_model().to_text();
        let mut s = LearnedScheduler::from_text("volano-logreg", &text).unwrap();
        assert_eq!(s.name(), "learned:volano-logreg");
        let Some(Load::Learned { arch, .. }) = s.supervised().map(|s| s.load()) else {
            panic!("a model reports a learned load");
        };
        assert_eq!(arch, "logreg");
        assert!(LearnedScheduler::from_text("x", "garbage").is_err());
    }

    #[test]
    fn recency_feature_tracks_wins() {
        // A model scoring only recency (prefer least-recently-run) must
        // alternate between two equal tasks... as long as verification
        // lets it, which it does for equal-goodness candidates.
        let mut m = Model::zeroed(Arch::LogReg);
        m.w[6] = Q_ONE;
        let mut rig = rig(SchedConfig::up(), m);
        let a = spawn(&mut rig, "a", 10);
        let b = spawn(&mut rig, "b", 10);
        let first = rig.schedule(0, rig.idle(0));
        let prev = first;
        let second = rig.schedule(0, prev);
        assert_ne!(first, second, "least-recent candidate wins round 2");
        assert_eq!(rig.sched.counters(), [2, 2]);
        let _ = (a, b);
    }
}
