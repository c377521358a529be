//! Behavioural tests of the baseline's documented quirks — the "quirky
//! rules" the paper promises ELSC will adhere to (§5 footnote 2).

use elsc_ktask::recalc::recalculated_counter;
use elsc_ktask::{MmId, SchedClass, TaskSpec, TaskState, Tid};
use elsc_sched_api::{Rig, SchedConfig, Scheduler};
use elsc_sched_linux::LinuxScheduler;
use elsc_simcore::CostModel;

/// A rig around a fresh `LinuxScheduler`.
fn rig(cfg: SchedConfig) -> Rig<LinuxScheduler> {
    Rig::new(cfg, LinuxScheduler::new())
}

#[test]
fn quirk_realtime_with_zero_counter_still_beats_everyone() {
    // The paper's example of a quirky rule kept intact: "if the current
    // scheduler always selects a real-time task over a SCHED_OTHER task,
    // even if it has a zero counter...".
    let mut rig = rig(SchedConfig::up());
    let other = rig.tasks.spawn(&TaskSpec::named("other"));
    rig.tasks.task_mut(other).counter = 40;
    rig.add(other);
    let rt = rig
        .tasks
        .spawn(&TaskSpec::named("rt").realtime(SchedClass::Fifo, 0));
    rig.tasks.task_mut(rt).counter = 0;
    rig.add(rt);
    assert_eq!(rig.schedule(0, rig.idle(0)), rt);
}

#[test]
fn prev_wins_ties_by_being_evaluated_first() {
    // prev is considered before the queue walk, so with equal goodness it
    // keeps the CPU regardless of queue position.
    let mut rig = rig(SchedConfig::up());
    let a = rig.tasks.spawn(&TaskSpec::named("a").mm(MmId(1)));
    let b = rig.tasks.spawn(&TaskSpec::named("b").mm(MmId(1)));
    rig.add(a);
    rig.add(b);
    let first = rig.schedule(0, rig.idle(0));
    // Whoever won, it stays on subsequent calls.
    for _ in 0..5 {
        assert_eq!(rig.schedule(0, first), first);
    }
}

#[test]
fn recalculation_preserves_sleeper_bonus_ordering() {
    // After the recalc loop, a task that slept (high remaining counter)
    // outranks one that burned its quantum — the interactivity boost.
    let mut rig = rig(SchedConfig::up());
    let sleeper = rig.tasks.spawn(&TaskSpec::named("sleeper"));
    let hog = rig.tasks.spawn(&TaskSpec::named("hog"));
    rig.tasks.task_mut(sleeper).counter = 18;
    rig.tasks.task_mut(sleeper).state = TaskState::Interruptible;
    rig.tasks.task_mut(hog).counter = 0;
    rig.add(hog);
    // Only the exhausted hog is runnable: recalc fires.
    let next = rig.schedule(0, rig.idle(0));
    assert_eq!(next, hog);
    assert_eq!(rig.stats.cpu(0).recalc_entries, 1);
    let s = rig.tasks.task(sleeper).counter;
    let h = rig.tasks.task(hog).counter;
    assert_eq!(s, 18 / 2 + 20);
    assert_eq!(h, 20);
    assert!(s > h, "the sleeper must come back stronger");
}

#[test]
fn repeated_recalc_converges_to_twice_priority() {
    let mut rig = rig(SchedConfig::up());
    let sleeper = rig.tasks.spawn(&TaskSpec::named("s"));
    rig.tasks.task_mut(sleeper).state = TaskState::Interruptible;
    let hog = rig.tasks.spawn(&TaskSpec::named("h"));
    rig.add(hog);
    for _ in 0..20 {
        rig.tasks.task_mut(hog).counter = 0;
        rig.tasks.task_mut(hog).has_cpu = true;
        let _ = rig.schedule(0, hog);
    }
    let c = rig.tasks.task(sleeper).counter;
    assert!(
        c == 39 || c == 40,
        "sleeper counter {c} should converge to ~2*priority"
    );
}

#[test]
fn move_first_biases_tie_selection() {
    let mut rig = rig(SchedConfig::up());
    let a = rig.tasks.spawn(&TaskSpec::named("a").mm(MmId(1)));
    let b = rig.tasks.spawn(&TaskSpec::named("b").mm(MmId(1)));
    rig.add(a);
    rig.add(b); // queue: b, a
    rig.call(|s, ctx| s.move_first_runqueue(ctx, a));
    assert_eq!(
        rig.sched.run_list().collect(&rig.tasks, 0),
        vec![a.index() as u32, b.index() as u32]
    );
    assert_eq!(rig.schedule(0, rig.idle(0)), a);
}

#[test]
fn yielding_rt_task_gives_way_once() {
    // SCHED_YIELD applies to RT prev too: another runnable RT task of
    // equal priority gets the CPU for one round.
    let mut rig = rig(SchedConfig::up());
    let rt1 = rig
        .tasks
        .spawn(&TaskSpec::named("rt1").realtime(SchedClass::Rr, 10));
    let rt2 = rig
        .tasks
        .spawn(&TaskSpec::named("rt2").realtime(SchedClass::Rr, 10));
    rig.add(rt1);
    rig.add(rt2);
    let first = rig.schedule(0, rig.idle(0));
    let other = if first == rt1 { rt2 } else { rt1 };
    rig.tasks.task_mut(first).policy.yielded = true;
    assert_eq!(rig.schedule(0, first), other);
}

#[test]
fn recalc_touches_blocked_tasks_proportionally() {
    // The recalc loop's cost is charged per task in the *system*; verify
    // the meter scales with the blocked population.
    let cost_with_blocked = |blocked: usize| {
        let mut rig = rig(SchedConfig::up());
        for _ in 0..blocked {
            let t = rig.tasks.spawn(&TaskSpec::named("blocked"));
            rig.tasks.task_mut(t).state = TaskState::Interruptible;
        }
        let runner = rig.tasks.spawn(&TaskSpec::named("runner"));
        rig.tasks.task_mut(runner).counter = 0;
        rig.add(runner);
        rig.meter.take();
        let _ = rig.schedule(0, rig.idle(0));
        assert_eq!(rig.stats.cpu(0).recalc_entries, 1);
        rig.meter.take()
    };
    let small = cost_with_blocked(10);
    let large = cost_with_blocked(1000);
    let per_task = (large - small) as f64 / 990.0;
    let expected = CostModel::default().get(elsc_simcore::CostKind::RecalcPerTask) as f64;
    assert!(
        (per_task - expected).abs() < 1.0,
        "recalc cost per blocked task {per_task} should be ~{expected}"
    );
}

#[test]
fn predicted_counter_matches_recalc_for_every_state() {
    // Cross-check the helper ELSC's insertion relies on against the
    // actual loop, over a range of counters.
    let mut rig = rig(SchedConfig::up());
    let tids: Vec<Tid> = (0..=40)
        .map(|c| {
            let t = rig.tasks.spawn(&TaskSpec::named("x"));
            rig.tasks.task_mut(t).counter = c;
            rig.tasks.task_mut(t).state = TaskState::Interruptible;
            t
        })
        .collect();
    let predicted: Vec<i32> = tids
        .iter()
        .map(|&t| recalculated_counter(rig.tasks.task(t)))
        .collect();
    // Trigger one recalc via an exhausted runner.
    let runner = rig.tasks.spawn(&TaskSpec::named("runner"));
    rig.tasks.task_mut(runner).counter = 0;
    rig.add(runner);
    let _ = rig.schedule(0, rig.idle(0));
    for (i, &t) in tids.iter().enumerate() {
        assert_eq!(rig.tasks.task(t).counter, predicted[i], "counter {i}");
    }
}
