//! Behavioural tests of the ELSC search loop, including the two
//! *intentional* divergences from the baseline that the paper documents
//! in §5.2 ("we describe how the ELSC scheduler behaves differently").

use elsc::ElscScheduler;
use elsc_ktask::{CpuId, MmId, SchedClass, TaskSpec, TaskState, Tid};
use elsc_sched_api::{Rig, SchedConfig, Scheduler};
use elsc_sched_linux::LinuxScheduler;

/// Spawns a task with `counter` ticks left, last run on `cpu`, in address
/// space `mm`, and adds it to the run queue.
fn spawn<S: Scheduler + ?Sized>(rig: &mut Rig<S>, counter: i32, cpu: CpuId, mm: MmId) -> Tid {
    let tid = rig.tasks.spawn(&TaskSpec::named("t").mm(mm));
    let t = rig.tasks.task_mut(tid);
    t.counter = counter;
    t.processor = cpu;
    rig.add(tid);
    tid
}

#[test]
fn difference_one_bonus_rich_task_in_lower_list_is_passed_over() {
    // Paper §5.2: "it is possible that a task residing in the second
    // highest priority list, which would receive these bonuses and have
    // had a higher goodness() value than the chosen task, is not run. We
    // decided this behavioral difference is acceptable."
    //
    // strong: static 40 (list 10), last ran on CPU 1, foreign mm -> full
    // goodness from CPU 0 is 40.
    // kin: static 37 (list 9), last ran on CPU 0, shares prev's mm -> full
    // goodness 37 + 15 + 1 = 53. The baseline runs kin; ELSC runs strong.
    let cfg = SchedConfig::smp(2);

    let mut rig = Rig::new(cfg.clone(), ElscScheduler::new());
    rig.tasks.task_mut(rig.idle(0)).mm = MmId(7);
    let strong = spawn(&mut rig, 20, 1, MmId(3));
    let kin = spawn(&mut rig, 17, 0, MmId(7));
    assert_eq!(rig.schedule(0, rig.idle(0)), strong);

    let mut rig = Rig::new(cfg, LinuxScheduler::new());
    rig.tasks.task_mut(rig.idle(0)).mm = MmId(7);
    let strong2 = spawn(&mut rig, 20, 1, MmId(3));
    let kin2 = spawn(&mut rig, 17, 0, MmId(7));
    assert_eq!(rig.schedule(0, rig.idle(0)), kin2);
    let _ = (kin, strong2);
}

#[test]
fn difference_two_lone_yielder_rerun_vs_recalc() {
    // Paper §5.2 end: the baseline recalculates every counter in the
    // system when a yielding task is alone; ELSC re-runs it (when its
    // counter is non-zero).
    let run = |sched: Box<dyn Scheduler>| {
        let mut rig = Rig::boxed(SchedConfig::up(), sched);
        let y = spawn(&mut rig, 20, 0, MmId(1));
        assert_eq!(rig.schedule(0, rig.idle(0)), y);
        rig.tasks.task_mut(y).policy.yielded = true;
        assert_eq!(rig.schedule(0, y), y);
        rig
    };
    let rig = run(Box::new(LinuxScheduler::new()));
    assert_eq!(rig.stats.cpu(0).recalc_entries, 1, "baseline recalculates");

    let rig = run(Box::new(ElscScheduler::new()));
    assert_eq!(rig.stats.cpu(0).recalc_entries, 0, "ELSC re-runs instead");
    assert_eq!(rig.stats.cpu(0).yield_reruns, 1);
}

#[test]
fn lone_yielder_with_zero_counter_does_recalculate() {
    // The paper's carve-out: ELSC re-runs the yielder only "if it does
    // not have a zero counter value".
    let mut rig = Rig::new(SchedConfig::up(), ElscScheduler::new());
    let y = spawn(&mut rig, 20, 0, MmId(1));
    assert_eq!(rig.schedule(0, rig.idle(0)), y);
    rig.tasks.task_mut(y).counter = 0;
    rig.tasks.task_mut(y).policy.yielded = true;
    let next = rig.schedule(0, y);
    assert_eq!(next, y);
    assert_eq!(rig.stats.cpu(0).recalc_entries, 1);
    assert_eq!(rig.tasks.task(y).counter, 20, "counter refilled");
}

#[test]
fn search_descends_past_fully_occupied_lists() {
    // SMP: three static classes; the top two lists hold only tasks
    // running on the other CPU, so the scan must descend twice.
    let mut rig = Rig::new(SchedConfig::smp(2), ElscScheduler::new());
    let top = spawn(&mut rig, 20, 1, MmId(1)); // list 10
    let mid = spawn(&mut rig, 12, 1, MmId(1)); // list 8
    let low = spawn(&mut rig, 4, 0, MmId(1)); // list 6
    for t in [top, mid] {
        rig.tasks.task_mut(t).has_cpu = true;
        rig.tasks.task_mut(t).processor = 1;
    }
    assert_eq!(rig.schedule(0, rig.idle(0)), low);
}

#[test]
fn examination_respects_the_search_limit_exactly() {
    // With 20 equal tasks and the UP limit of 5 (no mm shortcut because
    // every mm differs from prev's), exactly 5 are examined.
    let mut rig = Rig::new(SchedConfig::up(), ElscScheduler::new());
    rig.tasks.task_mut(rig.idle(0)).mm = MmId(99);
    for i in 0..20 {
        spawn(&mut rig, 20, 0, MmId(1 + i as u32));
    }
    rig.schedule(0, rig.idle(0));
    assert_eq!(rig.stats.cpu(0).tasks_examined, 5);
}

#[test]
fn custom_search_limit_is_honoured() {
    let mut cfg = SchedConfig::up();
    cfg.elsc_search_limit = Some(2);
    let mut rig = Rig::new(cfg, ElscScheduler::new());
    rig.tasks.task_mut(rig.idle(0)).mm = MmId(99);
    for i in 0..10 {
        spawn(&mut rig, 20, 0, MmId(1 + i as u32));
    }
    rig.schedule(0, rig.idle(0));
    assert_eq!(rig.stats.cpu(0).tasks_examined, 2);
}

#[test]
fn zero_counter_section_ends_the_list_scan() {
    // A list whose usable tasks are exhausted mid-scan: the zero section
    // must stop the walk (those tasks are parked for the next recalc).
    let mut rig = Rig::new(SchedConfig::up(), ElscScheduler::new());
    rig.tasks.task_mut(rig.idle(0)).mm = MmId(99);
    let usable = spawn(&mut rig, 20, 0, MmId(1));
    // Parked zero-counter tasks land in the same list (predicted index).
    for _ in 0..5 {
        spawn(&mut rig, 0, 0, MmId(2));
    }
    let next = rig.schedule(0, rig.idle(0));
    assert_eq!(next, usable);
    // Only the one usable task was examined; the zero section was not.
    assert_eq!(rig.stats.cpu(0).tasks_examined, 1);
}

#[test]
fn blocked_and_requeued_task_is_reindexed_by_fresh_counter() {
    // A task whose counter changed while it ran must land in the right
    // list when it re-enters the queue.
    let mut rig = Rig::new(SchedConfig::up(), ElscScheduler::new());
    let t = spawn(&mut rig, 20, 0, MmId(1));
    assert_eq!(rig.schedule(0, rig.idle(0)), t);
    // Runs for a while: counter drains from 20 to 3 (ticks).
    rig.tasks.task_mut(t).counter = 3;
    // Blocks...
    rig.tasks.task_mut(t).state = TaskState::Interruptible;
    assert_eq!(rig.schedule(0, t), rig.idle(0));
    // ...and wakes: must now be indexed by static goodness 23 -> list 5.
    rig.tasks.task_mut(t).state = TaskState::Running;
    rig.add(t);
    assert_eq!(rig.tasks.task(t).rq_hint, 5);
    assert_eq!(rig.sched.table().top(), Some(5));
    rig.sched.debug_check(&rig.tasks);
}

#[test]
fn rt_region_is_searched_before_other_region() {
    let mut rig = Rig::new(SchedConfig::up(), ElscScheduler::new());
    let _other = spawn(&mut rig, 40, 0, MmId(1));
    let rt = {
        let tid = rig
            .tasks
            .spawn(&TaskSpec::named("rt").realtime(SchedClass::Rr, 3));
        rig.add(tid);
        tid
    };
    assert_eq!(rig.sched.table().top(), Some(20), "RT base list");
    assert_eq!(rig.schedule(0, rig.idle(0)), rt);
}

#[test]
fn moves_on_marked_running_tasks_are_rejected_upstream() {
    // Contract check: move_* requires in_list; the machine never calls it
    // on a running-marked task. Verify the precondition is detectable.
    let mut rig = Rig::new(SchedConfig::up(), ElscScheduler::new());
    let t = spawn(&mut rig, 20, 0, MmId(1));
    assert_eq!(rig.schedule(0, rig.idle(0)), t);
    let task = rig.tasks.task(t);
    assert!(task.on_runqueue() && !task.in_list());
}
