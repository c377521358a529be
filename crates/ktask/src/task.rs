//! The task structure: the scheduling-relevant fields of Linux 2.3.99's
//! `struct task_struct` (paper Table 1).

use core::fmt;

use crate::list::ListNode;
use crate::tid::Tid;
use crate::{DEF_PRIORITY, MAX_PRIORITY, MAX_RT_PRIORITY, MIN_PRIORITY};

/// Identifier of a (simulated) processor.
pub type CpuId = usize;

/// An address space (the kernel's `struct mm_struct *`).
///
/// Tasks sharing an `MmId` share a memory map, which earns the +1
/// `goodness()` bonus when following the previous task. `MmId::KERNEL`
/// marks kernel threads (no user mm).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct MmId(pub u32);

impl MmId {
    /// The kernel address space (kernel threads, idle tasks).
    pub const KERNEL: MmId = MmId(0);
}

/// The six task states of the 2.3 kernel (paper §3.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TaskState {
    /// `TASK_RUNNING`: runnable (possibly actually running).
    Running,
    /// `TASK_INTERRUPTIBLE`: blocked, wakeable by signals.
    Interruptible,
    /// `TASK_UNINTERRUPTIBLE`: blocked, not wakeable by signals.
    Uninterruptible,
    /// `TASK_STOPPED`: stopped by job control / ptrace.
    Stopped,
    /// `TASK_ZOMBIE`: exited, awaiting reaping.
    Zombie,
    /// `TASK_SWAPPING`: legacy state retained by 2.3 kernels.
    Swapping,
}

impl TaskState {
    /// Whether a task in this state may be placed on the run queue.
    #[inline]
    pub fn is_runnable(self) -> bool {
        matches!(self, TaskState::Running)
    }

    /// Whether this is a blocked-but-alive state.
    #[inline]
    pub fn is_blocked(self) -> bool {
        matches!(
            self,
            TaskState::Interruptible | TaskState::Uninterruptible | TaskState::Swapping
        )
    }
}

/// Scheduling class from the `policy` field.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedClass {
    /// `SCHED_OTHER`: ordinary time-sharing tasks.
    #[default]
    Other,
    /// `SCHED_FIFO`: real-time, runs until it blocks or yields.
    Fifo,
    /// `SCHED_RR`: real-time round-robin.
    Rr,
}

impl SchedClass {
    /// Whether this is one of the two real-time classes.
    #[inline]
    pub fn is_realtime(self) -> bool {
        !matches!(self, SchedClass::Other)
    }
}

/// The `policy` field: scheduling class plus the `SCHED_YIELD` bit that
/// `sys_sched_yield()` sets for the scheduler to consume.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Policy {
    /// Scheduling class.
    pub class: SchedClass,
    /// The `SCHED_YIELD` bit.
    pub yielded: bool,
}

impl Policy {
    /// An ordinary `SCHED_OTHER` policy.
    pub const OTHER: Policy = Policy {
        class: SchedClass::Other,
        yielded: false,
    };

    /// A `SCHED_FIFO` policy.
    pub const FIFO: Policy = Policy {
        class: SchedClass::Fifo,
        yielded: false,
    };

    /// A `SCHED_RR` policy.
    pub const RR: Policy = Policy {
        class: SchedClass::Rr,
        yielded: false,
    };
}

/// Specification for creating a task.
#[derive(Clone, Debug)]
pub struct TaskSpec {
    /// Scheduling class.
    pub class: SchedClass,
    /// Static priority (clamped to `[MIN_PRIORITY, MAX_PRIORITY]`).
    pub priority: i32,
    /// Real-time priority (clamped to `[0, MAX_RT_PRIORITY]`).
    pub rt_priority: i32,
    /// Address space.
    pub mm: MmId,
    /// Debug name (shows up in traces and panics).
    pub name: &'static str,
}

impl Default for TaskSpec {
    fn default() -> Self {
        TaskSpec {
            class: SchedClass::Other,
            priority: DEF_PRIORITY,
            rt_priority: 0,
            mm: MmId::KERNEL,
            name: "task",
        }
    }
}

impl TaskSpec {
    /// A default `SCHED_OTHER` spec with the given name.
    pub fn named(name: &'static str) -> Self {
        TaskSpec {
            name,
            ..TaskSpec::default()
        }
    }

    /// Sets the address space.
    pub fn mm(mut self, mm: MmId) -> Self {
        self.mm = mm;
        self
    }

    /// Sets the static priority.
    pub fn priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Makes this a real-time task of the given class and priority.
    pub fn realtime(mut self, class: SchedClass, rt_priority: i32) -> Self {
        self.class = class;
        self.rt_priority = rt_priority;
        self
    }
}

/// The basic execution context (paper §3.1, Table 1).
#[derive(Clone, Debug)]
pub struct Task {
    /// This task's handle (self-reference, convenient in scan loops).
    pub tid: Tid,
    /// `volatile long state`.
    pub state: TaskState,
    /// `unsigned long policy` (class + `SCHED_YIELD` bit).
    pub policy: Policy,
    /// `long counter`: remaining quantum in 10 ms ticks,
    /// `0 ..= 2 * priority`.
    pub counter: i32,
    /// `long priority`: static priority, 1..=40, default 20.
    pub priority: i32,
    /// `rt_priority`: real-time priority, 0..=99 (separate field in the
    /// kernel, meaningful only for `SCHED_FIFO`/`SCHED_RR`).
    pub rt_priority: i32,
    /// `struct mm_struct *mm`.
    pub mm: MmId,
    /// `struct list_head run_list`: this task's run-queue linkage.
    pub run_list: ListNode,
    /// `int has_cpu`: 1 while executing on a processor.
    pub has_cpu: bool,
    /// `int processor`: the processor the task last ran on (or is running
    /// on when `has_cpu` is set).
    pub processor: CpuId,
    /// Scheduler-private annotation: the run-queue class this task was
    /// indexed into (the ELSC table list index; the ELSC patch adds the
    /// equivalent field to `task_struct`). Unused by the baseline.
    pub rq_hint: u8,
    /// Scheduler-private annotation: whether the task was inserted into
    /// the zero-counter section of its list (ELSC only).
    pub rq_zero: bool,
    /// Debug name.
    pub name: &'static str,
}

// The run-list scans read one whole record per candidate, so a field added
// to `Task` is a field added to every scan's working set; the mega reg
// cells (thousands of tasks examined per call) are where it would show.
const _: () = assert!(core::mem::size_of::<Task>() <= 72);

impl Task {
    /// Creates a fresh runnable task from a spec.
    ///
    /// The initial `counter` equals `priority`, as after `fork()` in the
    /// kernel (parent and child split the quantum; we give a full one).
    pub fn new(tid: Tid, spec: &TaskSpec) -> Task {
        let priority = spec.priority.clamp(MIN_PRIORITY, MAX_PRIORITY);
        let rt_priority = spec.rt_priority.clamp(0, MAX_RT_PRIORITY);
        Task {
            tid,
            state: TaskState::Running,
            policy: Policy {
                class: spec.class,
                yielded: false,
            },
            counter: priority,
            priority,
            rt_priority,
            mm: spec.mm,
            run_list: ListNode::detached(),
            has_cpu: false,
            processor: 0,
            rq_hint: 0,
            rq_zero: false,
            name: spec.name,
        }
    }

    /// Whether the rest of the kernel considers this task on the run
    /// queue. Matches the kernel convention the paper describes: the
    /// `next` pointer of `run_list` is non-NULL.
    #[inline]
    pub fn on_runqueue(&self) -> bool {
        !self.run_list.next.is_nil()
    }

    /// Whether the task is actually linked into a run-queue list right
    /// now. Under ELSC a running task is "on the run queue" but *not* in
    /// any list; the `prev` pointer distinguishes the two (paper §5.1,
    /// footnote 3).
    #[inline]
    pub fn in_list(&self) -> bool {
        !self.run_list.prev.is_nil()
    }

    /// The static part of `goodness()`: `counter + priority` (paper §5).
    ///
    /// Only meaningful for `SCHED_OTHER` tasks; real-time tasks sort by
    /// `rt_priority` instead.
    #[inline]
    pub fn static_goodness(&self) -> i32 {
        self.counter + self.priority
    }
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {:?} cnt={} pri={}",
            self.name, self.tid, self.state, self.counter, self.priority
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_defaults() {
        let s = TaskSpec::default();
        assert_eq!(s.priority, DEF_PRIORITY);
        assert_eq!(s.class, SchedClass::Other);
        assert_eq!(s.mm, MmId::KERNEL);
    }

    #[test]
    fn new_task_is_runnable_with_full_quantum() {
        let t = Task::new(Tid::from_raw(0, 0), &TaskSpec::default());
        assert_eq!(t.state, TaskState::Running);
        assert_eq!(t.counter, DEF_PRIORITY);
        assert!(!t.on_runqueue());
        assert!(!t.in_list());
        assert!(!t.has_cpu);
    }

    #[test]
    fn priority_is_clamped() {
        let t = Task::new(Tid::from_raw(0, 0), &TaskSpec::default().priority(1000));
        assert_eq!(t.priority, MAX_PRIORITY);
        let t = Task::new(Tid::from_raw(0, 0), &TaskSpec::default().priority(-5));
        assert_eq!(t.priority, MIN_PRIORITY);
    }

    #[test]
    fn rt_priority_is_clamped() {
        let t = Task::new(
            Tid::from_raw(0, 0),
            &TaskSpec::default().realtime(SchedClass::Fifo, 500),
        );
        assert_eq!(t.rt_priority, MAX_RT_PRIORITY);
        assert!(t.policy.class.is_realtime());
    }

    #[test]
    fn static_goodness_is_counter_plus_priority() {
        let mut t = Task::new(Tid::from_raw(0, 0), &TaskSpec::default());
        t.counter = 13;
        t.priority = 20;
        assert_eq!(t.static_goodness(), 33);
    }

    #[test]
    fn state_predicates() {
        assert!(TaskState::Running.is_runnable());
        assert!(!TaskState::Zombie.is_runnable());
        assert!(TaskState::Interruptible.is_blocked());
        assert!(TaskState::Uninterruptible.is_blocked());
        assert!(TaskState::Swapping.is_blocked());
        assert!(!TaskState::Running.is_blocked());
        assert!(!TaskState::Zombie.is_blocked());
        assert!(!TaskState::Stopped.is_blocked());
    }

    #[test]
    fn class_predicates() {
        assert!(SchedClass::Fifo.is_realtime());
        assert!(SchedClass::Rr.is_realtime());
        assert!(!SchedClass::Other.is_realtime());
    }

    #[test]
    fn display_contains_name_and_counters() {
        let t = Task::new(Tid::from_raw(2, 0), &TaskSpec::named("worker"));
        let s = t.to_string();
        assert!(s.contains("worker"));
        assert!(s.contains("cnt=20"));
    }
}
