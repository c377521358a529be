//! The machine's state: the [`Machine`] struct, its construction, task
//! spawning and the read-only accessors. What the machine *does* lives in
//! sibling modules, each an `impl Machine` block over the crate-visible
//! fields declared here: `engine` (event loop, stepping, injection),
//! `schedule` (the decision pipeline and the one locked scheduler call),
//! `observe`, `supervise`, `syscall`, `wake`, and the builder in `report`
//! (`DESIGN.md` §6 has the map).

use elsc_chaos::{FaultInjector, Oracle, OracleMode};
use elsc_ktask::{CpuId, TaskSpec, TaskTable, Tid};
use elsc_netsim::{Msg, PipeId, PipeTable};
use elsc_sched_api::{CpuView, LockModel, Scheduler};
use elsc_simcore::{CostKind, CycleMeter, Cycles, EventQueue, SimRng};
use elsc_stats::SchedStats;

use elsc_obs::{CycleProfiler, EventBus, Phase, RingSink, Sink};

use crate::behavior::{Behavior, Syscall};
use crate::config::MachineConfig;
use crate::cpu::CpuState;
use crate::engine::Event;
use crate::observe::{DecisionTracer, TaskWatch};
use crate::report::{Distributions, Ledger};
use crate::supervise::Supervision;

/// Why a run failed.
#[derive(Debug, PartialEq, Eq)]
pub enum RunError {
    /// Virtual time exceeded [`MachineConfig::max_cycles`].
    Watchdog {
        /// Time at which the watchdog fired.
        at: Cycles,
    },
    /// Live tasks remain but none can ever run again.
    Deadlock {
        /// Time of detection.
        at: Cycles,
        /// Number of tasks stuck.
        live: usize,
    },
}

impl core::fmt::Display for RunError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RunError::Watchdog { at } => write!(f, "watchdog expired at {at:?}"),
            RunError::Deadlock { at, live } => {
                write!(f, "deadlock at {at:?}: {live} tasks blocked forever")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// The outcome of one [`Machine::step_until`] slice of a federated run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepStatus {
    /// The barrier was reached with live tasks remaining. `idle` is true
    /// when nothing on this node can make progress without external
    /// input (the per-node half of the cluster deadlock check — a
    /// pending inter-node message elsewhere may still unwedge it).
    Paused {
        /// Whether the node is locally wedged: no runnable task, no
        /// pending wake-ish event.
        idle: bool,
    },
    /// Every spawned task has exited; the node is finished.
    Done,
}

/// A task's in-flight work: remaining compute cycles, then a syscall.
pub(crate) struct Pending {
    pub(crate) remaining: u64,
    pub(crate) syscall: Syscall,
}

/// Where a task stands between two calls of its behaviour: an op in
/// flight, or what its last syscall completed with, for the next call's
/// [`SysView`](crate::behavior::SysView) to read. The two never coexist —
/// a syscall completes only once its op has left flight, and the next
/// behaviour call takes the completion before the next op enters it — so
/// they share one field.
pub(crate) enum Step {
    /// Nothing in flight and nothing to hand over.
    Idle,
    /// An op in flight.
    Pending(Pending),
    /// The last syscall was a read that returned this message.
    Read(Msg),
    /// The last syscall spawned this task.
    Spawned(Tid),
}

/// `TaskRun::woken_at` of a task not woken since it last ran.
const NOT_WOKEN: Cycles = Cycles::MAX;

// Every task carries a `TaskRun`, so its bytes are paid per simulated
// task: a `Syscall` is a write's pipe and message (the rare spawn request
// is boxed), a `Pending` that syscall plus its cycle count, and a `Step`
// fits in the syscall's spare tag values.
const _: () = assert!(core::mem::size_of::<Syscall>() <= 24);
const _: () = assert!(core::mem::size_of::<Pending>() <= 32);
const _: () = assert!(core::mem::size_of::<Step>() <= 32);
const _: () = assert!(core::mem::size_of::<Option<TaskRun>>() <= 112);

/// Machine-side per-task state (parallel to the kernel's task struct).
pub(crate) struct TaskRun {
    pub(crate) behavior: Option<Box<dyn Behavior>>,
    pub(crate) step: Step,
    /// Cold-cache cycles to add to the task's next compute segment after
    /// a migration (0 = none pending). Scaled at migration time by the
    /// topological distance crossed; on a flat tree the scale is 1/1, so
    /// the value is exactly `CostKind::MigrationPenalty`.
    pub(crate) migrate_penalty: u64,
    /// Remaining spin-then-block poll attempts for the current blocking
    /// I/O operation (reset on every successful or parked operation).
    pub(crate) polls_left: u32,
    /// When the task was last woken, for wakeup-to-dispatch latency
    /// (`NOT_WOKEN` once dispatched).
    pub(crate) woken_at: Cycles,
    pub(crate) rng: SimRng,
}

impl TaskRun {
    fn new(behavior: Option<Box<dyn Behavior>>, polls_left: u32, rng: SimRng) -> TaskRun {
        TaskRun {
            behavior,
            step: Step::Idle,
            migrate_penalty: 0,
            polls_left,
            woken_at: NOT_WOKEN,
            rng,
        }
    }

    /// The op in flight, if any.
    pub(crate) fn pending_mut(&mut self) -> Option<&mut Pending> {
        match &mut self.step {
            Step::Pending(p) => Some(p),
            _ => None,
        }
    }

    /// Puts `pending` in flight. The step must be idle: the behaviour
    /// call that produced the op took any completion first.
    pub(crate) fn start(&mut self, pending: Pending) {
        debug_assert!(
            matches!(self.step, Step::Idle),
            "an op started over another step"
        );
        self.step = Step::Pending(pending);
    }

    /// Takes the op in flight out of it.
    ///
    /// # Panics
    ///
    /// Panics if none is.
    pub(crate) fn finish(&mut self) -> Pending {
        match std::mem::replace(&mut self.step, Step::Idle) {
            Step::Pending(p) => p,
            _ => panic!("no op in flight"),
        }
    }

    /// Takes the last syscall's completion as `SysView`'s `(last_read,
    /// last_spawned)`.
    pub(crate) fn take_completion(&mut self) -> (Option<Msg>, Option<Tid>) {
        match std::mem::replace(&mut self.step, Step::Idle) {
            Step::Idle => (None, None),
            Step::Read(msg) => (Some(msg), None),
            Step::Spawned(child) => (None, Some(child)),
            Step::Pending(_) => panic!("a behaviour called with an op in flight"),
        }
    }

    /// When the task was woken, if it was since it last ran; clears it.
    pub(crate) fn take_woken_at(&mut self) -> Option<Cycles> {
        let at = std::mem::replace(&mut self.woken_at, NOT_WOKEN);
        (at != NOT_WOKEN).then_some(at)
    }
}

/// The simulated machine.
///
/// Construct with [`Machine::new`], create pipes and [`Machine::spawn`]
/// tasks, then call [`Machine::run`] to completion. See the crate docs
/// for the execution model.
pub struct Machine {
    pub(crate) cfg: MachineConfig,
    pub(crate) tasks: TaskTable,
    pub(crate) sched: Box<dyn Scheduler>,
    pub(crate) stats: SchedStats,
    pub(crate) pipes: PipeTable,
    pub(crate) runs: Vec<Option<TaskRun>>,
    pub(crate) cpus: Vec<CpuState>,
    pub(crate) events: EventQueue<Event>,
    /// Pending events that are not ticks (deadlock detection).
    pub(crate) pending_wakeish: usize,
    /// The run-queue locks, under the scheduler's declared plan unless
    /// [`MachineConfig::lock_plan`] overrides it; lent to the scheduler
    /// for each locked call.
    pub(crate) locks: LockModel,
    rng: SimRng,
    pub(crate) ledger: Ledger,
    pub(crate) dists: Distributions,
    /// Observability: event bus (bounded ring + pluggable external sinks).
    pub(crate) bus: EventBus,
    /// Observability: per-(CPU, phase, kind) kernel cycle attribution.
    pub(crate) profiler: CycleProfiler,
    /// Every kernel cycle charged anywhere in the machine; must always
    /// equal `profiler.total()` (the conservation invariant).
    pub(crate) kernel_cycles: u64,
    /// Chaos: the deterministic fault injector (None = clean machine).
    pub(crate) injector: Option<FaultInjector>,
    /// Chaos: the differential scheduler oracle (None = not judging).
    pub(crate) oracle: Option<Oracle>,
    /// The `--decision-trace` observer (None = not tracing decisions).
    pub(crate) tracer: Option<DecisionTracer>,
    /// The trace's and the oracle's change-log reader (idle, and the log
    /// unsubscribed, unless one of them is on).
    pub(crate) watch: TaskWatch,
    /// Watchdog record of a loaded policy or learned model (None =
    /// native scheduler, so native runs carry no supervision at all).
    pub(crate) supervision: Option<Supervision>,
    pub(crate) now: Cycles,
    pub(crate) live_users: usize,
    pub(crate) last_exit: Cycles,
    pub(crate) to_free: Vec<Tid>,
    pub(crate) ran: bool,
    /// Reusable per-wakeup CPU snapshot buffer for `reschedule_idle()`.
    pub(crate) view_scratch: Vec<CpuView>,
    /// Migration distance breakdown under a declared multi-level tree:
    /// `[same_core, same_node, cross_node]`. Stays all-zero on flat
    /// trees (no levels to grade by), and is only serialized when the
    /// tree is multi-level.
    pub(crate) topo_migrations: [u64; 3],
    /// Wall-clock seconds the completed run took (never serialized).
    pub(crate) wall_secs: f64,
}

impl Machine {
    /// Builds a machine with the given configuration and scheduler.
    pub fn new(cfg: MachineConfig, mut sched: Box<dyn Scheduler>) -> Machine {
        let mut tasks = TaskTable::new();
        let mut runs: Vec<Option<TaskRun>> = Vec::new();
        let mut rng = SimRng::new(cfg.seed);
        let cpus = (0..cfg.nr_cpus())
            .map(|id| {
                let idle = tasks.spawn(&TaskSpec::named("idle").priority(1));
                let t = tasks.task_mut(idle);
                t.counter = 0;
                t.processor = id;
                t.has_cpu = true;
                grow_to(&mut runs, idle.index());
                runs[idle.index()] = Some(TaskRun::new(None, 0, rng.fork()));
                CpuState::new(id, idle)
            })
            .collect();
        let nr_cpus = cfg.nr_cpus();
        let plan = cfg.lock_plan.unwrap_or_else(|| sched.lock_plan(nr_cpus));
        let locks = LockModel::new(plan, nr_cpus, cfg.costs.get(CostKind::LockTransfer));
        let bus = EventBus::new(cfg.trace_capacity);
        let injector = cfg
            .faults
            .clone()
            .map(|plan| FaultInjector::new(plan, cfg.fault_seed));
        let oracle = cfg
            .oracle
            .then(|| Oracle::new(OracleMode::for_scheduler(sched.name())));
        let tracer = cfg.decision_trace.then(DecisionTracer::default);
        let supervision = Supervision::of(&mut *sched);
        Machine {
            cfg,
            tasks,
            sched,
            stats: SchedStats::new(nr_cpus),
            pipes: PipeTable::new(),
            runs,
            cpus,
            events: EventQueue::new(),
            pending_wakeish: 0,
            locks,
            rng,
            ledger: Ledger::new(),
            dists: Distributions::new(),
            bus,
            profiler: CycleProfiler::new(nr_cpus),
            kernel_cycles: 0,
            injector,
            oracle,
            tracer,
            watch: TaskWatch::default(),
            supervision,
            now: Cycles::ZERO,
            live_users: 0,
            last_exit: Cycles::ZERO,
            to_free: Vec::new(),
            ran: false,
            view_scratch: Vec::new(),
            topo_migrations: [0; 3],
            wall_secs: 0.0,
        }
    }

    /// Makes room for `tasks` more tasks and `pipes` more pipes, so a
    /// builder that knows its population sizes every table once. A
    /// capacity hint only: it changes no report byte. Without it the
    /// tables grow by doubling, and once an earlier machine in the same
    /// process has freed its large tables the allocator serves that
    /// growth from the heap, where the abandoned halves stay resident.
    pub fn reserve(&mut self, tasks: usize, pipes: usize) {
        self.tasks.reserve(tasks);
        self.runs.reserve_exact(tasks);
        self.pipes.reserve(pipes);
    }

    /// Creates a pipe with the given message capacity.
    pub fn create_pipe(&mut self, capacity: usize) -> PipeId {
        self.pipes.create(capacity)
    }

    /// Spawns a task before (or during) the run and makes it runnable.
    pub fn spawn(&mut self, spec: &TaskSpec, behavior: Box<dyn Behavior>) -> Tid {
        let tid = self.spawn_inner(spec, behavior);
        let t = self.now;
        self.make_runnable(tid, 0, t);
        tid
    }

    pub(crate) fn spawn_inner(&mut self, spec: &TaskSpec, behavior: Box<dyn Behavior>) -> Tid {
        let tid = self.tasks.spawn(spec);
        // Spread initial affinity round-robin, as fork balancing would.
        let cpu = (self.tasks.total_spawned() as usize) % self.cfg.nr_cpus();
        self.tasks.task_mut(tid).processor = cpu;
        grow_to(&mut self.runs, tid.index());
        let rng = self.rng.fork();
        self.runs[tid.index()] = Some(TaskRun::new(Some(behavior), self.cfg.io_poll_yields, rng));
        self.live_users += 1;
        tid
    }

    /// Read access to the scheduler statistics (live during a run).
    pub fn stats(&self) -> &SchedStats {
        &self.stats
    }

    /// Read access to the task table.
    pub fn tasks(&self) -> &TaskTable {
        &self.tasks
    }

    /// Read access to the workload ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Read access to the scheduling trace — the event bus's bounded
    /// ring (empty unless [`MachineConfig::trace_capacity`] was set).
    pub fn trace(&self) -> &RingSink {
        self.bus.ring()
    }

    /// Attaches an external observability sink (JSON-lines writer,
    /// callback, ...). Records flow to sinks in attachment order;
    /// attaching sinks never changes the schedule.
    pub fn add_sink(&mut self, sink: Box<dyn Sink>) {
        self.bus.add_sink(sink);
    }

    /// Read access to the cycle-attribution profiler (live during a run).
    pub fn profiler(&self) -> &CycleProfiler {
        &self.profiler
    }

    /// Total kernel cycles charged so far. Always equals
    /// `self.profiler().total()` — the conservation invariant the
    /// profiler tests pin.
    pub fn kernel_cycles(&self) -> u64 {
        self.kernel_cycles
    }

    /// Attributes kernel cycles of one cost kind and counts them toward
    /// the conservation total.
    #[inline]
    pub(crate) fn charge_kernel_kind(
        &mut self,
        cpu: CpuId,
        phase: Phase,
        kind: CostKind,
        cycles: u64,
    ) {
        self.profiler.attribute_kind(cpu, phase, kind, cycles);
        self.kernel_cycles += cycles;
    }

    /// Charges the cost model's price for one `kind` primitive to `cpu`;
    /// returns it so the caller can advance its time cursor.
    pub(crate) fn charge_cost(&mut self, cpu: CpuId, phase: Phase, kind: CostKind) -> u64 {
        let cycles = self.cfg.costs.get(kind);
        self.charge_kernel_kind(cpu, phase, kind, cycles);
        cycles
    }

    /// Attributes kind-less kernel cycles (lock spin).
    #[inline]
    pub(crate) fn charge_kernel_raw(&mut self, cpu: CpuId, phase: Phase, cycles: u64) {
        self.profiler.attribute_raw(cpu, phase, cycles);
        self.kernel_cycles += cycles;
    }

    /// Attributes a whole meter's accumulation, preserving its per-kind
    /// breakdown. Call before `meter.take()`.
    #[inline]
    pub(crate) fn charge_kernel_meter(&mut self, cpu: CpuId, phase: Phase, meter: &CycleMeter) {
        self.profiler.attribute_meter(cpu, phase, meter);
        self.kernel_cycles += meter.cycles();
    }

    pub(crate) fn run_ref(&self, tid: Tid) -> &TaskRun {
        self.runs[tid.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("no run state for {tid:?}"))
    }

    pub(crate) fn run_mut(&mut self, tid: Tid) -> &mut TaskRun {
        self.runs[tid.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("no run state for {tid:?}"))
    }

    /// Discrete events dispatched so far (lifetime pop count of the
    /// event queue).
    pub fn events_dispatched(&self) -> u64 {
        self.events.total_popped()
    }

    /// Wall-clock seconds the completed [`Machine::run`] took. `0.0`
    /// before the run finishes. Informational only — wall time is never
    /// serialized into reports, which must stay byte-identical across
    /// machines.
    pub fn wall_seconds(&self) -> f64 {
        self.wall_secs
    }

    /// Current virtual time (the clock of the last dispatched event).
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Number of spawned tasks that have not exited yet.
    pub fn live_users(&self) -> usize {
        self.live_users
    }

    /// This machine's cluster node identity (0 standalone).
    pub fn node_id(&self) -> u32 {
        self.cfg.node_id
    }
}

/// Whether `tid` is some CPU's idle task.
pub(crate) fn is_idle_task(cpus: &[CpuState], tid: Tid) -> bool {
    cpus.iter().any(|c| c.idle == tid)
}

/// Grows a vector of options so `idx` is addressable.
fn grow_to<T>(v: &mut Vec<Option<T>>, idx: usize) {
    while v.len() <= idx {
        v.push(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{Op, Script};
    use elsc_ktask::MmId;

    fn up_machine() -> Machine {
        // Small watchdog so a broken test fails fast.
        let cfg = MachineConfig::up().with_max_secs(50.0);
        Machine::new(cfg, Box::new(elsc_sched_linux::LinuxScheduler::new()))
    }

    fn smp_machine(n: usize) -> Machine {
        let cfg = MachineConfig::smp(n).with_max_secs(50.0);
        Machine::new(cfg, Box::new(elsc_sched_linux::LinuxScheduler::new()))
    }

    fn elsc_machine(n: usize, smp: bool) -> Machine {
        let cfg = if smp {
            MachineConfig::smp(n)
        } else {
            MachineConfig::up()
        }
        .with_max_secs(50.0);
        Machine::new(cfg, Box::new(elsc::ElscScheduler::new()))
    }

    #[test]
    fn single_task_computes_and_exits() {
        let mut m = up_machine();
        m.spawn(
            &TaskSpec::named("solo"),
            Box::new(Script::new(vec![Op::compute(100_000, Syscall::Nop)])),
        );
        let r = m.run().expect("completes");
        assert!(r.elapsed.get() >= 100_000);
        assert_eq!(r.tasks_spawned, 1);
        let t = r.stats.total();
        assert!(t.sched_calls >= 2, "at least dispatch + exit");
        assert!(t.ctx_switches >= 1);
    }

    #[test]
    fn run_twice_panics() {
        let mut m = up_machine();
        m.spawn(&TaskSpec::named("x"), Box::new(Script::new(vec![])));
        let _ = m.run();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.run()));
        assert!(result.is_err());
    }

    #[test]
    fn two_tasks_share_one_cpu() {
        let mut m = up_machine();
        let burst = 30_000_000; // 3 quanta at 400MHz/100Hz ticks? ticks are 4M cycles; 30M = 7.5 ticks
        m.spawn(
            &TaskSpec::named("a").mm(MmId(1)),
            Box::new(Script::new(vec![Op::compute(burst, Syscall::Nop)])),
        );
        m.spawn(
            &TaskSpec::named("b").mm(MmId(2)),
            Box::new(Script::new(vec![Op::compute(burst, Syscall::Nop)])),
        );
        let r = m.run().expect("completes");
        // Serialized on one CPU: at least the sum of both bursts.
        assert!(r.elapsed.get() >= 2 * burst);
        // Quantum expiry forces preemptions between them.
        let t = r.stats.total();
        assert!(t.ticks > 0);
    }

    #[test]
    fn smp_runs_tasks_in_parallel() {
        let burst = 40_000_000u64;
        let elapsed_on = |cpus: usize| {
            let mut m = smp_machine(cpus);
            for i in 0..4u64 {
                m.spawn(
                    &TaskSpec::named("w").mm(MmId(i as u32 + 1)),
                    Box::new(Script::new(vec![Op::compute(burst, Syscall::Nop)])),
                );
            }
            m.run().expect("completes").elapsed.get()
        };
        let one = elapsed_on(1);
        let four = elapsed_on(4);
        assert!(
            (four as f64) < (one as f64) * 0.5,
            "4 CPUs ({four}) should be much faster than 1 ({one})"
        );
    }

    #[test]
    fn pipe_roundtrip_between_tasks() {
        // Poll-yields disabled so the reader genuinely blocks and the
        // write must wake it.
        let cfg = MachineConfig::up().with_max_secs(50.0).with_poll_yields(0);
        let mut m = Machine::new(cfg, Box::new(elsc_sched_linux::LinuxScheduler::new()));
        let pipe = m.create_pipe(4);
        m.spawn(
            &TaskSpec::named("writer").mm(MmId(1)),
            Box::new(Script::new(vec![
                Op::write_after(10_000, pipe, Msg::tagged(1)),
                Op::write_after(10_000, pipe, Msg::tagged(2)),
            ])),
        );
        m.spawn(
            &TaskSpec::named("reader").mm(MmId(2)),
            Box::new(Script::new(vec![
                Op::read_after(1_000, pipe),
                Op::read_after(1_000, pipe),
            ])),
        );
        let r = m.run().expect("completes");
        assert_eq!(r.messages_read, 2);
        let t = r.stats.total();
        assert!(t.wakeups >= 1, "reader must be woken by the writer");
    }

    #[test]
    fn reader_blocks_until_writer_writes() {
        let mut m = up_machine();
        let pipe = m.create_pipe(1);
        // Reader starts immediately; writer computes a long time first.
        m.spawn(
            &TaskSpec::named("reader").mm(MmId(1)),
            Box::new(Script::new(vec![Op::read_after(1, pipe)])),
        );
        m.spawn(
            &TaskSpec::named("writer").mm(MmId(2)),
            Box::new(Script::new(vec![Op::write_after(
                5_000_000,
                pipe,
                Msg::tagged(9),
            )])),
        );
        let r = m.run().expect("completes");
        // The run can't end before the writer's compute phase.
        assert!(r.elapsed.get() >= 5_000_000);
        assert_eq!(r.messages_read, 1);
    }

    #[test]
    fn bounded_pipe_blocks_writer() {
        let mut m = up_machine();
        let pipe = m.create_pipe(1);
        // Writer floods a capacity-1 pipe; reader drains slowly.
        m.spawn(
            &TaskSpec::named("writer").mm(MmId(1)),
            Box::new(Script::new(
                (0..5)
                    .map(|i| Op::write_after(100, pipe, Msg::tagged(i)))
                    .collect(),
            )),
        );
        m.spawn(
            &TaskSpec::named("reader").mm(MmId(2)),
            Box::new(Script::new(
                (0..5).map(|_| Op::read_after(200_000, pipe)).collect(),
            )),
        );
        let r = m.run().expect("completes");
        assert_eq!(r.messages_read, 5);
    }

    #[test]
    fn sleep_delays_exit() {
        let mut m = up_machine();
        m.spawn(
            &TaskSpec::named("sleeper"),
            Box::new(Script::new(vec![Op::sleep_after(1_000, 8_000_000)])),
        );
        let r = m.run().expect("completes");
        assert!(r.elapsed.get() >= 8_000_000);
        assert!(r.stats.total().wakeups >= 1);
    }

    #[test]
    fn spawn_syscall_creates_running_child() {
        let mut m = up_machine();
        m.spawn(
            &TaskSpec::named("parent").mm(MmId(1)),
            Box::new(Script::new(vec![Op::compute(
                1_000,
                Syscall::Spawn(Box::new(crate::behavior::SpawnReq {
                    spec: TaskSpec::named("child").mm(MmId(2)),
                    behavior: Box::new(Script::new(vec![Op::compute(50_000, Syscall::Nop)])),
                })),
            )])),
        );
        let r = m.run().expect("completes");
        assert_eq!(r.tasks_spawned, 2);
    }

    #[test]
    fn deadlock_is_detected() {
        let mut m = up_machine();
        let pipe = m.create_pipe(1);
        // A reader on a pipe nobody ever writes.
        m.spawn(
            &TaskSpec::named("stuck"),
            Box::new(Script::new(vec![Op::read_after(1_000, pipe)])),
        );
        match m.run() {
            Err(RunError::Deadlock { live, .. }) => assert_eq!(live, 1),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_fires_on_endless_work() {
        let cfg = MachineConfig::up().with_max_secs(0.05);
        let mut m = Machine::new(cfg, Box::new(elsc_sched_linux::LinuxScheduler::new()));
        m.spawn(
            &TaskSpec::named("forever"),
            Box::new(crate::behavior::Spinner { burst: 1_000_000 }),
        );
        match m.run() {
            Err(RunError::Watchdog { .. }) => {}
            other => panic!("expected watchdog, got {other:?}"),
        }
    }

    #[test]
    fn yield_ping_pong_alternates_tasks() {
        let mut m = up_machine();
        for name in ["a", "b"] {
            m.spawn(
                &TaskSpec::named(name).mm(MmId(1)),
                Box::new(Script::new(
                    (0..10).map(|_| Op::yield_after(1_000)).collect(),
                )),
            );
        }
        let r = m.run().expect("completes");
        let t = r.stats.total();
        assert_eq!(t.yields, 20);
        // Yields force schedule() calls.
        assert!(t.sched_calls >= 20);
    }

    #[test]
    fn deterministic_across_runs() {
        let run_once = || {
            let mut m = elsc_machine(2, true);
            let pipe = m.create_pipe(4);
            m.spawn(
                &TaskSpec::named("w").mm(MmId(1)),
                Box::new(Script::new(
                    (0..20)
                        .map(|i| Op::write_after(5_000, pipe, Msg::tagged(i)))
                        .collect(),
                )),
            );
            m.spawn(
                &TaskSpec::named("r").mm(MmId(2)),
                Box::new(Script::new(
                    (0..20).map(|_| Op::read_after(3_000, pipe)).collect(),
                )),
            );
            let r = m.run().expect("completes");
            (r.elapsed, r.stats.total().sched_calls, r.messages_read)
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn elsc_machine_runs_same_workload() {
        let mut m = elsc_machine(1, false);
        let pipe = m.create_pipe(4);
        m.spawn(
            &TaskSpec::named("w").mm(MmId(1)),
            Box::new(Script::new(
                (0..5)
                    .map(|i| Op::write_after(2_000, pipe, Msg::tagged(i)))
                    .collect(),
            )),
        );
        m.spawn(
            &TaskSpec::named("r").mm(MmId(2)),
            Box::new(Script::new(
                (0..5).map(|_| Op::read_after(2_000, pipe)).collect(),
            )),
        );
        let r = m.run().expect("completes");
        assert_eq!(r.scheduler, "elsc");
        assert_eq!(r.messages_read, 5);
    }

    #[test]
    fn migration_penalty_charged_once() {
        // A 2-CPU machine with one task that blocks and wakes: if it gets
        // placed on the other CPU, picked_new_cpu increments. We at least
        // verify the counter stays consistent (no negative logic).
        let mut m = smp_machine(2);
        let pipe = m.create_pipe(1);
        m.spawn(
            &TaskSpec::named("a").mm(MmId(1)),
            Box::new(Script::new(vec![
                Op::write_after(10_000, pipe, Msg::tagged(1)),
                Op::compute(50_000, Syscall::Nop),
            ])),
        );
        m.spawn(
            &TaskSpec::named("b").mm(MmId(2)),
            Box::new(Script::new(vec![Op::read_after(10_000, pipe)])),
        );
        let r = m.run().expect("completes");
        let t = r.stats.total();
        assert!(t.picked_new_cpu <= t.sched_calls);
    }

    #[test]
    fn work_and_idle_cycles_are_accounted() {
        let mut m = up_machine();
        m.spawn(
            &TaskSpec::named("worker"),
            Box::new(Script::new(vec![Op::compute(1_000_000, Syscall::Nop)])),
        );
        let r = m.run().expect("completes");
        let t = r.stats.total();
        assert!(t.work_cycles >= 1_000_000, "work {}", t.work_cycles);
    }
}

#[cfg(test)]
mod chaos_tests {
    use super::*;
    use crate::behavior::{Op, Script};
    use crate::report::RunReport;
    use elsc_chaos::FaultPlan;
    use elsc_ktask::MmId;

    /// A small mixed workload: pipe traffic plus compute, enough to
    /// exercise wakeups, preemptions, and many `schedule()` decisions.
    fn load(m: &mut Machine) {
        let pipe = m.create_pipe(2);
        m.spawn(
            &TaskSpec::named("w").mm(MmId(1)),
            Box::new(Script::new(
                (0..15)
                    .map(|i| Op::write_after(20_000, pipe, Msg::tagged(i)))
                    .collect(),
            )),
        );
        m.spawn(
            &TaskSpec::named("r").mm(MmId(2)),
            Box::new(Script::new(
                (0..15).map(|_| Op::read_after(10_000, pipe)).collect(),
            )),
        );
        for i in 0..2u32 {
            m.spawn(
                &TaskSpec::named("c").mm(MmId(3 + i)),
                Box::new(Script::new(vec![Op::compute(9_000_000, Syscall::Nop)])),
            );
        }
    }

    fn machine_with(cfg: MachineConfig, sched: Box<dyn Scheduler>) -> Result<RunReport, RunError> {
        let mut m = Machine::new(cfg.with_max_secs(50.0), sched);
        load(&mut m);
        m.run()
    }

    #[test]
    fn oracle_reports_clean_equivalence_on_up() {
        for sched in ["elsc", "reg"] {
            let s: Box<dyn Scheduler> = match sched {
                "elsc" => Box::new(elsc::ElscScheduler::new()),
                _ => Box::new(elsc_sched_linux::LinuxScheduler::new()),
            };
            let r = machine_with(MachineConfig::up().with_oracle(true), s).expect("completes");
            let chaos = r.chaos.as_ref().expect("oracle enables the summary");
            let o = chaos.oracle.as_ref().expect("oracle report present");
            assert!(
                o.decisions > 10,
                "{sched}: judged {} decisions",
                o.decisions
            );
            assert!(
                o.clean(),
                "{sched}: {} unexplained / {} violations (first: {:?})",
                o.unexplained,
                o.invariant_violations,
                o.first_unexplained.as_ref().or(o.first_violation.as_ref())
            );
        }
    }

    #[test]
    fn oracle_is_pure_observation() {
        let with = machine_with(
            MachineConfig::up().with_oracle(true),
            Box::new(elsc::ElscScheduler::new()),
        )
        .expect("completes");
        let without = machine_with(MachineConfig::up(), Box::new(elsc::ElscScheduler::new()))
            .expect("completes");
        assert_eq!(
            with.elapsed, without.elapsed,
            "judging must never change the schedule"
        );
        assert!(without.chaos.is_none(), "clean runs carry no chaos summary");
    }

    #[test]
    fn faults_are_deterministic_per_seed() {
        let run = |fault_seed| {
            machine_with(
                MachineConfig::up()
                    .with_faults(Some(FaultPlan::heavy()))
                    .with_fault_seed(fault_seed),
                Box::new(elsc::ElscScheduler::new()),
            )
            .expect("heavy faults stay completion-safe")
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.to_json(), b.to_json(), "same fault seed, same bytes");
        let counts = a.chaos.as_ref().expect("summary").counts;
        assert!(counts.total() > 0, "heavy plan must inject something");
        let c = run(8);
        assert_ne!(
            a.to_json(),
            c.to_json(),
            "different fault seeds must perturb differently"
        );
    }

    #[test]
    fn dropped_ipis_are_recovered_by_ticks() {
        // Drop *every* reschedule IPI on a 2-CPU machine: need_resched
        // stays set and the next timer tick performs the reschedule, so
        // the workload still completes.
        let r = machine_with(
            MachineConfig::smp(2)
                .with_faults(Some("ipi_drop=1.0".parse().unwrap()))
                .with_fault_seed(3),
            Box::new(elsc_sched_linux::LinuxScheduler::new()),
        )
        .expect("tick recovery must rescue every lost IPI");
        let counts = r.chaos.as_ref().expect("summary").counts;
        assert!(counts.ipi_dropped > 0, "the plan must actually drop IPIs");
    }

    #[test]
    fn faulted_run_keeps_cycle_conservation() {
        let r = machine_with(
            MachineConfig::smp(2)
                .with_faults(Some(FaultPlan::heavy()))
                .with_fault_seed(11)
                .with_oracle(true),
            Box::new(elsc::ElscScheduler::new()),
        )
        .expect("completes");
        assert!(
            r.conservation_ok,
            "lock-hold charging must stay conservative"
        );
    }

    #[test]
    fn exit_recalc_charges_live_tasks_only() {
        // Spawn-exit-recalc cost conservation: a hog exhausts its
        // quantum, then the exiter runs and exits — and the
        // recalculation triggered by that very exit's `schedule()` call
        // fires while the corpse is still in the TaskTable (zombies are
        // reaped only after `schedule()` returns). The walk must count
        // the hog and the idle task, never the zombie, and the
        // RecalcPerTask cycles charged must match that count (the
        // conservation check ties the meter to the profiler).
        for sched in ["elsc", "reg"] {
            let s: Box<dyn Scheduler> = match sched {
                "elsc" => Box::new(elsc::ElscScheduler::new()),
                _ => Box::new(elsc_sched_linux::LinuxScheduler::new()),
            };
            let mut m = Machine::new(MachineConfig::up().with_max_secs(50.0), s);
            let hog = Box::new(Script::new(vec![Op::compute(100_000_000, Syscall::Nop)]));
            let exiter = Box::new(Script::new(vec![Op::compute(12_000_000, Syscall::Nop)]));
            // The hog must run first so its quantum is exhausted by the
            // time the exiter dies. elsc's run queue inserts at the
            // front (reverse spawn order) while the baseline scans in
            // table order, so the spawn order differs per scheduler.
            if sched == "elsc" {
                m.spawn(&TaskSpec::named("exiter").mm(MmId(1)), exiter);
                m.spawn(&TaskSpec::named("hog").mm(MmId(2)), hog);
            } else {
                m.spawn(&TaskSpec::named("hog").mm(MmId(2)), hog);
                m.spawn(&TaskSpec::named("exiter").mm(MmId(1)), exiter);
            }
            let r = m.run().expect("completes");
            let t = r.stats.total();
            assert_eq!(t.recalc_entries, 1, "{sched}: exactly one recalc");
            assert_eq!(t.recalc_tasks, 2, "{sched}: hog + idle, never the zombie");
            assert!(r.conservation_ok, "{sched}: recalc charging must conserve");
        }
    }

    #[test]
    fn close_wakes_parked_reader_and_writer() {
        // Regression: a reader parked on an empty pipe and a writer
        // parked on a full one; closing both must wake *both* tasks so
        // they observe `Closed` instead of wedging until the deadlock
        // detector trips.
        let cfg = MachineConfig::up().with_max_secs(50.0).with_poll_yields(0);
        let mut m = Machine::new(cfg, Box::new(elsc_sched_linux::LinuxScheduler::new()));
        let empty = m.create_pipe(1);
        let full = m.create_pipe(1);
        // add_to_runqueue inserts at the front, so tasks run in reverse
        // spawn order: reader parks, writer parks, then the closer runs.
        m.spawn(
            &TaskSpec::named("closer").mm(MmId(3)),
            Box::new(Script::new(vec![
                Op::close_after(2_000_000, empty),
                Op::close_after(1_000, full),
            ])),
        );
        m.spawn(
            &TaskSpec::named("writer").mm(MmId(2)),
            Box::new(Script::new(vec![
                Op::write_after(1_000, full, Msg::tagged(1)),
                Op::write_after(1_000, full, Msg::tagged(2)),
            ])),
        );
        m.spawn(
            &TaskSpec::named("reader").mm(MmId(1)),
            Box::new(Script::new(vec![Op::read_after(1_000, empty)])),
        );
        let r = m.run().expect("close must unwedge both parked tasks");
        assert_eq!(r.messages_read, 0, "nothing is ever read");
        assert!(
            r.stats.total().wakeups >= 2,
            "both parked tasks must be woken by the closes"
        );
    }

    #[test]
    fn spurious_wakeup_of_a_parked_reader_reparks_cleanly() {
        // Regression (found by the `net` chaos sweep): a spurious
        // `wake_up_process()` makes a parked pipe reader runnable without
        // removing it from the wait queue — real kernels leave the wait
        // entry queued until `finish_wait()`. The woken reader re-checks,
        // still sees an empty pipe, and blocks again: parking must be
        // idempotent (`prepare_to_wait()` semantics), not a double-park,
        // and the eventual real wakeup must still reach it.
        let cfg = MachineConfig::up()
            .with_max_secs(50.0)
            .with_poll_yields(0)
            .with_faults(Some("spurious_wakeup=1.0".parse().unwrap()))
            .with_fault_seed(5);
        let mut m = Machine::new(cfg, Box::new(elsc::ElscScheduler::new()));
        let pipe = m.create_pipe(1);
        // Reverse spawn order: the reader runs first and parks; the writer
        // then computes across several timer ticks (each tick aims a
        // spurious wakeup at a live task) before delivering the message.
        m.spawn(
            &TaskSpec::named("writer").mm(MmId(2)),
            Box::new(Script::new(vec![Op::write_after(
                20_000_000,
                pipe,
                Msg::tagged(1),
            )])),
        );
        m.spawn(
            &TaskSpec::named("reader").mm(MmId(1)),
            Box::new(Script::new(vec![Op::read_after(1_000, pipe)])),
        );
        let r = m.run().expect("the spuriously woken reader must re-park");
        assert_eq!(r.messages_read, 1, "the real wakeup still delivers");
        let counts = r.chaos.as_ref().expect("summary").counts;
        assert!(counts.spurious_wakeups > 0, "the fault must actually fire");
        assert!(r.conservation_ok);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::behavior::{Op, Script};
    use elsc_ktask::MmId;
    use elsc_obs::ObsEvent;

    #[test]
    fn trace_captures_the_causal_chain() {
        let cfg = MachineConfig::up()
            .with_max_secs(50.0)
            .with_poll_yields(0)
            .with_trace(10_000);
        let mut m = Machine::new(cfg, Box::new(elsc::ElscScheduler::new()));
        let pipe = m.create_pipe(1);
        // Spawn the writer first: adds insert at the front of the list,
        // so the *reader* runs first and genuinely blocks.
        m.spawn(
            &TaskSpec::named("writer").mm(MmId(2)),
            Box::new(Script::new(vec![Op::write_after(
                2_000_000,
                pipe,
                Msg::tagged(1),
            )])),
        );
        let reader = m.spawn(
            &TaskSpec::named("reader").mm(MmId(1)),
            Box::new(Script::new(vec![Op::read_after(1_000, pipe)])),
        );
        let report = m.run().expect("completes");
        let trace = m.trace();
        trace.check_monotone();
        assert_eq!(trace.dropped(), 0);
        // The reader blocks, is woken, and exits — in that order.
        let block_at = trace
            .filter(|e| matches!(e, ObsEvent::Block { tid, .. } if *tid == reader))
            .next()
            .expect("reader blocked")
            .at;
        let wake_at = trace
            .filter(|e| matches!(e, ObsEvent::Wakeup { tid, .. } if *tid == reader))
            .next()
            .expect("reader woken")
            .at;
        let exit_at = trace
            .filter(|e| matches!(e, ObsEvent::Exit { tid } if *tid == reader))
            .next()
            .expect("reader exited")
            .at;
        assert!(block_at < wake_at && wake_at < exit_at);
        // Trace switch records match the stats counter.
        let switches = trace
            .filter(|e| matches!(e, ObsEvent::Switch { .. }))
            .count() as u64;
        assert_eq!(switches, report.stats.total().ctx_switches);
    }

    #[test]
    fn tracing_does_not_change_the_schedule() {
        let run = |trace_cap: usize| {
            let cfg = MachineConfig::smp(2)
                .with_max_secs(50.0)
                .with_trace(trace_cap);
            let mut m = Machine::new(cfg, Box::new(elsc_sched_linux::LinuxScheduler::new()));
            let pipe = m.create_pipe(2);
            for i in 0..3u32 {
                m.spawn(
                    &TaskSpec::named("w").mm(MmId(i + 1)),
                    Box::new(Script::new(
                        (0..10)
                            .map(|k| Op::write_after(10_000, pipe, Msg::tagged(k)))
                            .collect(),
                    )),
                );
            }
            m.spawn(
                &TaskSpec::named("r").mm(MmId(9)),
                Box::new(Script::new(
                    (0..30).map(|_| Op::read_after(5_000, pipe)).collect(),
                )),
            );
            m.run().expect("completes").elapsed
        };
        assert_eq!(run(0), run(100_000), "tracing must be observation-only");
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use crate::behavior::{Op, Script, SpawnReq};
    use elsc_ktask::MmId;
    use elsc_obs::ObsEvent;
    use elsc_policy::PolicyScheduler;

    const REG_POL: &str = include_str!("../../../policies/reg.pol");
    const STARVE_POL: &str = include_str!("../../../policies/starve.pol");

    fn policy(src: &str, nr_cpus: usize) -> Box<PolicyScheduler> {
        Box::new(PolicyScheduler::load_str(src, nr_cpus).expect("bundled policy loads"))
    }

    fn workload(m: &mut Machine) {
        let pipe = m.create_pipe(2);
        for i in 0..3u32 {
            m.spawn(
                &TaskSpec::named("w").mm(MmId(i + 1)),
                Box::new(Script::new(
                    (0..6)
                        .map(|k| Op::write_after(30_000, pipe, Msg::tagged(k)))
                        .collect(),
                )),
            );
        }
        m.spawn(
            &TaskSpec::named("r").mm(MmId(9)),
            Box::new(Script::new(
                (0..18).map(|_| Op::read_after(10_000, pipe)).collect(),
            )),
        );
    }

    #[test]
    fn reg_policy_survives_the_strict_oracle_end_to_end() {
        let cfg = MachineConfig::up().with_max_secs(50.0).with_oracle(true);
        let mut m = Machine::new(cfg, policy(REG_POL, 1));
        workload(&mut m);
        let r = m.run().expect("completes");
        assert_eq!(r.scheduler, "policy:reg");
        let p = r.policy.as_ref().expect("policy summary present");
        assert!(!p.ejected, "reg.pol must never trip the watchdog");
        assert!(p.insns_executed > 0, "the policy VM actually ran");
        let o = r.chaos.as_ref().unwrap().oracle.as_ref().unwrap();
        assert_eq!(
            o.unexplained, 0,
            "policy:reg is judged strictly and must match the native scan: {o:?}"
        );
        assert_eq!(o.invariant_violations, 0);
        assert!(r.conservation_ok);
    }

    #[test]
    fn starving_policy_is_ejected_and_the_run_still_completes() {
        let cfg = MachineConfig::smp(2).with_max_secs(50.0).with_trace(10_000);
        let mut m = Machine::new(cfg, policy(STARVE_POL, 2));
        workload(&mut m);
        let r = m.run().expect("the baseline takes over and finishes");
        let p = r.policy.as_ref().expect("policy summary present");
        assert!(p.ejected);
        assert_eq!(p.eject_reason, Some("starvation"));
        assert!(p.ejected_at.is_some());
        assert_eq!(
            r.scheduler, "policy:starve",
            "the run keeps the policy's name"
        );
        assert!(r.conservation_ok);
        // The trace carries the whole story: load, then ejection.
        let trace = m.trace();
        assert!(trace
            .filter(|e| matches!(e, ObsEvent::PolicyLoaded { .. }))
            .next()
            .is_some());
        let eject = trace
            .filter(|e| matches!(e, ObsEvent::PolicyEjected { .. }))
            .collect::<Vec<_>>();
        assert_eq!(eject.len(), 1, "ejection fires exactly once");
    }

    #[test]
    fn budget_blowout_is_ejected_with_the_budget_reason() {
        let src = "policy spin\nlists 1\nhook enqueue { enqueue_front(0) }\n\
                   hook pick_next {\n  repeat 1024 { let x = 1 }\n\
                   if runnable(prev) { pick prev }\n  pick idle\n}\n";
        let cfg = MachineConfig::up().with_max_secs(50.0);
        let sched = Box::new(
            PolicyScheduler::load_str(src, 1)
                .expect("loads")
                .with_budget(64),
        );
        let mut m = Machine::new(cfg, sched);
        workload(&mut m);
        let r = m.run().expect("completes after ejection");
        let p = r.policy.as_ref().expect("policy summary present");
        assert!(p.ejected);
        assert_eq!(p.eject_reason, Some("budget_exhausted"));
        assert_eq!(p.budget, 64);
    }

    #[test]
    fn the_policy_tick_hook_forces_reschedules_until_the_policy_is_ejected() {
        // The tick hook zeroes the running task's counter, so only the
        // machine's re-check after the hook can see an expired quantum
        // on the first tick; the pick_next hook starves the queue once
        // the forked tasks arrive, so the watchdog ejects the policy mid-run.
        let src = "policy zap\nlists 1\nhook enqueue { enqueue_front(0) }\n\
                   hook tick { set_counter(task, 0) }\n\
                   hook pick_next {\n  if nr_running > 3 { pick idle }\n\
                   let best = idle\n  let c = -1000\n\
                   if runnable(prev) { c = prev_goodness()\n best = prev }\n\
                   foreach t in list(0) { if can_schedule(t) {\n\
                   let g = goodness(t)\n if g > c { c = g\n best = t } } }\n\
                   if c == 0 { recalc() }\n  pick best\n}\n";
        let tick = MachineConfig::TICK_CYCLES;
        let run = |hog_ticks: u64| {
            let cfg = MachineConfig::up().with_max_secs(50.0).with_trace(100_000);
            let mut m = Machine::new(cfg, policy(src, 1));
            let hogs = [1, 2].map(|mm| {
                let work = Op::compute(hog_ticks * tick, Syscall::Nop);
                m.spawn(
                    &TaskSpec::named("hog").mm(MmId(mm)),
                    Box::new(Script::new(vec![work])),
                )
            });
            // Twenty ticks in, a third task wakes and forks two more.
            let fork = |mm| {
                Syscall::Spawn(Box::new(SpawnReq {
                    spec: TaskSpec::named("child").mm(MmId(mm)),
                    behavior: Box::new(Script::new(vec![Op::compute(10_000, Syscall::Nop)])),
                }))
            };
            let ops = vec![
                Op::sleep_after(1_000, 20 * tick),
                Op::compute(1_000, fork(4)),
                Op::compute(1_000, fork(5)),
            ];
            m.spawn(
                &TaskSpec::named("parent").mm(MmId(3)),
                Box::new(Script::new(ops)),
            );
            let r = m.run().expect("the baseline takes over and finishes");
            let p = r.policy.clone().expect("policy summary present");
            assert_eq!(p.eject_reason, Some("starvation"));
            let at = p.ejected_at.expect("ejected");
            // Hog-to-hog switches per tick, before and after ejection.
            let rate = |before: bool| {
                let swaps = m.trace().records().iter().filter(|rec| {
                    (rec.at < at) == before
                        && matches!(rec.event, ObsEvent::Switch { from, to, .. }
                            if hogs.contains(&from) && hogs.contains(&to))
                });
                let span = if before {
                    at.get()
                } else {
                    r.elapsed.get() - at.get()
                };
                swaps.count() as f64 * tick as f64 / span as f64
            };
            (p.insns_executed, at, rate(true), rate(false))
        };
        let (insns, at, before, after) = run(100);
        assert!(insns > 0);
        assert!(
            before > 0.25,
            "every tick zeroes the quantum: {before} swaps/tick"
        );
        assert!(
            after < 0.1,
            "the baseline runs whole quanta: {after} swaps/tick"
        );
        // A longer run after the ejection runs no more policy code.
        let (longer_insns, longer_at, _, _) = run(200);
        assert_eq!((longer_insns, longer_at), (insns, at));
    }

    #[test]
    fn ejection_is_deterministic_across_reruns() {
        let run = || {
            let cfg = MachineConfig::smp(2).with_max_secs(50.0).with_seed(77);
            let mut m = Machine::new(cfg, policy(STARVE_POL, 2));
            workload(&mut m);
            m.run().expect("completes").to_json()
        };
        assert_eq!(run(), run(), "same seed, byte-identical report");
    }

    #[test]
    fn native_reports_carry_no_policy_summary() {
        let mut m = {
            let cfg = MachineConfig::up().with_max_secs(50.0);
            Machine::new(cfg, Box::new(elsc_sched_linux::LinuxScheduler::new()))
        };
        workload(&mut m);
        let r = m.run().expect("completes");
        assert!(r.policy.is_none());
        assert!(!r.to_json().contains("\"policy\""));
    }
}

#[cfg(test)]
mod step_tests {
    use super::*;
    use crate::behavior::{Op, Script};
    use crate::report::RunReport;
    use elsc_ktask::MmId;

    const EPOCH: u64 = 400_000; // 1 ms at 400 MHz

    fn machine(seed: u64) -> Machine {
        let cfg = MachineConfig::up()
            .with_max_secs(50.0)
            .with_seed(seed)
            .with_poll_yields(0);
        Machine::new(cfg, Box::new(elsc_sched_linux::LinuxScheduler::new()))
    }

    /// Two compute/pipe tasks — enough traffic to exercise wakeups,
    /// preemption, and pipe parking in both run modes.
    fn populate(m: &mut Machine) -> PipeId {
        let pipe = m.create_pipe(2);
        m.spawn(
            &TaskSpec::named("writer").mm(MmId(1)),
            Box::new(Script::new(vec![
                Op::write_after(50_000, pipe, Msg::tagged(1)),
                Op::write_after(50_000, pipe, Msg::tagged(2)),
                Op::write_after(50_000, pipe, Msg::tagged(3)),
                Op::compute(5_000_000, Syscall::Nop),
            ])),
        );
        m.spawn(
            &TaskSpec::named("reader").mm(MmId(2)),
            Box::new(Script::new(vec![
                Op::read_after(1_000, pipe),
                Op::read_after(1_000, pipe),
                Op::read_after(1_000, pipe),
            ])),
        );
        pipe
    }

    /// Drives a started machine to completion in fixed epochs.
    fn step_to_done(m: &mut Machine) -> RunReport {
        let mut barrier = Cycles::ZERO;
        loop {
            barrier += EPOCH;
            match m.step_until(barrier).expect("no watchdog") {
                StepStatus::Done => return m.finish(),
                StepStatus::Paused { .. } => {}
            }
        }
    }

    #[test]
    fn stepped_run_is_byte_identical_to_plain_run() {
        let mut plain = machine(0xC1_057E);
        populate(&mut plain);
        let want = plain.run().expect("completes").to_json();

        let mut stepped = machine(0xC1_057E);
        populate(&mut stepped);
        stepped.start();
        let got = step_to_done(&mut stepped).to_json();
        assert_eq!(want, got, "step_until must replay run() exactly");
    }

    #[test]
    fn start_after_run_panics() {
        let mut m = machine(1);
        populate(&mut m);
        let _ = m.run();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.start()));
        assert!(r.is_err());
    }

    #[test]
    fn idle_node_keeps_ticking_to_the_barrier() {
        let mut m = machine(2);
        let pipe = m.create_pipe(1);
        // A lone reader on an empty pipe: locally wedged, not dead.
        m.spawn(
            &TaskSpec::named("reader").mm(MmId(1)),
            Box::new(Script::new(vec![Op::read_after(1_000, pipe)])),
        );
        m.start();
        let tick = m.step_until(Cycles(10 * EPOCH)).unwrap();
        assert_eq!(tick, StepStatus::Paused { idle: true });
        // Virtual time advanced (ticks fired) even though no task ran.
        assert!(m.stats().total().ticks > 0);
        assert_eq!(m.live_users(), 1);
        // An inter-node arrival unwedges it.
        m.inject_external_msg(pipe, Msg::tagged(7), Cycles(10 * EPOCH + 1_000));
        let end = m.step_until(Cycles(20 * EPOCH)).unwrap();
        assert_eq!(end, StepStatus::Done);
        let r = m.finish();
        assert_eq!(r.messages_read, 1);
    }

    #[test]
    fn external_close_unblocks_a_parked_reader() {
        let mut m = machine(3);
        let pipe = m.create_pipe(1);
        m.spawn(
            &TaskSpec::named("reader").mm(MmId(1)),
            Box::new(Script::new(vec![Op::read_after(1_000, pipe)])),
        );
        m.start();
        assert_eq!(
            m.step_until(Cycles(EPOCH)).unwrap(),
            StepStatus::Paused { idle: true }
        );
        m.inject_external_close(pipe, Cycles(EPOCH));
        // The reader observes EOF and exits instead of wedging forever.
        assert_eq!(m.step_until(Cycles(2 * EPOCH)).unwrap(), StepStatus::Done);
        let r = m.finish();
        assert_eq!(r.messages_read, 0);
    }

    #[test]
    fn drain_external_pulls_backlog_and_wakes_writers() {
        let mut m = machine(4);
        let pipe = m.create_pipe(2);
        // Four writes through a two-slot egress: the writer must park.
        m.spawn(
            &TaskSpec::named("writer").mm(MmId(1)),
            Box::new(Script::new(vec![
                Op::write_after(10_000, pipe, Msg::tagged(1)),
                Op::write_after(10_000, pipe, Msg::tagged(2)),
                Op::write_after(10_000, pipe, Msg::tagged(3)),
                Op::write_after(10_000, pipe, Msg::tagged(4)),
            ])),
        );
        // Drained only at barriers whose pipe log names it, as the
        // federation does.
        m.watch_pipe(pipe, 5);
        m.start();
        let mut barrier = Cycles::ZERO;
        let (mut drained, mut log) = (Vec::new(), Vec::new());
        loop {
            barrier += EPOCH;
            let status = m.step_until(barrier).expect("no watchdog");
            m.drain_pipe_log(&mut log);
            match log.as_slice() {
                [] => assert!(m.pipe(pipe).is_empty(), "a write went unlogged"),
                [5] => assert!(!m.drain_external(pipe, barrier, &mut drained)),
                other => panic!("logged {other:?}"),
            }
            log.clear();
            if status == StepStatus::Done {
                break;
            }
        }
        let tags: Vec<u64> = drained.iter().map(|ms| ms.tag).collect();
        assert_eq!(tags, vec![1, 2, 3, 4]);
        // The drain re-armed the pipe without logging itself.
        m.drain_pipe_log(&mut log);
        assert_eq!(log, []);
        m.finish();
    }

    #[test]
    fn pause_for_shifts_the_run_wholesale() {
        let run_with_pause = |pause: u64| {
            let mut m = machine(5);
            m.spawn(
                &TaskSpec::named("worker").mm(MmId(1)),
                Box::new(Script::new(vec![Op::compute(3_000_000, Syscall::Nop)])),
            );
            m.start();
            let mut barrier = Cycles(EPOCH);
            assert!(matches!(
                m.step_until(barrier).unwrap(),
                StepStatus::Paused { .. }
            ));
            if pause > 0 {
                m.pause_for(pause);
                m.note_fault("node_pause");
            }
            loop {
                barrier += EPOCH;
                if m.step_until(barrier).unwrap() == StepStatus::Done {
                    return m.finish();
                }
            }
        };
        let base = run_with_pause(0);
        let paused = run_with_pause(700_000);
        // Every pending event moved together: the exit lands exactly
        // `pause` later, and no work was lost.
        assert_eq!(paused.elapsed.get(), base.elapsed.get() + 700_000);
        assert_eq!(
            base.stats.total().ctx_switches,
            paused.stats.total().ctx_switches
        );
    }

    #[test]
    fn injection_into_a_running_node_is_deterministic() {
        let run = || {
            let mut m = machine(6);
            let ingress = m.create_pipe(4);
            m.spawn(
                &TaskSpec::named("consumer").mm(MmId(1)),
                Box::new(Script::new(vec![
                    Op::read_after(2_000, ingress),
                    Op::read_after(2_000, ingress),
                ])),
            );
            m.start();
            m.inject_external_msg(ingress, Msg::tagged(1), Cycles(EPOCH));
            m.inject_external_msg(ingress, Msg::tagged(2), Cycles(EPOCH));
            let mut barrier = Cycles::ZERO;
            loop {
                barrier += EPOCH;
                if m.step_until(barrier).unwrap() == StepStatus::Done {
                    return m.finish().to_json();
                }
            }
        };
        assert_eq!(run(), run());
    }
}
