//! The machine: event loop, dispatch, syscalls, wakeups.

use elsc_chaos::{
    check_task_invariants, ChaosSummary, Decision, DivergenceClass, FaultInjector, IpiFault,
    Oracle, OracleMode, TaskSnap,
};
use elsc_ktask::{CpuId, Task, TaskSpec, TaskState, TaskTable, Tid};
use elsc_netsim::{Msg, PipeError, PipeId, PipeTable};
use elsc_sched_api::{
    reschedule_idle, CpuView, DomainAcquire, DomainLocker, LockDomains, LockPlan, LockScratch,
    SchedCtx, Scheduler, WakeTarget,
};
use elsc_simcore::{CostKind, CycleMeter, Cycles, EventQueue, LockModel, SimRng};
use elsc_stats::SchedStats;

use elsc_obs::{CycleProfiler, EventBus, ObsEvent, Phase, Sink};

use crate::behavior::{Behavior, Op, SysView, Syscall};
use crate::config::MachineConfig;
use crate::cpu::CpuState;
use crate::report::{
    Distributions, EngineSummary, LearnedSummary, Ledger, PolicySummary, RunReport, TopologySummary,
};
use crate::trace::Trace;

/// Simulation events.
#[derive(Debug)]
enum Event {
    /// Periodic 10 ms timer interrupt on one CPU.
    Tick { cpu: CpuId },
    /// The current compute segment of `cpu` ends (cancellable via `gen`).
    Resume { cpu: CpuId, gen: u64 },
    /// Reschedule interrupt (wakeup placement decided this CPU should
    /// call `schedule()`).
    Ipi { cpu: CpuId },
    /// A sleeping task's timer expires.
    Timer { tid: Tid },
    /// An inter-node message arrives from the cluster fabric (NIC DMA
    /// completion into `pipe`'s socket buffer).
    Net { pipe: PipeId, msg: Msg },
    /// The far end of an inter-node connection closed; the close
    /// propagates to the local ingress pipe.
    NetClose { pipe: PipeId },
}

impl Event {
    fn is_tick(&self) -> bool {
        matches!(self, Event::Tick { .. })
    }
}

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
struct Pending {
    remaining: u64,
    syscall: Syscall,
}

/// Machine-side per-task state (parallel to the kernel's task struct).
struct TaskRun {
    behavior: Option<Box<dyn Behavior>>,
    pending: Option<Pending>,
    last_read: Option<Msg>,
    last_spawned: Option<Tid>,
    /// Cold-cache cycles to add to the task's next compute segment after
    /// a migration (0 = none pending). Scaled at migration time by the
    /// topological distance crossed; on a flat tree the scale is 1/1, so
    /// the value is exactly `CostKind::MigrationPenalty`.
    migrate_penalty: u64,
    /// Remaining spin-then-block poll attempts for the current blocking
    /// I/O operation (reset on every successful or parked operation).
    polls_left: u32,
    /// When the task was last woken, for wakeup-to-dispatch latency.
    woken_at: Option<Cycles>,
    rng: SimRng,
}

/// What the trampoline should do next (avoids unbounded recursion between
/// `schedule` and task execution).
enum Drive {
    Schedule(Cycles),
    RunCurrent(Cycles),
}

/// Watchdog state for a run driven by a loaded `.pol` policy scheduler
/// (one that reports [`Scheduler::loaded_info`]). `None` on native runs,
/// so they stay byte-identical to the pre-policy machine.
struct PolicyRun {
    /// The policy's reported name (`policy:<name>`), kept across
    /// ejection so the report names what the run was asked to do.
    name: &'static str,
    /// Verifier's static worst-case instruction bound.
    static_insns: u64,
    /// Per-decision runtime instruction budget.
    budget: u64,
    /// Consecutive idle picks with runnable, unclaimed work queued.
    starve_streak: u32,
    /// Set once the watchdog fires: `(when, why)`. The policy scheduler
    /// is gone by then; `insns_final` froze its instruction count.
    ejected: Option<(Cycles, &'static str)>,
    /// Policy-VM instructions executed up to ejection.
    insns_final: u64,
}

/// Watchdog state for a run driven by a learned scheduler (one that
/// reports [`Scheduler::learned_info`]). `None` on native and policy
/// runs, so they stay byte-identical to the pre-learned machine.
struct LearnedRun {
    /// The scheduler's reported name (`learned:<model>`), kept across
    /// ejection so the report names what the run was asked to do.
    name: &'static str,
    /// Model architecture label (`logreg` or `mlp`).
    arch: &'static str,
    /// Consecutive verified mispredictions.
    miss_streak: u32,
    /// Set once the watchdog fires: `(when, why)`. The learned scheduler
    /// is gone by then; the `final_*` fields froze its counters.
    ejected: Option<(Cycles, &'static str)>,
    /// Predictions made up to ejection.
    final_predictions: u64,
    /// Verified hits up to ejection.
    final_hits: u64,
}

/// The simulated machine.
///
/// Construct with [`Machine::new`], create pipes and [`Machine::spawn`]
/// tasks, then call [`Machine::run`] to completion. See the crate docs
/// for the execution model.
pub struct Machine {
    cfg: MachineConfig,
    tasks: TaskTable,
    sched: Box<dyn Scheduler>,
    stats: SchedStats,
    pipes: PipeTable,
    runs: Vec<Option<TaskRun>>,
    cpus: Vec<CpuState>,
    events: EventQueue<Event>,
    /// Pending events that are not ticks (deadlock detection).
    pending_wakeish: usize,
    /// The locking regime in effect: the scheduler's declared plan unless
    /// overridden by [`MachineConfig::lock_plan`].
    plan: LockPlan,
    /// The bank of run-queue lock domains (one under [`LockPlan::Global`]).
    locks: LockModel,
    rng: SimRng,
    ledger: Ledger,
    dists: Distributions,
    /// Observability: event bus (bounded ring + pluggable external sinks).
    bus: EventBus,
    /// Observability: per-(CPU, phase, kind) kernel cycle attribution.
    profiler: CycleProfiler,
    /// Every kernel cycle charged anywhere in the machine; must always
    /// equal `profiler.total()` (the conservation invariant).
    kernel_cycles: u64,
    /// Chaos: the deterministic fault injector (None = clean machine).
    injector: Option<FaultInjector>,
    /// Chaos: the differential scheduler oracle (None = not judging).
    oracle: Option<Oracle>,
    /// Policy runtime: watchdog state (None = native scheduler).
    policy: Option<PolicyRun>,
    /// Learned scheduler: watchdog state (None = not a learned run).
    learned: Option<LearnedRun>,
    /// Decision counter for `--decision-trace` recency features. Only
    /// advanced while tracing, so untraced runs carry no extra state.
    trace_decisions: u64,
    /// Per-task decision index of the last traced win, for the recency
    /// feature column.
    trace_last_picked: std::collections::HashMap<Tid, u64>,
    now: Cycles,
    live_users: usize,
    last_exit: Cycles,
    to_free: Vec<Tid>,
    ran: bool,
    /// Reusable held-set/acquisition-log storage for the per-call lock
    /// domain bookkeeping (allocation-free dispatch).
    lock_scratch: LockScratch,
    /// Reusable per-wakeup CPU snapshot buffer for `reschedule_idle()`.
    view_scratch: Vec<CpuView>,
    /// Migration distance breakdown under a declared multi-level tree:
    /// `[same_core, same_node, cross_node]`. Stays all-zero on flat
    /// trees (no levels to grade by), and is only serialized when the
    /// tree is multi-level.
    topo_migrations: [u64; 3],
    /// Wall-clock instant `run()` started, for the informational
    /// events-per-second throughput readout (never serialized).
    wall_start: Option<std::time::Instant>,
    /// Wall-clock seconds the completed run took (never serialized).
    wall_secs: f64,
}

impl Machine {
    /// Builds a machine with the given configuration and scheduler.
    pub fn new(cfg: MachineConfig, sched: Box<dyn Scheduler>) -> Machine {
        let mut tasks = TaskTable::new();
        let mut runs: Vec<Option<TaskRun>> = Vec::new();
        let mut rng = SimRng::new(cfg.seed);
        let cpus = (0..cfg.nr_cpus())
            .map(|id| {
                let idle = tasks.spawn(&TaskSpec::named("idle").priority(1));
                let mut t = tasks.task_mut(idle);
                t.counter = 0;
                t.processor = id;
                t.has_cpu = true;
                grow_to(&mut runs, idle.index());
                runs[idle.index()] = Some(TaskRun {
                    behavior: None,
                    pending: None,
                    last_read: None,
                    last_spawned: None,
                    migrate_penalty: 0,
                    polls_left: 0,
                    woken_at: None,
                    rng: rng.fork(),
                });
                CpuState::new(id, idle)
            })
            .collect();
        let nr_cpus = cfg.nr_cpus();
        let plan = cfg.lock_plan.unwrap_or_else(|| sched.lock_plan(nr_cpus));
        let locks = LockModel::new(
            plan.nr_domains(nr_cpus),
            cfg.costs.get(CostKind::LockTransfer),
        );
        let bus = EventBus::new(cfg.trace_capacity);
        let injector = cfg
            .faults
            .clone()
            .map(|plan| FaultInjector::new(plan, cfg.fault_seed));
        let oracle = cfg
            .oracle
            .then(|| Oracle::new(OracleMode::for_scheduler(sched.name())));
        let policy = sched.loaded_info().map(|info| PolicyRun {
            name: info.name,
            static_insns: info.static_insns,
            budget: info.budget,
            starve_streak: 0,
            ejected: None,
            insns_final: 0,
        });
        let learned = sched.learned_info().map(|info| LearnedRun {
            name: info.name,
            arch: info.arch,
            miss_streak: 0,
            ejected: None,
            final_predictions: 0,
            final_hits: 0,
        });
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
            plan,
            locks,
            rng,
            ledger: Ledger::new(),
            dists: Distributions::new(),
            bus,
            profiler: CycleProfiler::new(nr_cpus),
            kernel_cycles: 0,
            injector,
            oracle,
            policy,
            learned,
            trace_decisions: 0,
            trace_last_picked: std::collections::HashMap::new(),
            now: Cycles::ZERO,
            live_users: 0,
            last_exit: Cycles::ZERO,
            to_free: Vec::new(),
            ran: false,
            lock_scratch: LockScratch::default(),
            view_scratch: Vec::new(),
            topo_migrations: [0; 3],
            wall_start: None,
            wall_secs: 0.0,
        }
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

    fn spawn_inner(&mut self, spec: &TaskSpec, behavior: Box<dyn Behavior>) -> Tid {
        let tid = self.tasks.spawn(spec);
        // Spread initial affinity round-robin, as fork balancing would.
        let cpu = (self.tasks.total_spawned() as usize) % self.cfg.nr_cpus();
        self.tasks.task_mut(tid).processor = cpu;
        grow_to(&mut self.runs, tid.index());
        let rng = self.rng.fork();
        self.runs[tid.index()] = Some(TaskRun {
            behavior: Some(behavior),
            pending: None,
            last_read: None,
            last_spawned: None,
            migrate_penalty: 0,
            polls_left: self.cfg.io_poll_yields,
            woken_at: None,
            rng,
        });
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

    /// The scheduler's name.
    pub fn scheduler_name(&self) -> &'static str {
        self.sched.name()
    }

    /// Read access to the scheduling trace — the event bus's bounded
    /// ring (empty unless [`MachineConfig::trace_capacity`] was set).
    pub fn trace(&self) -> &Trace {
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
    fn charge_kernel_kind(&mut self, cpu: CpuId, phase: Phase, kind: CostKind, cycles: u64) {
        self.profiler.attribute_kind(cpu, phase, kind, cycles);
        self.kernel_cycles += cycles;
    }

    /// Attributes kind-less kernel cycles (lock spin).
    #[inline]
    fn charge_kernel_raw(&mut self, cpu: CpuId, phase: Phase, cycles: u64) {
        self.profiler.attribute_raw(cpu, phase, cycles);
        self.kernel_cycles += cycles;
    }

    /// Attributes a whole meter's accumulation, preserving its per-kind
    /// breakdown. Call before `meter.take()`.
    #[inline]
    fn charge_kernel_meter(&mut self, cpu: CpuId, phase: Phase, meter: &CycleMeter) {
        self.profiler.attribute_meter(cpu, phase, meter);
        self.kernel_cycles += meter.cycles();
    }

    /// Folds one mid-call lock-domain acquisition (logged by
    /// [`LockDomains`]) into the stats, the profiler's conservation
    /// total, and the trace — attributed to `cpu`, whose call paid for
    /// the spin.
    fn account_domain_acquire(&mut self, cpu: CpuId, a: DomainAcquire) {
        let c = self.stats.cpu_mut(cpu);
        c.lock_acquisitions += 1;
        c.lock_spin_cycles += a.spin;
        if a.spin > 0 {
            self.charge_kernel_raw(cpu, Phase::LockSpin, a.spin);
            self.bus.emit_at(
                a.at,
                ObsEvent::LockContended {
                    cpu,
                    domain: a.domain,
                    spin: a.spin,
                },
            );
        }
    }

    /// Acquires the home lock domain for a call on `queue_cpu`'s queue,
    /// made by `by_cpu` at `t`, charging spin to `by_cpu`. Returns the
    /// owned instant and the home domain. SMP builds only.
    fn acquire_home_domain(
        &mut self,
        queue_cpu: CpuId,
        by_cpu: CpuId,
        t: Cycles,
    ) -> (Cycles, usize) {
        let home = self.plan.domain_for_cpu(queue_cpu, self.cfg.nr_cpus());
        let a = self.locks.acquire(home, t, by_cpu);
        let spin = a.saturating_sub(t).get();
        let c = self.stats.cpu_mut(by_cpu);
        c.lock_acquisitions += 1;
        c.lock_spin_cycles += spin;
        if spin > 0 {
            self.charge_kernel_raw(by_cpu, Phase::LockSpin, spin);
            self.bus.emit_at(
                a,
                ObsEvent::LockContended {
                    cpu: by_cpu,
                    domain: home,
                    spin,
                },
            );
        }
        (a, home)
    }

    fn run_ref(&self, tid: Tid) -> &TaskRun {
        self.runs[tid.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("no run state for {tid:?}"))
    }

    fn run_mut(&mut self, tid: Tid) -> &mut TaskRun {
        self.runs[tid.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("no run state for {tid:?}"))
    }

    fn push_event(&mut self, at: Cycles, ev: Event) {
        if !ev.is_tick() {
            self.pending_wakeish += 1;
        }
        self.events.push(at, ev);
    }

    /// Runs the machine until every spawned task has exited.
    ///
    /// # Errors
    ///
    /// [`RunError::Watchdog`] if virtual time exceeds the configured
    /// limit; [`RunError::Deadlock`] if live tasks can never run again.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn run(&mut self) -> Result<RunReport, RunError> {
        assert!(!self.ran, "Machine::run() may only be called once");
        self.ran = true;
        self.wall_start = Some(std::time::Instant::now());
        let result = self.run_loop();
        self.wall_secs = self
            .wall_start
            .map(|s| s.elapsed().as_secs_f64())
            .unwrap_or(0.0);
        // Flush external sinks (trace files) even when the run fails —
        // a truncated-but-flushed trace is exactly what you want when
        // debugging a watchdog or deadlock.
        self.bus.finish();
        result.map(|()| self.report())
    }

    /// Pushes the boot events every run starts from: one armed tick and
    /// one reschedule IPI per CPU.
    fn boot_events(&mut self) {
        if let Some(p) = &self.policy {
            self.bus.emit_at(
                Cycles::ZERO,
                ObsEvent::PolicyLoaded {
                    policy: p.name,
                    insns: p.static_insns,
                    budget: p.budget,
                },
            );
        }
        if let Some(l) = &self.learned {
            self.bus.emit_at(
                Cycles::ZERO,
                ObsEvent::LearnedLoaded {
                    model: l.name,
                    arch: l.arch,
                },
            );
        }
        for cpu in 0..self.cfg.nr_cpus() {
            self.push_event(self.cfg.tick_cycles.into(), Event::Tick { cpu });
            self.push_event(Cycles::ZERO, Event::Ipi { cpu });
            self.cpus[cpu].need_resched = true;
        }
    }

    /// Pops nothing — dispatches one already-popped event: advances the
    /// clock, checks the watchdog, and runs the handler. Shared verbatim
    /// by [`Machine::run`] and [`Machine::step_until`] so a single-node
    /// federated run is byte-identical to a plain run.
    fn dispatch_event(&mut self, t: Cycles, ev: Event) -> Result<(), RunError> {
        if !ev.is_tick() {
            self.pending_wakeish -= 1;
        }
        debug_assert!(t >= self.now, "time ran backwards");
        self.now = t;
        if t.get() > self.cfg.max_cycles {
            return Err(RunError::Watchdog { at: t });
        }
        if self.cfg.engine_slowdown > 1 {
            // Wall-clock-only busy work per dispatched event, sized so a
            // factor-F slowdown dominates the real dispatch cost. Burns
            // host time without touching virtual time, the meter, or any
            // simulation state — reports stay byte-identical; only the
            // lab's `wall_ratio` moves (which is the point: the CI engine
            // job injects a 3× here to prove the wall-clock gate trips).
            let mut x = t.get() | 1;
            for i in 0..(self.cfg.engine_slowdown - 1) * 2000 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
            }
            std::hint::black_box(x);
        }
        match ev {
            Event::Tick { cpu } => self.on_tick(cpu),
            Event::Resume { cpu, gen } => self.on_resume(cpu, gen),
            Event::Ipi { cpu } => self.on_ipi(cpu),
            Event::Timer { tid } => {
                self.wake_up(tid, 0, self.now);
            }
            Event::Net { pipe, msg } => self.on_net_arrival(pipe, msg),
            Event::NetClose { pipe } => self.on_net_close(pipe),
        }
        Ok(())
    }

    fn run_loop(&mut self) -> Result<(), RunError> {
        self.boot_events();
        while self.live_users > 0 {
            let Some((t, ev)) = self.events.pop() else {
                return Err(RunError::Deadlock {
                    at: self.now,
                    live: self.live_users,
                });
            };
            self.dispatch_event(t, ev)?;
            if self.live_users > 0 && self.is_wedged() {
                return Err(RunError::Deadlock {
                    at: self.now,
                    live: self.live_users,
                });
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Federated stepping (the cluster tier drives nodes through these)
    // ------------------------------------------------------------------

    /// Boots the machine for externally driven stepping: emits the same
    /// initial events [`Machine::run`] would, without entering the loop.
    /// Pair with [`Machine::step_until`] and [`Machine::finish`].
    ///
    /// # Panics
    ///
    /// Panics if the machine already ran (or started).
    pub fn start(&mut self) {
        assert!(!self.ran, "Machine::start() after a run");
        self.ran = true;
        self.boot_events();
    }

    /// Runs the event loop up to (and including) `barrier`, then pauses.
    ///
    /// Unlike [`Machine::run`], a locally wedged node does *not* error:
    /// ticks keep firing and virtual time keeps advancing to the
    /// barrier, because an inter-node message may arrive next epoch.
    /// Local wedging is reported through [`StepStatus::Paused`] so the
    /// federation can detect a *cluster-wide* deadlock (every node idle,
    /// nothing in flight).
    ///
    /// # Errors
    ///
    /// [`RunError::Watchdog`] when virtual time exceeds the configured
    /// limit — the only per-node failure in step mode.
    pub fn step_until(&mut self, barrier: Cycles) -> Result<StepStatus, RunError> {
        assert!(self.ran, "step_until() before start()");
        while self.live_users > 0 {
            match self.events.peek_time() {
                Some(t) if t <= barrier => {
                    let (t, ev) = self.events.pop().expect("peeked event exists");
                    self.dispatch_event(t, ev)?;
                }
                // The tick re-arms itself unconditionally, so the queue
                // cannot run dry while tasks live; the next event simply
                // lies beyond the barrier.
                _ => {
                    return Ok(StepStatus::Paused {
                        idle: self.is_wedged(),
                    })
                }
            }
        }
        Ok(StepStatus::Done)
    }

    /// Finishes a stepped run: flushes sinks and renders the report.
    /// The step-mode counterpart of the tail of [`Machine::run`].
    pub fn finish(&mut self) -> RunReport {
        assert!(self.ran, "finish() before start()");
        self.bus.finish();
        self.report()
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

    /// Schedules an inter-node message to arrive in `pipe` at `at` —
    /// the NIC interrupt for a segment the cluster fabric routed here.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in this node's past (the federation must only
    /// schedule arrivals at or after the exchange barrier).
    pub fn inject_external_msg(&mut self, pipe: PipeId, msg: Msg, at: Cycles) {
        assert!(
            at >= self.now,
            "arrival {at:?} before node time {:?}",
            self.now
        );
        self.push_event(at, Event::Net { pipe, msg });
    }

    /// Schedules the far end's close of an inter-node connection to
    /// reach `pipe` at `at` (FIN after the last in-flight segment).
    ///
    /// # Panics
    ///
    /// Panics if `at` is in this node's past.
    pub fn inject_external_close(&mut self, pipe: PipeId, at: Cycles) {
        assert!(
            at >= self.now,
            "close {at:?} before node time {:?}",
            self.now
        );
        self.push_event(at, Event::NetClose { pipe });
    }

    /// Drains every queued message from `pipe` for transmission across
    /// the cluster fabric, waking parked writers at `at` (the NIC pulled
    /// their backlog). Returns the messages and whether the pipe is
    /// closed — a closed-and-drained egress means the connection's FIN
    /// should propagate.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in this node's past.
    pub fn drain_external(&mut self, pipe: PipeId, at: Cycles) -> (Vec<Msg>, bool) {
        assert!(
            at >= self.now,
            "drain {at:?} before node time {:?}",
            self.now
        );
        let mut out = Vec::new();
        while let Ok((msg, waker)) = self.pipes.pipe_mut(pipe).try_read() {
            out.push(msg);
            if let Some(w) = waker {
                self.wake_up(w, 0, at);
            }
        }
        (out, self.pipes.pipe(pipe).is_closed())
    }

    /// Records a node-level fault firing (partition, slow-link,
    /// node-pause) as an observability event at the node's current time.
    pub fn note_fault(&mut self, fault: &'static str) {
        let now = self.now;
        self.bus
            .emit_at(now, ObsEvent::FaultInjected { cpu: 0, fault });
    }

    /// Freezes the whole node for `delta` cycles: every pending event
    /// and every CPU's busy horizon moves `delta` later, like an SMI or
    /// a virtualisation pause. Time spent frozen accrues to whatever
    /// each CPU was doing (`running_since`/`idle_since` deliberately do
    /// not move), exactly as a real stall would be accounted.
    pub fn pause_for(&mut self, delta: u64) {
        self.events.shift_pending(delta);
        for cpu in &mut self.cpus {
            cpu.busy_until += delta;
        }
    }

    /// Delivers an inter-node message into its ingress pipe. Arrival on
    /// a closed pipe drops the segment, as a dead socket would.
    fn on_net_arrival(&mut self, pipe: PipeId, msg: Msg) {
        let now = self.now;
        if let Ok(Some(reader)) = self.pipes.pipe_mut(pipe).deliver(msg) {
            self.wake_up(reader, 0, now);
        }
    }

    /// Applies a propagated close to an ingress pipe and wakes every
    /// task parked on it so it observes the shutdown.
    fn on_net_close(&mut self, pipe: PipeId) {
        let now = self.now;
        for tid in self.pipes.pipe_mut(pipe).close() {
            self.wake_up(tid, 0, now);
        }
    }

    /// True when no task can ever run again: all CPUs idle, nothing on
    /// the run queue, and no pending wake-ish events.
    fn is_wedged(&self) -> bool {
        self.pending_wakeish == 0
            && self.sched.nr_running() == 0
            && self.cpus.iter().all(|c| c.is_idle())
    }

    fn report(&self) -> RunReport {
        debug_assert_eq!(
            self.kernel_cycles,
            self.profiler.total(),
            "cycle attribution must be conservative"
        );
        let total = self.stats.total();
        RunReport {
            // An ejected policy or learned run still reports under its
            // original name: the run *was* that scheduler plus its
            // ejection.
            scheduler: self
                .policy
                .as_ref()
                .map(|p| p.name)
                .or_else(|| self.learned.as_ref().map(|l| l.name))
                .unwrap_or_else(|| self.sched.name()),
            config: self.cfg.label(),
            seed: self.cfg.seed,
            elapsed: self.last_exit,
            cpu_hz: self.cfg.cpu_hz,
            stats: self.stats.clone(),
            ledger: self.ledger.clone(),
            lock_spin: self.locks.total_spin(),
            lock_acquisitions: self.locks.total_acquisitions(),
            lock_plan: self.plan.label(),
            lock_domains: self.locks.domain_stats(),
            tasks_spawned: self.tasks.total_spawned() - self.cfg.nr_cpus() as u64,
            messages_read: self.pipes.total_read(),
            dists: self.dists.clone(),
            trace_dropped: self.bus.dropped(),
            profile: self.profiler.report(total.work_cycles, total.idle_cycles),
            conservation_ok: self.kernel_cycles == self.profiler.total(),
            chaos: if self.injector.is_some() || self.oracle.is_some() {
                Some(ChaosSummary {
                    fault_plan: self
                        .injector
                        .as_ref()
                        .map(|inj| inj.plan().label().to_string()),
                    fault_seed: self.cfg.fault_seed,
                    counts: self
                        .injector
                        .as_ref()
                        .map(|inj| *inj.counts())
                        .unwrap_or_default(),
                    oracle: self.oracle.as_ref().map(|o| o.report().clone()),
                })
            } else {
                None
            },
            policy: self.policy.as_ref().map(|p| PolicySummary {
                name: p.name,
                static_insns: p.static_insns,
                budget: p.budget,
                insns_executed: if p.ejected.is_some() {
                    p.insns_final
                } else {
                    self.sched.policy_insns_executed()
                },
                ejected: p.ejected.is_some(),
                ejected_at: p.ejected.map(|(at, _)| at),
                eject_reason: p.ejected.map(|(_, r)| r),
            }),
            learned: self.learned.as_ref().map(|l| {
                let (predictions, hits) = if l.ejected.is_some() {
                    (l.final_predictions, l.final_hits)
                } else {
                    self.sched.prediction_stats()
                };
                LearnedSummary {
                    name: l.name,
                    arch: l.arch,
                    predictions,
                    hits,
                    ejected: l.ejected.is_some(),
                    ejected_at: l.ejected.map(|(at, _)| at),
                    eject_reason: l.ejected.map(|(_, r)| r),
                }
            }),
            engine: if self.cfg.engine_metrics {
                let events = self.events.total_popped();
                let secs = self.last_exit.as_secs(self.cfg.cpu_hz);
                Some(EngineSummary {
                    events_dispatched: events,
                    sim_events_per_sec: if secs == 0.0 {
                        0.0
                    } else {
                        events as f64 / secs
                    },
                })
            } else {
                None
            },
            topology: {
                let topo = &self.cfg.sched.topology;
                if topo.is_flat() {
                    None
                } else {
                    Some(TopologySummary {
                        shape: topo.to_string(),
                        nr_nodes: topo.nr_nodes() as u64,
                        threads_per_core: topo.threads_per_core() as u64,
                        migrations_same_core: self.topo_migrations[0],
                        migrations_same_node: self.topo_migrations[1],
                        migrations_cross_node: self.topo_migrations[2],
                    })
                }
            },
        }
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn on_tick(&mut self, cpu: CpuId) {
        let now = self.now;
        self.stats.cpu_mut(cpu).ticks += 1;
        // Re-arm the periodic tick, optionally jittered by the fault plan
        // (a sloppy timer: the next interrupt lands early or late).
        let period = match self.injector.as_mut() {
            Some(inj) => {
                let (period, jittered) = inj.tick_period(self.cfg.tick_cycles);
                if jittered {
                    self.bus.emit_at(
                        now,
                        ObsEvent::FaultInjected {
                            cpu,
                            fault: "tick_jitter",
                        },
                    );
                }
                period
            }
            None => self.cfg.tick_cycles,
        };
        self.events.push(now + period, Event::Tick { cpu });
        // Spurious wakeup: aim a wake_up_process() at a deterministically
        // chosen live task. Waking a non-blocked task must be a no-op;
        // waking a blocked one early is legal but hostile.
        if self.injector.is_some() {
            let cands: Vec<Tid> = self
                .tasks
                .iter()
                .map(|t| t.tid)
                .filter(|&tid| !is_idle_task(&self.cpus, tid))
                .collect();
            if let Some(i) = self
                .injector
                .as_mut()
                .and_then(|inj| inj.spurious_wakeup(cands.len()))
            {
                self.bus.emit_at(
                    now,
                    ObsEvent::FaultInjected {
                        cpu,
                        fault: "spurious_wakeup",
                    },
                );
                self.wake_up(cands[i], cpu, now);
            }
        }
        let cur = self.cpus[cpu].current;
        if !self.cpus[cpu].is_idle() {
            // Quantum accounting: the timer interrupt decrements the
            // running task's counter (update_process_times).
            let expired = {
                let mut task = self.tasks.task_mut(cur);
                if task.counter > 0 {
                    task.counter -= 1;
                }
                // An expired quantum forces a reschedule for timesharing
                // tasks and SCHED_RR; SCHED_FIFO runs until it blocks.
                task.counter == 0
                    && (!task.policy.class.is_realtime()
                        || task.policy.class == elsc_ktask::SchedClass::Rr)
            };
            if expired {
                self.cpus[cpu].need_resched = true;
            }
            // Policy tick hook: runs after the machine's own quantum
            // bookkeeping. Gated on an active loaded policy, so
            // native runs never see the extra call and stay
            // byte-identical to the pre-policy machine.
            if self.policy.as_ref().is_some_and(|p| p.ejected.is_none()) {
                let mut meter = CycleMeter::new();
                self.bus.set_now(now);
                {
                    let mut ctx = SchedCtx {
                        tasks: &mut self.tasks,
                        stats: &mut self.stats,
                        meter: &mut meter,
                        costs: &self.cfg.costs,
                        cfg: &self.cfg.sched,
                        probe: Some(&mut self.bus),
                        locks: None,
                    };
                    self.sched.on_tick(&mut ctx, cpu, cur);
                }
                self.charge_kernel_meter(cpu, Phase::Schedule, &meter);
                // The hook may have zeroed the running task's counter;
                // honour the expired quantum exactly as above.
                let task = self.tasks.task(cur);
                if task.counter == 0
                    && (!task.policy.class.is_realtime()
                        || task.policy.class == elsc_ktask::SchedClass::Rr)
                {
                    self.cpus[cpu].need_resched = true;
                }
            }
        } else if self.has_waiting_work() {
            // Idle loop poll: runnable work exists somewhere.
            self.cpus[cpu].need_resched = true;
        }
        if self.cpus[cpu].need_resched {
            self.preempt(cpu);
            self.drive(cpu, Drive::Schedule(now));
        }
    }

    /// Whether the run queue holds tasks beyond those currently running.
    fn has_waiting_work(&self) -> bool {
        let running = self.cpus.iter().filter(|c| !c.is_idle()).count();
        self.sched.nr_running() > running
    }

    /// Saves the preempted task's remaining compute so it resumes where
    /// it left off.
    fn preempt(&mut self, cpu: CpuId) {
        let cur = self.cpus[cpu].current;
        if cur == self.cpus[cpu].idle {
            return;
        }
        let remaining = self.cpus[cpu].busy_until.saturating_sub(self.now).get();
        if let Some(p) = self.run_mut(cur).pending.as_mut() {
            if p.remaining > 0 {
                p.remaining = remaining.max(1);
            }
        }
    }

    fn on_resume(&mut self, cpu: CpuId, gen: u64) {
        if gen != self.cpus[cpu].gen {
            return; // cancelled by a preemption or reschedule
        }
        let cur = self.cpus[cpu].current;
        if cur == self.cpus[cpu].idle {
            return;
        }
        if let Some(p) = self.run_mut(cur).pending.as_mut() {
            p.remaining = 0;
        }
        self.drive(cpu, Drive::RunCurrent(self.now));
    }

    fn on_ipi(&mut self, cpu: CpuId) {
        if !self.cpus[cpu].need_resched {
            return;
        }
        self.preempt(cpu);
        self.drive(cpu, Drive::Schedule(self.now));
    }

    // ------------------------------------------------------------------
    // The trampoline: schedule <-> run without recursion
    // ------------------------------------------------------------------

    fn drive(&mut self, cpu: CpuId, start: Drive) {
        let mut step = Some(start);
        while let Some(s) = step.take() {
            step = match s {
                Drive::Schedule(t) => {
                    let next = self.do_schedule(cpu, t);
                    // Free any task that exited under this schedule.
                    while let Some(tid) = self.to_free.pop() {
                        self.runs[tid.index()] = None;
                        self.tasks.free(tid);
                    }
                    next.map(Drive::RunCurrent)
                }
                Drive::RunCurrent(t) => self.run_segments(cpu, t).map(Drive::Schedule),
            };
        }
    }

    /// One `schedule()` call: lock, decide, switch. Returns the time at
    /// which a dispatched user task starts running, or `None` if the CPU
    /// went idle.
    fn do_schedule(&mut self, cpu: CpuId, t: Cycles) -> Option<Cycles> {
        let prev = self.cpus[cpu].current;
        let idle = self.cpus[cpu].idle;
        // CPU time accounting for the outgoing occupancy.
        if prev != idle {
            if let Some(s) = self.cpus[cpu].running_since.take() {
                self.stats.cpu_mut(cpu).work_cycles += t.saturating_sub(s).get();
            }
        } else {
            let s = self.cpus[cpu].idle_since;
            self.stats.cpu_mut(cpu).idle_cycles += t.saturating_sub(s).get();
        }

        // The run-queue lock plan covers the whole decision (SMP builds):
        // the home domain — this CPU's queue — is taken up front; any
        // further domain a sharded scheduler needs mid-call (a steal) is
        // taken through the ctx's `DomainLocker` and logged.
        let depth = self.sched.nr_running() as u64;
        self.dists.record("runqueue_len", depth);
        self.bus
            .emit_at(t, ObsEvent::QueueDepthSample { cpu, depth });
        // Decision trace: snapshot every eligible candidate's features
        // *before* the scheduler runs (it mutates counters and yield
        // bits). The burst plus the closing `sched_decision` below is one
        // supervised training row for `elsc-learn`. Pure observation.
        if self.cfg.decision_trace {
            self.trace_decisions += 1;
            let prev_mm = self.tasks.task(prev).mm;
            let topo = self.cfg.sched.topology;
            for task in self.tasks.iter() {
                let eligible =
                    is_runnable_work(&self.cpus, task) && (task.tid == prev || !task.has_cpu);
                if !eligible {
                    continue;
                }
                let recency = self
                    .trace_last_picked
                    .get(&task.tid)
                    .map_or(255, |&won| (self.trace_decisions - won).min(255));
                self.bus.emit_at(
                    t,
                    ObsEvent::SchedCandidate {
                        cpu,
                        tid: task.tid,
                        counter: task.counter.max(0) as u64,
                        priority: task.priority.max(0) as u64,
                        rt: task.policy.class.is_realtime() as u64,
                        mm_match: (task.mm == prev_mm) as u64,
                        affinity: elsc_sched_api::topo_affinity_bonus(&topo, cpu, task.processor)
                            .max(0) as u64,
                        recency,
                    },
                );
            }
        }
        // Chaos oracle: freeze the runnable set and prev's scheduling
        // state *before* the scheduler under test runs (it may mutate
        // counters, clear SCHED_YIELD, or recalculate). Idle tasks are
        // excluded; tasks executing elsewhere carry `has_cpu` so the
        // reference scan can apply `can_schedule()` itself.
        let probe = if self.oracle.is_some() {
            let snaps: Vec<TaskSnap> = self
                .tasks
                .iter()
                .filter(|task| is_runnable_work(&self.cpus, task))
                .map(TaskSnap::of)
                .collect();
            let pt = self.tasks.task(prev);
            Some((
                snaps,
                pt.mm,
                pt.policy.yielded,
                pt.state.is_runnable(),
                self.stats.cpu(cpu).yield_reruns,
            ))
        } else {
            None
        };
        let (t_acq, home) = if self.cfg.sched.smp {
            self.acquire_home_domain(cpu, cpu, t)
        } else {
            (t, 0)
        };
        let mut meter = CycleMeter::new();
        self.bus.set_now(t_acq);
        let mut domains = if self.cfg.sched.smp {
            Some(LockDomains::new(
                &mut self.locks,
                self.plan,
                self.cfg.sched.nr_cpus,
                cpu,
                t_acq,
                home,
                &mut self.lock_scratch,
            ))
        } else {
            None
        };
        let next = {
            let mut ctx = SchedCtx {
                tasks: &mut self.tasks,
                stats: &mut self.stats,
                meter: &mut meter,
                costs: &self.cfg.costs,
                cfg: &self.cfg.sched,
                probe: Some(&mut self.bus),
                locks: domains.as_mut().map(|d| d as &mut dyn DomainLocker),
            };
            self.sched.schedule(&mut ctx, cpu, prev, idle)
        };
        // Chaos: a delayed lock holder stretches the held interval beyond
        // the work the call actually did, so every other CPU contending
        // for the domain spins correspondingly longer (SMP builds only —
        // there is no held domain to delay on UP).
        let hold_extra = match self.injector.as_mut() {
            Some(inj) if domains.is_some() => inj.lock_hold(meter.cycles()).unwrap_or(0),
            _ => 0,
        };
        // Release every held domain before any further `&mut self` work:
        // the domain set borrows the lock bank. Mid-call spins stretch
        // the call, so they are part of the held interval.
        let (extra_spin, n_taken) = match domains {
            Some(d) => {
                let extra = d.extra_spin();
                let taken = d.release_all(t_acq + meter.cycles() + extra + hold_extra);
                (extra, taken.len())
            }
            None => (0, 0),
        };
        self.charge_kernel_meter(cpu, Phase::Schedule, &meter);
        if hold_extra > 0 {
            // The extra held time is real CPU time on the holder; charge
            // it as lock-domain cycles so the conservation invariant
            // (`kernel_cycles == profiler.total()`) keeps holding.
            self.bus.emit_at(
                t_acq,
                ObsEvent::FaultInjected {
                    cpu,
                    fault: "lock_hold",
                },
            );
            self.charge_kernel_raw(cpu, Phase::LockSpin, hold_extra);
        }
        let cycles = meter.take();
        let t_done = t_acq + cycles + extra_spin + hold_extra;
        for k in 0..n_taken {
            let a = self.lock_scratch.taken()[k];
            self.account_domain_acquire(cpu, a);
        }
        self.stats.cpu_mut(cpu).sched_cycles += cycles;
        // Close the decision-trace burst with the label: what the
        // scheduler actually picked, and at what queue depth.
        if self.cfg.decision_trace {
            self.bus.emit_at(
                t_done,
                ObsEvent::SchedDecision {
                    cpu,
                    prev,
                    chosen: next,
                    depth,
                },
            );
            if next != idle {
                self.trace_last_picked.insert(next, self.trace_decisions);
            }
        }
        // Chaos oracle: replay the reference O(n) scan over the frozen
        // snapshot, classify this decision, and check the run-queue
        // invariants the scheduler must have preserved. Pure observation:
        // no simulated cycles are charged and no task state is touched.
        if let Some((snaps, prev_mm, prev_yielded, prev_runnable, reruns_before)) = probe {
            let d = Decision {
                cpu,
                prev,
                idle,
                prev_mm,
                prev_yielded,
                prev_runnable,
                chosen: next,
                yield_rerun: self.stats.cpu(cpu).yield_reruns > reruns_before,
                search_limit: self.cfg.sched.search_limit(),
                smp: self.cfg.sched.smp,
                topology: self.cfg.sched.topology,
                snaps: &snaps,
            };
            let v = self
                .oracle
                .as_mut()
                .expect("probe implies oracle")
                .judge_full(&d);
            if v.class != DivergenceClass::Match {
                self.bus.emit_at(
                    t_done,
                    ObsEvent::OracleDivergence {
                        cpu,
                        chosen: next,
                        expected: v.expected,
                        class: v.class.label(),
                    },
                );
            }
            let violations = check_task_invariants(&self.tasks);
            if !violations.is_empty() {
                self.oracle
                    .as_mut()
                    .expect("probe implies oracle")
                    .record_violations(&violations);
            }
        }
        // Policy watchdog. A policy that violated its contract this
        // decision (budget blowout, illegal pick, corrupted state) or
        // picked idle over a runnable, unclaimed task for
        // `policy_starve_k` consecutive decisions is deterministically
        // ejected: the vanilla baseline scheduler takes over from the
        // *next* decision. The pick for this decision stands — the
        // policy host already substituted a legal one.
        if self.policy.as_ref().is_some_and(|p| p.ejected.is_none()) {
            if let Some(v) = self.sched.take_violation() {
                self.eject_policy(cpu, t_done, v.label());
            } else {
                let starving = next == idle
                    && self.tasks.iter().any(|task| {
                        task.on_runqueue() && task.state.is_runnable() && !task.has_cpu
                    });
                let p = self.policy.as_mut().expect("checked above");
                if !starving {
                    p.starve_streak = 0;
                } else {
                    p.starve_streak += 1;
                    if p.starve_streak >= self.cfg.policy_starve_k {
                        self.eject_policy(cpu, t_done, "starvation");
                    }
                }
            }
        }
        // Learned watchdog: the accuracy-collapse analogue of the policy
        // starvation check. A model whose verified prediction fails
        // `learn_eject_k` consecutive decisions is deterministically
        // ejected; the pick for this decision stands — the scheduler's
        // fallback scan already substituted the native choice.
        if self.learned.as_ref().is_some_and(|l| l.ejected.is_none()) {
            if let Some(hit) = self.sched.take_prediction() {
                let l = self.learned.as_mut().expect("checked above");
                if hit {
                    l.miss_streak = 0;
                } else {
                    l.miss_streak += 1;
                    if l.miss_streak >= self.cfg.learn_eject_k {
                        self.eject_learned(cpu, t_done, "accuracy_collapse");
                    }
                }
            }
        }
        self.cpus[cpu].need_resched = false;
        self.cpus[cpu].gen += 1; // cancel any outstanding Resume

        let mut t2 = t_done;
        // The topological distance this pick makes the task cross (its
        // last CPU → here) must be known *before* the mm-switch charge
        // below: adopting an address space whose page tables live on the
        // far node costs more than a local flush. On flat trees every
        // pair of CPUs is same-node, so nothing here changes.
        let topo = self.cfg.sched.topology;
        let from_cpu = if next != idle {
            self.tasks.task(next).processor
        } else {
            cpu
        };
        let cross_node = from_cpu != cpu && !topo.same_node(from_cpu, cpu);
        if next != prev {
            self.bus.emit_at(
                t_done,
                ObsEvent::Switch {
                    cpu,
                    from: prev,
                    to: next,
                },
            );
            self.stats.cpu_mut(cpu).ctx_switches += 1;
            let ctx_cost = self.cfg.costs.get(CostKind::CtxSwitch);
            self.charge_kernel_kind(cpu, Phase::Switch, CostKind::CtxSwitch, ctx_cost);
            t2 += ctx_cost;
            // Lazy TLB: the idle task borrows the outgoing mm
            // (`active_mm`), so only a switch to a *different user mm*
            // flushes.
            let next_mm = self.tasks.task(next).mm;
            if next != idle && next_mm != self.cpus[cpu].active_mm {
                self.stats.cpu_mut(cpu).mm_switches += 1;
                let mut mm_cost = self.cfg.costs.get(CostKind::MmSwitch);
                if cross_node {
                    // The flush coincides with a cross-node migration:
                    // the incoming mm's page tables are remote, so the
                    // TLB refill traffic crosses the interconnect.
                    mm_cost *= 2;
                }
                self.charge_kernel_kind(cpu, Phase::Switch, CostKind::MmSwitch, mm_cost);
                t2 += mm_cost;
                self.cpus[cpu].active_mm = next_mm;
            }
        }
        self.cpus[cpu].current = next;
        if next == idle {
            self.cpus[cpu].idle_since = t2;
            return None;
        }
        // Migration detection: the scheduler left `processor` untouched.
        let migrated = {
            let mut nt = self.tasks.task_mut(next);
            let m = nt.processor != cpu;
            nt.processor = cpu;
            m
        };
        if migrated {
            self.bus.emit_at(
                t2,
                ObsEvent::Migrate {
                    tid: next,
                    to_cpu: cpu,
                },
            );
            self.stats.cpu_mut(cpu).picked_new_cpu += 1;
            // Cold-cache penalty, scaled by the distance crossed: SMT
            // siblings share L1/L2 (quarter cost), node-mates share the
            // LLC (half), and crossing a node boundary doubles the flat
            // cost. Flat trees scale 1/1 — the classic model verbatim.
            let (num, den) = topo.migration_scale(from_cpu, cpu);
            let base = self.cfg.costs.get(CostKind::MigrationPenalty);
            self.run_mut(next).migrate_penalty = base * num / den;
            if !topo.is_flat() {
                let bucket = if topo.same_core(from_cpu, cpu) {
                    0
                } else if topo.same_node(from_cpu, cpu) {
                    1
                } else {
                    2
                };
                self.topo_migrations[bucket] += 1;
            }
        }
        if let Some(w) = self.run_mut(next).woken_at.take() {
            self.dists
                .record("wake_latency", t2.saturating_sub(w).get());
        }
        self.cpus[cpu].running_since = Some(t2);
        Some(t2)
    }

    /// Ejects the active loaded policy at `t`: freezes its
    /// instruction count, emits [`ObsEvent::PolicyEjected`], and hands
    /// the run to the baseline ([`Machine::swap_to_baseline`]).
    /// Deterministic: the decision stream up to this point is
    /// seed-determined, so same-seed runs eject at the same instant with
    /// byte-identical reports.
    fn eject_policy(&mut self, cpu: CpuId, t: Cycles, reason: &'static str) {
        let insns = self.sched.policy_insns_executed();
        let p = self.policy.as_mut().expect("eject without a policy run");
        p.insns_final = insns;
        p.ejected = Some((t, reason));
        let name = p.name;
        self.bus.emit_at(
            t,
            ObsEvent::PolicyEjected {
                cpu,
                policy: name,
                reason,
            },
        );
        self.swap_to_baseline(cpu, t);
    }

    /// Ejects the active learned scheduler at `t`: freezes its prediction
    /// counters, emits [`ObsEvent::LearnedEjected`], and hands the run to
    /// the baseline exactly as [`Machine::eject_policy`] does.
    fn eject_learned(&mut self, cpu: CpuId, t: Cycles, reason: &'static str) {
        let (predictions, hits) = self.sched.prediction_stats();
        let l = self.learned.as_mut().expect("eject without a learned run");
        l.final_predictions = predictions;
        l.final_hits = hits;
        l.ejected = Some((t, reason));
        let name = l.name;
        self.bus.emit_at(
            t,
            ObsEvent::LearnedEjected {
                cpu,
                model: name,
                reason,
            },
        );
        self.swap_to_baseline(cpu, t);
    }

    /// Swaps in the vanilla baseline scheduler at `t` and migrates every
    /// queued task across with front-to-back order preserved. All
    /// list-surgery cycles are charged to the ejecting CPU's `Schedule`
    /// phase, so the conservation invariant keeps holding.
    fn swap_to_baseline(&mut self, cpu: CpuId, t: Cycles) {
        let mut old = std::mem::replace(
            &mut self.sched,
            Box::new(elsc_sched_linux::LinuxScheduler::new()),
        );
        let mut meter = CycleMeter::new();
        self.bus.set_now(t);
        {
            let mut ctx = SchedCtx {
                tasks: &mut self.tasks,
                stats: &mut self.stats,
                meter: &mut meter,
                costs: &self.cfg.costs,
                cfg: &self.cfg.sched,
                probe: Some(&mut self.bus),
                locks: None,
            };
            let queued = old.drain(&mut ctx);
            // The baseline's `add_to_runqueue` inserts at the *front*,
            // so re-adding in reverse preserves the drained order.
            for &tid in queued.iter().rev() {
                self.sched.add_to_runqueue(&mut ctx, tid);
            }
        }
        self.charge_kernel_meter(cpu, Phase::Schedule, &meter);
    }

    /// Runs the current task: dispatch compute segments and execute
    /// completed syscalls until an event is scheduled or the task stops.
    /// Returns `Some(t)` when the CPU must call `schedule()` at `t`.
    fn run_segments(&mut self, cpu: CpuId, mut t: Cycles) -> Option<Cycles> {
        loop {
            if self.cpus[cpu].need_resched {
                return Some(t);
            }
            let cur = self.cpus[cpu].current;
            debug_assert_ne!(cur, self.cpus[cpu].idle, "running the idle task");
            if self.run_ref(cur).pending.is_none() {
                let op = self.call_behavior(cur, t);
                self.run_mut(cur).pending = Some(Pending {
                    remaining: op.compute.max(1),
                    syscall: op.then,
                });
            }
            // Dispatch the compute segment if any cycles remain.
            let remaining = self
                .run_ref(cur)
                .pending
                .as_ref()
                .map_or(0, |p| p.remaining);
            if remaining > 0 {
                if self.run_ref(cur).migrate_penalty > 0 {
                    // Cold caches after migrating: the first segment runs
                    // longer (paper: the 15-point bonus exists to avoid
                    // exactly this cost). The cycle count was scaled by
                    // topological distance at migration time.
                    let run = self.run_mut(cur);
                    let penalty = run.migrate_penalty;
                    run.migrate_penalty = 0;
                    if let Some(p) = run.pending.as_mut() {
                        p.remaining += penalty;
                    }
                }
                let remaining = self.run_ref(cur).pending.as_ref().unwrap().remaining;
                let end = t + remaining;
                self.cpus[cpu].gen += 1;
                let gen = self.cpus[cpu].gen;
                self.cpus[cpu].busy_until = end;
                self.push_event(end, Event::Resume { cpu, gen });
                return None;
            }
            // Segment complete: perform the syscall.
            let Pending { syscall, .. } = self.run_mut(cur).pending.take().expect("pending");
            let base = self.cfg.costs.get(CostKind::SyscallBase);
            match syscall {
                Syscall::Nop => {}
                Syscall::Yield => {
                    t += base;
                    self.charge_kernel_kind(cpu, Phase::Syscall, CostKind::SyscallBase, base);
                    self.tasks.task_mut(cur).policy.yielded = true;
                    self.stats.cpu_mut(cpu).yields += 1;
                    return Some(t);
                }
                Syscall::Exit => {
                    let exit_cost = self.cfg.costs.get(CostKind::Exit);
                    t += base + exit_cost;
                    self.charge_kernel_kind(cpu, Phase::Syscall, CostKind::SyscallBase, base);
                    self.charge_kernel_kind(cpu, Phase::Syscall, CostKind::Exit, exit_cost);
                    self.bus.emit_at(t, ObsEvent::Exit { tid: cur });
                    self.tasks.task_mut(cur).state = TaskState::Zombie;
                    self.live_users -= 1;
                    self.last_exit = t;
                    self.to_free.push(cur);
                    return Some(t);
                }
                Syscall::Sleep(d) => {
                    t += base;
                    self.charge_kernel_kind(cpu, Phase::Syscall, CostKind::SyscallBase, base);
                    self.bus.emit_at(t, ObsEvent::Block { tid: cur, cpu });
                    self.tasks.task_mut(cur).state = TaskState::Interruptible;
                    self.push_event(t + d, Event::Timer { tid: cur });
                    return Some(t);
                }
                Syscall::Read(pipe) => {
                    let pipe_cost = self.cfg.costs.get(CostKind::PipeOp);
                    t += base + pipe_cost;
                    self.charge_kernel_kind(cpu, Phase::Syscall, CostKind::SyscallBase, base);
                    self.charge_kernel_kind(cpu, Phase::Syscall, CostKind::PipeOp, pipe_cost);
                    match self.pipes.pipe_mut(pipe).try_read() {
                        Ok((msg, waker)) => {
                            // finish_wait(): a spuriously woken reader may
                            // still hold its queue entry; drop it so a
                            // later wake_one() cannot be swallowed by the
                            // stale slot.
                            self.pipes.pipe_mut(pipe).readers.unpark(cur);
                            let polls = self.cfg.io_poll_yields;
                            let run = self.run_mut(cur);
                            run.last_read = Some(msg);
                            run.polls_left = polls;
                            if let Some(w) = waker {
                                t = self.wake_up(w, cpu, t);
                            }
                        }
                        Err(PipeError::WouldBlock) => {
                            self.run_mut(cur).pending = Some(Pending {
                                remaining: 0,
                                syscall: Syscall::Read(pipe),
                            });
                            if self.poll_or_park(cur, cpu, |pipes| {
                                pipes.pipe_mut(pipe).readers.park(cur)
                            }) {
                                return Some(t);
                            }
                            return Some(t);
                        }
                        Err(PipeError::Closed) => {
                            self.pipes.pipe_mut(pipe).readers.unpark(cur);
                            self.run_mut(cur).last_read = None;
                        }
                    }
                }
                Syscall::Write(pipe, msg) => {
                    let pipe_cost = self.cfg.costs.get(CostKind::PipeOp);
                    t += base + pipe_cost;
                    self.charge_kernel_kind(cpu, Phase::Syscall, CostKind::SyscallBase, base);
                    self.charge_kernel_kind(cpu, Phase::Syscall, CostKind::PipeOp, pipe_cost);
                    // Chaos: the peer may reset the connection under this
                    // write, or the write may be cut short (charged but
                    // not delivered; the writer retries).
                    let (reset, short) = match self.injector.as_mut() {
                        Some(inj) => {
                            let reset = inj.peer_reset();
                            (reset, !reset && inj.short_write())
                        }
                        None => (false, false),
                    };
                    if reset {
                        self.bus.emit_at(
                            t,
                            ObsEvent::FaultInjected {
                                cpu,
                                fault: "peer_reset",
                            },
                        );
                        // The peer closes the pipe under the conversation:
                        // every parked reader and writer wakes to observe
                        // `Closed`, and the `try_write` below fails like a
                        // real post-reset send.
                        let wakers = self.pipes.pipe_mut(pipe).close();
                        for w in wakers {
                            t = self.wake_up(w, cpu, t);
                        }
                    } else if short {
                        self.bus.emit_at(
                            t,
                            ObsEvent::FaultInjected {
                                cpu,
                                fault: "short_write",
                            },
                        );
                        // Retry the write via a yield, like a would-block
                        // poll. Time advanced, so progress is preserved
                        // with probability one for any rate < 1.
                        self.run_mut(cur).pending = Some(Pending {
                            remaining: 0,
                            syscall: Syscall::Write(pipe, msg),
                        });
                        self.tasks.task_mut(cur).policy.yielded = true;
                        self.stats.cpu_mut(cpu).yields += 1;
                        return Some(t);
                    }
                    match self.pipes.pipe_mut(pipe).try_write(msg) {
                        Ok(waker) => {
                            // finish_wait(), as on the read side.
                            self.pipes.pipe_mut(pipe).writers.unpark(cur);
                            self.run_mut(cur).polls_left = self.cfg.io_poll_yields;
                            if let Some(w) = waker {
                                t = self.wake_up(w, cpu, t);
                            }
                        }
                        Err(PipeError::WouldBlock) => {
                            self.run_mut(cur).pending = Some(Pending {
                                remaining: 0,
                                syscall: Syscall::Write(pipe, msg),
                            });
                            self.poll_or_park(cur, cpu, |pipes| {
                                pipes.pipe_mut(pipe).writers.park(cur)
                            });
                            return Some(t);
                        }
                        Err(PipeError::Closed) => {
                            // Writing to a closed pipe: message dropped.
                            self.pipes.pipe_mut(pipe).writers.unpark(cur);
                        }
                    }
                }
                Syscall::Close(pipe) => {
                    let pipe_cost = self.cfg.costs.get(CostKind::PipeOp);
                    t += base + pipe_cost;
                    self.charge_kernel_kind(cpu, Phase::Syscall, CostKind::SyscallBase, base);
                    self.charge_kernel_kind(cpu, Phase::Syscall, CostKind::PipeOp, pipe_cost);
                    // Closing must wake *every* parked reader and writer
                    // so each observes `Closed` now — a task parked on a
                    // dead pipe would otherwise wedge until the deadlock
                    // detector trips.
                    let wakers = self.pipes.pipe_mut(pipe).close();
                    for w in wakers {
                        t = self.wake_up(w, cpu, t);
                    }
                }
                Syscall::Spawn(req) => {
                    let fork_cost = self.cfg.costs.get(CostKind::Fork);
                    t += base + fork_cost;
                    self.charge_kernel_kind(cpu, Phase::Syscall, CostKind::SyscallBase, base);
                    self.charge_kernel_kind(cpu, Phase::Syscall, CostKind::Fork, fork_cost);
                    let child = self.spawn_inner(&req.spec, req.behavior);
                    t = self.make_runnable(child, cpu, t);
                    self.run_mut(cur).last_spawned = Some(child);
                }
            }
        }
    }

    /// Spin-then-block on a would-block I/O operation: while the task has
    /// poll budget left, consume one unit and `sched_yield()` (the
    /// pending syscall retries when the task next runs); once the budget
    /// is spent, park the task via `park` and block. Returns `true` when
    /// it polled.
    fn poll_or_park<F: FnOnce(&mut PipeTable)>(&mut self, cur: Tid, cpu: CpuId, park: F) -> bool {
        let polls_left = self.run_ref(cur).polls_left;
        if polls_left > 0 {
            self.run_mut(cur).polls_left = polls_left - 1;
            self.tasks.task_mut(cur).policy.yielded = true;
            self.stats.cpu_mut(cpu).yields += 1;
            true
        } else {
            self.run_mut(cur).polls_left = self.cfg.io_poll_yields;
            park(&mut self.pipes);
            self.bus
                .emit_at(self.now, ObsEvent::Block { tid: cur, cpu });
            self.tasks.task_mut(cur).state = TaskState::Interruptible;
            false
        }
    }

    /// Calls the task's behaviour to get its next op.
    fn call_behavior(&mut self, tid: Tid, now: Cycles) -> Op {
        let idx = tid.index();
        let mut behavior = self.runs[idx]
            .as_mut()
            .expect("no run state")
            .behavior
            .take()
            .expect("idle task has no behavior to run");
        let op = {
            let run = self.runs[idx].as_mut().expect("no run state");
            let mut sys = SysView {
                tid,
                now,
                last_read: run.last_read.take(),
                last_spawned: run.last_spawned.take(),
                rng: &mut run.rng,
                ledger: &mut self.ledger,
                dists: &mut self.dists,
            };
            behavior.resume(&mut sys)
        };
        self.runs[idx].as_mut().expect("no run state").behavior = Some(behavior);
        op
    }

    // ------------------------------------------------------------------
    // Wakeups
    // ------------------------------------------------------------------

    /// `wake_up_process()`: make a blocked task runnable and decide where
    /// it should run. Returns the caller's advanced time cursor.
    fn wake_up(&mut self, tid: Tid, waker_cpu: CpuId, t: Cycles) -> Cycles {
        let Some(task) = self.tasks.get(tid) else {
            return t; // stale timer on an exited task
        };
        if !task.state.is_blocked() {
            return t; // already runnable (or a zombie)
        }
        self.tasks.task_mut(tid).state = TaskState::Running;
        self.bus.emit_at(
            t,
            ObsEvent::Wakeup {
                tid,
                by_cpu: waker_cpu,
            },
        );
        self.stats.cpu_mut(waker_cpu).wakeups += 1;
        self.run_mut(tid).woken_at = Some(t);
        self.make_runnable(tid, waker_cpu, t)
    }

    /// Sends a reschedule IPI to `target`, subject to the fault plan:
    /// delivery may be delayed (latency inflated) or dropped outright.
    /// A dropped IPI is safe because `need_resched` stays set on the
    /// target — its next timer tick performs the reschedule, the same
    /// safety net the kernel itself relies on.
    fn send_ipi(&mut self, target: CpuId, t: Cycles) {
        let base = self.cfg.costs.get(CostKind::IpiLatency);
        let fault = self
            .injector
            .as_mut()
            .map_or(IpiFault::None, |inj| inj.ipi_fault(base));
        match fault {
            IpiFault::None => self.push_event(t + base, Event::Ipi { cpu: target }),
            IpiFault::Delay(extra) => {
                self.bus.emit_at(
                    t,
                    ObsEvent::FaultInjected {
                        cpu: target,
                        fault: "ipi_delay",
                    },
                );
                self.push_event(t + base + extra, Event::Ipi { cpu: target });
            }
            IpiFault::Drop => {
                self.bus.emit_at(
                    t,
                    ObsEvent::FaultInjected {
                        cpu: target,
                        fault: "ipi_drop",
                    },
                );
            }
        }
    }

    /// Enqueues a runnable task and runs `reschedule_idle()` placement.
    fn make_runnable(&mut self, tid: Tid, waker_cpu: CpuId, t: Cycles) -> Cycles {
        debug_assert!(self.tasks.task(tid).state.is_runnable());
        // add_to_runqueue under the run-queue lock. The home domain is
        // the one guarding the queue the task lands on — its last CPU's
        // queue under sharded plans — while the spin is charged to the
        // waker, whose time pays for it.
        let queue_cpu = self.tasks.task(tid).processor;
        let (t_acq, home) = if self.cfg.sched.smp {
            self.acquire_home_domain(queue_cpu, waker_cpu, t)
        } else {
            (t, 0)
        };
        let mut meter = CycleMeter::new();
        let mut domains = if self.cfg.sched.smp {
            Some(LockDomains::new(
                &mut self.locks,
                self.plan,
                self.cfg.sched.nr_cpus,
                waker_cpu,
                t_acq,
                home,
                &mut self.lock_scratch,
            ))
        } else {
            None
        };
        {
            self.bus.set_now(t_acq);
            let mut ctx = SchedCtx {
                tasks: &mut self.tasks,
                stats: &mut self.stats,
                meter: &mut meter,
                costs: &self.cfg.costs,
                cfg: &self.cfg.sched,
                probe: Some(&mut self.bus),
                locks: domains.as_mut().map(|d| d as &mut dyn DomainLocker),
            };
            self.sched.add_to_runqueue(&mut ctx, tid);
        }
        // reschedule_idle() runs under the run-queue lock in the kernel:
        // it reads every CPU's current task, so it is charged one
        // goodness evaluation per CPU plus its fixed cost, all while
        // holding the lock — a major serialization point on SMP.
        meter.charge(&self.cfg.costs, CostKind::RescheduleIdle);
        meter.charge_n(
            &self.cfg.costs,
            CostKind::GoodnessEval,
            self.cfg.nr_cpus() as u64,
        );
        let (extra_spin, n_taken) = match domains {
            Some(d) => {
                let extra = d.extra_spin();
                let taken = d.release_all(t_acq + meter.cycles() + extra);
                (extra, taken.len())
            }
            None => (0, 0),
        };
        self.charge_kernel_meter(waker_cpu, Phase::Wakeup, &meter);
        let t2 = t_acq + meter.take() + extra_spin;
        for k in 0..n_taken {
            let a = self.lock_scratch.taken()[k];
            self.account_domain_acquire(waker_cpu, a);
        }
        let mut t3 = t2;

        // Snapshot every CPU into the reusable scratch buffer — one of
        // the hot wakeup-path allocations this engine must not make.
        self.view_scratch.clear();
        self.view_scratch.extend(self.cpus.iter().map(|c| CpuView {
            id: c.id,
            idle: c.is_idle(),
            current: c.current,
        }));
        match reschedule_idle(&self.tasks, &self.cfg.sched, &self.view_scratch, tid) {
            WakeTarget::IpiIdle(target) => {
                self.cpus[target].need_resched = true;
                self.stats.cpu_mut(waker_cpu).ipis_sent += 1;
                t3 += 1;
                self.send_ipi(target, t3);
            }
            WakeTarget::Preempt(target) => {
                self.cpus[target].need_resched = true;
                if target != waker_cpu {
                    self.stats.cpu_mut(waker_cpu).ipis_sent += 1;
                    self.send_ipi(target, t3);
                }
                // target == waker_cpu: the need_resched check at the top
                // of run_segments picks this up at the syscall boundary.
            }
            WakeTarget::None => {}
        }
        t3
    }
}

/// Whether `tid` is some CPU's idle task.
fn is_idle_task(cpus: &[CpuState], tid: Tid) -> bool {
    cpus.iter().any(|c| c.idle == tid)
}

/// The set every pre-decision observer snapshots (the decision trace,
/// the oracle): runnable, and not an idle task.
fn is_runnable_work(cpus: &[CpuState], task: &Task) -> bool {
    task.state.is_runnable() && !is_idle_task(cpus, task.tid)
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
    use crate::behavior::Script;
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
                Syscall::Spawn(crate::behavior::SpawnReq {
                    spec: TaskSpec::named("child").mm(MmId(2)),
                    behavior: Box::new(Script::new(vec![Op::compute(50_000, Syscall::Nop)])),
                }),
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
    use crate::behavior::Script;
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
    use crate::behavior::Script;
    use crate::trace::TraceEvent;
    use elsc_ktask::MmId;

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
            .filter(|e| matches!(e, TraceEvent::Block { tid, .. } if *tid == reader))
            .next()
            .expect("reader blocked")
            .at;
        let wake_at = trace
            .filter(|e| matches!(e, TraceEvent::Wakeup { tid, .. } if *tid == reader))
            .next()
            .expect("reader woken")
            .at;
        let exit_at = trace
            .filter(|e| matches!(e, TraceEvent::Exit { tid } if *tid == reader))
            .next()
            .expect("reader exited")
            .at;
        assert!(block_at < wake_at && wake_at < exit_at);
        // Trace switch records match the stats counter.
        let switches = trace
            .filter(|e| matches!(e, TraceEvent::Switch { .. }))
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
    use crate::behavior::Script;
    use crate::trace::TraceEvent;
    use elsc_ktask::MmId;
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
            .filter(|e| matches!(e, TraceEvent::PolicyLoaded { .. }))
            .next()
            .is_some());
        let eject = trace
            .filter(|e| matches!(e, TraceEvent::PolicyEjected { .. }))
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
    use crate::behavior::Script;
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
        m.start();
        let mut barrier = Cycles::ZERO;
        let mut drained = Vec::new();
        loop {
            barrier += EPOCH;
            let status = m.step_until(barrier).expect("no watchdog");
            let (msgs, closed) = m.drain_external(pipe, barrier);
            drained.extend(msgs);
            assert!(!closed);
            if status == StepStatus::Done {
                break;
            }
        }
        let tags: Vec<u64> = drained.iter().map(|ms| ms.tag).collect();
        assert_eq!(tags, vec![1, 2, 3, 4]);
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
