//! The shared host semantics and the [`PolicyScheduler`] bridge.
//!
//! A verified [`Program`] runs behind the ordinary
//! [`Scheduler`] trait: the host performs the parts of `schedule()` the
//! kernel performs outside the selection loop (blocking `prev` leaves
//! the queue, `SCHED_RR` quantum refresh, `SCHED_YIELD` consumption,
//! the `has_cpu` hand-over), and the `.pol` hooks decide *ordering and
//! selection* only.
//!
//! Safety at run time rests on three mechanisms:
//!
//! * **Cycle charging** — every executed IR node charges one
//!   `CostKind::PolicyInsn` into the decision's cycle meter, so
//!   interpreted policies pay a realistic overhead in every figure.
//! * **The instruction budget** — even a verified hook is bounded by a
//!   per-decision budget ([`DEFAULT_BUDGET`] unless overridden). A
//!   blowout aborts the hook, substitutes a safe default decision, and
//!   records a [`PolicyViolation::BudgetExhausted`] for the machine's
//!   watchdog.
//! * **Pick validation** — whatever `pick_next` returns is checked
//!   against the kernel's legality rules (runnable, on the queue, not
//!   running elsewhere); an illegal pick becomes
//!   [`PolicyViolation::BadPick`] plus a safe fallback.
//!
//! The host also judges starvation (idle picked while a runnable task no
//! CPU holds waits in the list bank). The machine reads the violation or
//! that judgement through [`Supervised::take_verdict`] after every
//! decision and ejects the policy (see the machine crate's watchdog).

use elsc_ktask::{CpuId, MmId, TaskTable, Tid};
use elsc_obs::ObsEvent;
use elsc_sched_api::{
    frame, goodness_ignoring_yield_on, Load, RunQueues, SchedCtx, Scheduler, Supervised, Verdict,
    IDLE_GOODNESS,
};
use elsc_simcore::CostKind;

use crate::ast::{BinOp, HookKind, HostFn, Program};
use crate::bytecode::CompiledPolicy;
use crate::vm::{self, VmState};
use crate::PolicyError;

/// Default per-decision instruction budget: generous for real policies
/// (the bundled `reg.pol` uses a few dozen instructions per decision
/// plus a handful per scanned task) while still bounding a runaway
/// `foreach`-over-everything hook to something finite.
pub const DEFAULT_BUDGET: u64 = 65_536;

/// A safety violation a loaded policy committed. The policy runtime has
/// already substituted a safe decision; the machine's watchdog ejects
/// the policy on its [`label`](PolicyViolation::label).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyViolation {
    /// A hook exceeded the per-decision instruction budget and was
    /// aborted; the policy runtime substituted a safe default.
    BudgetExhausted {
        /// Instructions executed when the budget tripped.
        insns: u64,
        /// The budget that was in force.
        budget: u64,
    },
    /// `pick_next` chose a task that is not legally runnable on this CPU
    /// (not on the run queue, blocked, or running elsewhere).
    BadPick,
    /// The policy corrupted its own bookkeeping (host-side list state
    /// desynchronized); the policy runtime recovered but the program is
    /// untrustworthy.
    StateCorrupt,
}

impl PolicyViolation {
    /// Static label used in obs events and reports.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyViolation::BudgetExhausted { .. } => "budget_exhausted",
            PolicyViolation::BadPick => "bad_pick",
            PolicyViolation::StateCorrupt => "state_corrupt",
        }
    }
}

/// One runtime value: the IR is two-typed. The VM's registers hold
/// `Val`s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Val {
    /// A 64-bit integer.
    Int(i64),
    /// A task handle; `None` is `nil`.
    Task(Option<Tid>),
}

/// The per-invocation context a hook runs against.
pub(crate) struct Env {
    pub(crate) cpu: CpuId,
    pub(crate) prev: Option<Tid>,
    pub(crate) idle: Option<Tid>,
    pub(crate) task: Option<Tid>,
    pub(crate) prev_mm: MmId,
    pub(crate) prev_yielded: bool,
    pub(crate) nr_running: usize,
    pub(crate) nr_cpus: usize,
}

/// What one hook invocation produced (the default: an undefined hook's
/// no-op run).
#[derive(Default)]
pub(crate) struct HookRun {
    /// IR nodes executed (also charged as `PolicyInsn` by the caller).
    pub(crate) insns: u64,
    /// `Some(t)` if a `pick` executed (`t == None` means `pick nil`).
    pub(crate) picked: Option<Option<Tid>>,
    /// Last `enqueue_front`/`enqueue_back` executed: (list, front).
    pub(crate) placed: Option<(usize, bool)>,
    /// Tasks to rotate to the back of their lists after the decision.
    /// On the VM this is `VmState`'s buffer, lent for the run and
    /// handed back with `VmState::reclaim`.
    pub(crate) requeued: Vec<Tid>,
    /// Why the hook aborted, if it did.
    pub(crate) violation: Option<PolicyViolation>,
}

/// Maps a list-index value into the bank (total semantics: modulo). An
/// index already in range — every one a well-formed policy computes —
/// skips the hardware divide.
#[inline]
pub(crate) fn wrap_list(i: i64, nr_lists: usize) -> usize {
    if (0..nr_lists as i64).contains(&i) {
        i as usize
    } else {
        i.rem_euclid(nr_lists as i64) as usize
    }
}

/// The `set_counter(task, value)` effect: clamped to
/// `[0, 2 * priority]`, `nil` ignored.
pub(crate) fn set_counter_effect(ctx: &mut SchedCtx<'_>, t: Option<Tid>, v: i64) {
    if let Some(tid) = t {
        let task = ctx.tasks.task_mut(tid);
        let cap = i64::from(task.priority).saturating_mul(2);
        task.counter = v.clamp(0, cap) as i32;
    }
}

/// The `recalc()` effect: the native recalculation step, stats and
/// events included.
pub(crate) fn recalc_effect(ctx: &mut SchedCtx<'_>, env: &Env) {
    frame::recalculate(ctx, env.cpu, env.nr_running, false);
}

/// The pure scan-filter predicates (`can_schedule` / `runnable`) on an
/// already-resolved task — the single implementation shared by
/// [`host_call`] and the VM's fused `scan.best` walk (`can_schedule`
/// only), so the two entry points cannot drift. Any other `f` is
/// treated as `runnable`.
#[inline]
pub(crate) fn scan_filter_pred(
    f: HostFn,
    smp: bool,
    t: &elsc_ktask::Task,
    tid: Tid,
    prev: Option<Tid>,
    idle: Option<Tid>,
) -> bool {
    match f {
        // The kernel's scan filter: SMP skips tasks running anywhere,
        // UP skips only `prev`.
        HostFn::CanSchedule => !(if smp { t.has_cpu } else { Some(tid) == prev }),
        _ => Some(tid) != idle && t.state.is_runnable(),
    }
}

/// The observable side effects of one `goodness(t)` evaluation (cycle
/// charge + scan statistics) — shared by [`host_call`] and the VM's
/// fused `scan.best` walk.
#[inline]
pub(crate) fn charge_goodness_eval(ctx: &mut SchedCtx<'_>, cpu: CpuId) {
    ctx.meter.charge(ctx.costs, CostKind::GoodnessEval);
    ctx.stats.cpu_mut(cpu).tasks_examined += 1;
}

/// Evaluates one host function — the single implementation the VM and
/// the test-only reference interpreter dispatch to, so their observable
/// semantics (meter charges, stats, yield-bit consumption) cannot
/// diverge. Total semantics
/// throughout: `nil` task arguments yield neutral values rather than
/// faulting.
pub(crate) fn host_call(
    ctx: &mut SchedCtx<'_>,
    rq: &RunQueues,
    env: &mut Env,
    f: HostFn,
    arg: Option<Val>,
) -> Val {
    let task_arg = || match arg {
        Some(Val::Task(t)) => t,
        _ => None,
    };
    let int_arg = || match arg {
        Some(Val::Int(n)) => n,
        _ => 0,
    };
    match f {
        HostFn::Goodness => match task_arg() {
            None => Val::Int(i64::from(IDLE_GOODNESS)),
            Some(tid) => {
                // Charged exactly like a native scan step.
                charge_goodness_eval(ctx, env.cpu);
                let (topo, t) = (&ctx.cfg.topology, ctx.tasks.task(tid));
                let g = goodness_ignoring_yield_on(topo, t, env.cpu, env.prev_mm);
                Val::Int(i64::from(g))
            }
        },
        HostFn::PrevGoodness => match env.prev {
            Some(p) if Some(p) != env.idle && ctx.tasks.task(p).state.is_runnable() => {
                charge_goodness_eval(ctx, env.cpu);
                if env.prev_yielded {
                    // Consume the SCHED_YIELD bit: the yielder counts
                    // as goodness 0 exactly once.
                    env.prev_yielded = false;
                    Val::Int(0)
                } else {
                    let (topo, t) = (&ctx.cfg.topology, ctx.tasks.task(p));
                    let g = goodness_ignoring_yield_on(topo, t, env.cpu, env.prev_mm);
                    Val::Int(i64::from(g))
                }
            }
            _ => Val::Int(i64::from(IDLE_GOODNESS)),
        },
        HostFn::StaticGoodness => match task_arg() {
            None => Val::Int(0),
            Some(tid) => Val::Int(i64::from(ctx.tasks.task(tid).static_goodness())),
        },
        HostFn::Counter => match task_arg() {
            None => Val::Int(0),
            Some(tid) => Val::Int(i64::from(ctx.tasks.task(tid).counter)),
        },
        HostFn::Priority => match task_arg() {
            None => Val::Int(0),
            Some(tid) => Val::Int(i64::from(ctx.tasks.task(tid).priority)),
        },
        HostFn::RtPriority => match task_arg() {
            None => Val::Int(0),
            Some(tid) => Val::Int(i64::from(ctx.tasks.task(tid).rt_priority)),
        },
        HostFn::IsRt => match task_arg() {
            None => Val::Int(0),
            Some(tid) => Val::Int(i64::from(ctx.tasks.task(tid).policy.class.is_realtime())),
        },
        HostFn::Processor => match task_arg() {
            None => Val::Int(0),
            Some(tid) => Val::Int(ctx.tasks.task(tid).processor as i64),
        },
        HostFn::SameMm => match task_arg() {
            None => Val::Int(0),
            Some(tid) => Val::Int(i64::from(ctx.tasks.task(tid).mm == env.prev_mm)),
        },
        HostFn::HasCpu => match task_arg() {
            None => Val::Int(0),
            Some(tid) => Val::Int(i64::from(ctx.tasks.task(tid).has_cpu)),
        },
        HostFn::Runnable | HostFn::CanSchedule => match task_arg() {
            None => Val::Int(0),
            Some(tid) => Val::Int(i64::from(scan_filter_pred(
                f,
                ctx.cfg.smp,
                ctx.tasks.task(tid),
                tid,
                env.prev,
                env.idle,
            ))),
        },
        HostFn::ListLen => Val::Int(rq.count(wrap_list(int_arg(), rq.lists().nr_lists())) as i64),
        HostFn::ListHead => {
            let h = wrap_list(int_arg(), rq.lists().nr_lists());
            Val::Task(
                rq.lists()
                    .first(h)
                    .map(|i| ctx.tasks.by_index(i as usize).tid),
            )
        }
    }
}

/// Pure binary-operator semantics (total: division/modulo by zero is 0,
/// arithmetic wraps).
pub(crate) fn binop(op: BinOp, l: Val, r: Val) -> Result<Val, PolicyViolation> {
    let v = match op {
        BinOp::Eq => Val::Int(i64::from(l == r)),
        BinOp::Ne => Val::Int(i64::from(l != r)),
        _ => {
            let (Val::Int(a), Val::Int(b)) = (l, r) else {
                return Err(PolicyViolation::StateCorrupt);
            };
            Val::Int(match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        0
                    } else {
                        a.wrapping_div(b)
                    }
                }
                BinOp::Mod => {
                    if b == 0 {
                        0
                    } else {
                        a.wrapping_rem(b)
                    }
                }
                BinOp::Lt => i64::from(a < b),
                BinOp::Le => i64::from(a <= b),
                BinOp::Gt => i64::from(a > b),
                BinOp::Ge => i64::from(a >= b),
                BinOp::Eq | BinOp::Ne => unreachable!("handled above"),
            })
        }
    };
    Ok(v)
}

/// A verified `.pol` program running behind the [`Scheduler`] trait.
pub struct PolicyScheduler {
    prog: Program,
    /// `"policy:<name>"`, leaked once at load time.
    name: &'static str,
    /// The bytecode form every hook runs on.
    compiled: CompiledPolicy,
    /// Run hooks on the reference interpreter instead (tests only).
    #[cfg(any(test, feature = "interp-reference"))]
    reference: bool,
    /// Reusable VM register file, foreach cursors and requeue buffer,
    /// persisted across decisions so steady-state dispatch allocates
    /// nothing.
    vm_state: VmState,
    /// The declared list bank.
    rq: RunQueues,
    /// `generation + 1` of the last slab occupant whose `on_fork` ran;
    /// 0 = never. Detects the first enqueue of each task lifetime.
    forked: Vec<u32>,
    nr_cpus: usize,
    budget: u64,
    insns_total: u64,
    violation: Option<PolicyViolation>,
    /// The last decision picked idle over queued, unclaimed work.
    starving: bool,
}

impl PolicyScheduler {
    /// Compiles and wraps an already-verified program.
    ///
    /// `nr_cpus` resolves a `lists percpu` declaration; the runtime
    /// budget starts at [`DEFAULT_BUDGET`].
    ///
    /// # Errors
    ///
    /// The compiler's diagnostic, if `prog` does not lower to bytecode
    /// (only possible for a program that skipped [`crate::verify()`]).
    pub fn new(prog: Program, nr_cpus: usize) -> Result<PolicyScheduler, PolicyError> {
        let compiled = crate::compile(&prog)?;
        let name: &'static str = Box::leak(format!("policy:{}", prog.name).into_boxed_str());
        let rq = RunQueues::new(prog.lists.count(nr_cpus).max(1));
        Ok(PolicyScheduler {
            prog,
            name,
            compiled,
            #[cfg(any(test, feature = "interp-reference"))]
            reference: false,
            vm_state: VmState::default(),
            rq,
            forked: Vec::new(),
            nr_cpus,
            budget: DEFAULT_BUDGET,
            insns_total: 0,
            violation: None,
            starving: false,
        })
    }

    /// Parses, verifies, compiles, and wraps a `.pol` source string.
    ///
    /// # Errors
    ///
    /// The first load-time diagnostic, never a panic.
    pub fn load_str(src: &str, nr_cpus: usize) -> Result<PolicyScheduler, PolicyError> {
        PolicyScheduler::new(crate::load_str(src)?, nr_cpus)
    }

    /// Overrides the runtime per-decision instruction budget.
    pub fn with_budget(mut self, budget: u64) -> PolicyScheduler {
        self.budget = budget.max(1);
        self
    }

    /// Runs every hook on the tree-walking reference interpreter
    /// instead of the VM. Exists so the differential suites can compare
    /// the two; not part of any shipped build.
    #[cfg(any(test, feature = "interp-reference"))]
    pub fn into_reference(mut self) -> PolicyScheduler {
        self.reference = true;
        self
    }

    /// The compiled bytecode (tests and tooling).
    pub fn compiled(&self) -> &CompiledPolicy {
        &self.compiled
    }

    /// Runs `hook` (no-op if the program does not define it) and
    /// charges what it executed. Only `pick_next` may `requeue_back`
    /// (the verifier's rule), so any other hook hands the VM's lent
    /// requeue buffer straight back; `schedule()` returns its own after
    /// applying the rotations.
    fn run_hook(&mut self, hook: HookKind, ctx: &mut SchedCtx<'_>, env: Env) -> HookRun {
        let mut run = self.execute(hook, ctx, env);
        ctx.meter
            .charge_n(ctx.costs, CostKind::PolicyInsn, run.insns);
        self.insns_total += run.insns;
        if hook != HookKind::PickNext {
            self.vm_state.reclaim(std::mem::take(&mut run.requeued));
        }
        run
    }

    fn execute(&mut self, hook: HookKind, ctx: &mut SchedCtx<'_>, env: Env) -> HookRun {
        #[cfg(any(test, feature = "interp-reference"))]
        if self.reference {
            return match self.prog.hook(hook) {
                Some(block) => crate::interp::run_block(block, &self.rq, ctx, env, self.budget),
                None => HookRun::default(),
            };
        }
        // The compiler emits a chunk exactly for each defined hook.
        match self.compiled.chunk(hook) {
            Some(chunk) => {
                vm::run_chunk(chunk, &self.rq, ctx, env, self.budget, &mut self.vm_state)
            }
            None => HookRun::default(),
        }
    }

    fn env(&self, cpu: CpuId) -> Env {
        Env {
            cpu,
            prev: None,
            idle: None,
            task: None,
            prev_mm: MmId::KERNEL,
            prev_yielded: false,
            nr_running: self.rq.nr_running(),
            nr_cpus: self.nr_cpus,
        }
    }

    /// Records a violation (first one wins) and announces budget
    /// blowouts on the bus.
    fn note_violation(&mut self, ctx: &mut SchedCtx<'_>, cpu: CpuId, v: PolicyViolation) {
        if let PolicyViolation::BudgetExhausted { insns, budget } = v {
            ctx.emit(ObsEvent::PolicyBudget { cpu, insns, budget });
        }
        if self.violation.is_none() {
            self.violation = Some(v);
        }
    }

    /// Is `cand` a task `schedule()` may legally hand the CPU?
    fn pick_is_legal(ctx: &SchedCtx<'_>, cand: Tid, prev: Tid, idle: Tid) -> bool {
        if cand == idle {
            return true;
        }
        let Some(t) = ctx.tasks.get(cand) else {
            return false;
        };
        if !t.state.is_runnable() {
            return false;
        }
        if cand == prev {
            // A runnable prev keeps the CPU; its has_cpu is still set.
            return true;
        }
        t.on_runqueue() && !t.has_cpu
    }
}

impl core::fmt::Debug for PolicyScheduler {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PolicyScheduler")
            .field("name", &self.name)
            .field("nr_running", &self.rq.nr_running())
            .field("budget", &self.budget)
            .field("insns_total", &self.insns_total)
            .finish_non_exhaustive()
    }
}

impl Scheduler for PolicyScheduler {
    fn name(&self) -> &'static str {
        self.name
    }

    fn add_to_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge(ctx.costs, CostKind::ListOp);
        // `on_fork`: runs once per task lifetime, before its first
        // enqueue. Generation-stamped so a recycled slab slot counts as
        // a new task.
        let idx = tid.index();
        if self.forked.len() <= idx {
            self.forked.resize(idx + 1, 0);
        }
        let stamp = tid.generation().wrapping_add(1);
        if self.forked[idx] != stamp {
            self.forked[idx] = stamp;
            if self.prog.hook(HookKind::OnFork).is_some() {
                let mut env = self.env(0);
                env.task = Some(tid);
                let run = self.run_hook(HookKind::OnFork, ctx, env);
                if let Some(v) = run.violation {
                    self.note_violation(ctx, 0, v);
                }
            }
        }
        // `enqueue` decides the placement; the host performs the
        // insert. Default (no hook, hook without a placement, or an
        // aborted hook): front of list 0, like the baseline.
        let (list, front) = if self.prog.hook(HookKind::Enqueue).is_some() {
            let mut env = self.env(0);
            env.task = Some(tid);
            let run = self.run_hook(HookKind::Enqueue, ctx, env);
            match run.violation {
                Some(v) => {
                    self.note_violation(ctx, 0, v);
                    (0, true)
                }
                None => run.placed.unwrap_or((0, true)),
            }
        } else {
            (0, true)
        };
        self.rq.insert(ctx, list, front, tid);
    }

    fn del_from_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        self.rq.remove(ctx, tid);
    }

    fn move_first_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        self.rq.requeue(ctx, tid, true);
    }

    fn move_last_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        self.rq.requeue(ctx, tid, false);
    }

    fn schedule(&mut self, ctx: &mut SchedCtx<'_>, cpu: CpuId, prev: Tid, idle: Tid) -> Tid {
        // The host-managed frame of `schedule()` is the baseline's;
        // policies only replace the selection loop.
        let entered = frame::enter(self, ctx, cpu, prev, idle);

        // --- The policy's selection loop.
        let mut env = self.env(cpu);
        env.prev = Some(prev);
        env.idle = Some(idle);
        env.prev_mm = entered.prev_mm;
        env.prev_yielded = entered.prev_yielded;
        let run = self.run_hook(HookKind::PickNext, ctx, env);

        let next = match run.violation {
            Some(v) => {
                self.note_violation(ctx, cpu, v);
                None
            }
            None => {
                // `pick nil` (and the verifier-impossible "no pick")
                // mean idle.
                let cand = run.picked.flatten().unwrap_or(idle);
                if Self::pick_is_legal(ctx, cand, prev, idle) {
                    Some(cand)
                } else {
                    self.note_violation(ctx, cpu, PolicyViolation::BadPick);
                    None
                }
            }
        };
        // Safe fallback after a violation: keep a runnable prev,
        // otherwise idle. Both are always legal.
        let next = next.unwrap_or_else(|| {
            if prev != idle && ctx.tasks.task(prev).state.is_runnable() {
                prev
            } else {
                idle
            }
        });

        // Deferred rotation requests (requeue_back): applied only to
        // tasks still linked, charged like a native move_last.
        for &tid in &run.requeued {
            if ctx.tasks.get(tid).is_some_and(|t| t.in_list()) {
                self.move_last_runqueue(ctx, tid);
            }
        }
        self.vm_state.reclaim(run.requeued);

        let next = frame::commit(ctx, cpu, prev, next, idle);
        // The watchdog's starvation judgement: idle picked while a
        // runnable task no CPU holds waits in the bank (the SMP scan
        // filter skips exactly the tasks some CPU holds).
        self.starving = next == idle
            && (0..self.rq.lists().nr_lists()).any(|h| {
                frame::schedulable(self.rq.lists(), h, ctx.tasks, true, prev)
                    .any(|t| t.state.is_runnable())
            });
        next
    }

    fn nr_running(&self) -> usize {
        self.rq.nr_running()
    }

    fn debug_check(&self, tasks: &TaskTable) {
        self.rq.debug_check(tasks);
    }

    fn supervised(&mut self) -> Option<&mut dyn Supervised> {
        Some(self)
    }
}

impl Supervised for PolicyScheduler {
    fn load(&self) -> Load {
        Load::Policy {
            name: self.name,
            static_insns: self.prog.total_static_insns(),
            budget: self.budget,
        }
    }

    /// A contract violation (budget blowout, illegal pick, corrupted
    /// state) breaks the policy at once; starving the queue is bad.
    fn take_verdict(&mut self) -> Verdict {
        match self.violation.take() {
            Some(v) => Verdict::Broken(v.label()),
            None if self.starving => Verdict::Bad("starvation"),
            None => Verdict::Sound,
        }
    }

    fn counters(&self) -> [u64; 2] {
        [self.insns_total, 0]
    }

    fn on_tick(&mut self, ctx: &mut SchedCtx<'_>, cpu: CpuId, current: Tid) {
        if self.prog.hook(HookKind::Tick).is_none() {
            return;
        }
        let mut env = self.env(cpu);
        env.task = Some(current);
        let run = self.run_hook(HookKind::Tick, ctx, env);
        if let Some(v) = run.violation {
            self.note_violation(ctx, cpu, v);
        }
    }

    fn drain(&mut self, ctx: &mut SchedCtx<'_>) -> Vec<Tid> {
        self.rq.drain(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsc_ktask::{TaskSpec, TaskState};
    use elsc_sched_api::SchedConfig;
    use elsc_sched_linux::LinuxScheduler;
    use elsc_simcore::{CostModel, CycleMeter};
    use elsc_stats::SchedStats;

    const REG_POL: &str = include_str!("../../../policies/reg.pol");
    const RR_POL: &str = include_str!("../../../policies/rr.pol");
    const TABLE_POL: &str = include_str!("../../../policies/table.pol");
    const STARVE_POL: &str = include_str!("../../../policies/starve.pol");

    #[test]
    fn wrap_list_is_rem_euclid_for_every_index() {
        for nr_lists in 1..=33usize {
            let extremes = [i64::MIN, i64::MIN + 1, i64::MAX - 1, i64::MAX];
            for i in (-70..70i64).chain(extremes) {
                let want = i.rem_euclid(nr_lists as i64) as usize;
                assert_eq!(wrap_list(i, nr_lists), want, "{i} mod {nr_lists}");
            }
        }
    }

    /// Test harness bundling the context pieces around any scheduler.
    struct Rig<S: Scheduler> {
        tasks: TaskTable,
        stats: SchedStats,
        meter: CycleMeter,
        costs: CostModel,
        cfg: SchedConfig,
        sched: S,
        idle: Tid,
    }

    impl<S: Scheduler> Rig<S> {
        fn new(cfg: SchedConfig, sched: S) -> Rig<S> {
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
                sched,
                idle,
            }
        }

        fn with<R>(&mut self, f: impl FnOnce(&mut S, &mut SchedCtx<'_>) -> R) -> R {
            let mut ctx = SchedCtx {
                tasks: &mut self.tasks,
                stats: &mut self.stats,
                meter: &mut self.meter,
                costs: &self.costs,
                cfg: &self.cfg,
                probe: None,
                locks: None,
            };
            f(&mut self.sched, &mut ctx)
        }

        fn spawn(&mut self, name: &'static str) -> Tid {
            let tid = self.tasks.spawn(&TaskSpec::named(name));
            self.add(tid);
            tid
        }

        fn add(&mut self, tid: Tid) {
            self.with(|s, ctx| s.add_to_runqueue(ctx, tid));
        }

        fn schedule(&mut self, cpu: CpuId, prev: Tid) -> Tid {
            let idle = self.idle;
            let next = self.with(|s, ctx| s.schedule(ctx, cpu, prev, idle));
            self.sched.debug_check(&self.tasks);
            next
        }
    }

    fn policy(src: &str, nr_cpus: usize) -> PolicyScheduler {
        PolicyScheduler::load_str(src, nr_cpus).expect("bundled policy must verify")
    }

    /// Drives a deterministic mixed scenario (counter decay, blocking,
    /// waking, a yield) and records every decision plus final stats.
    fn drive<S: Scheduler>(mut rig: Rig<S>) -> (Vec<usize>, u64, u64, u64, u64) {
        let a = rig.spawn("a");
        let b = rig.spawn("b");
        let c = rig.spawn("c");
        let tids = [a, b, c];
        let mut picks = Vec::new();
        let mut current = rig.idle;
        for step in 0..120 {
            // Pseudo-random but identical perturbations for both rigs.
            let r = (step as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407)
                >> 33;
            match r % 11 {
                0 => {
                    // Block the current task (if it is a worker).
                    if tids.contains(&current) {
                        rig.tasks.task_mut(current).state = TaskState::Interruptible;
                    }
                }
                1 => {
                    // Wake any blocked worker.
                    for &t in &tids {
                        if rig.tasks.task(t).state == TaskState::Interruptible {
                            rig.tasks.task_mut(t).state = TaskState::Running;
                            rig.add(t);
                            break;
                        }
                    }
                }
                2 => {
                    if tids.contains(&current) {
                        rig.tasks.task_mut(current).policy.yielded = true;
                    }
                }
                _ => {
                    // A tick: the running task burns quantum.
                    if tids.contains(&current) && rig.tasks.task(current).counter > 0 {
                        rig.tasks.task_mut(current).counter -= 1;
                    }
                }
            }
            current = rig.schedule(0, current);
            picks.push(current.index());
        }
        let s = rig.stats.cpu(0);
        (
            picks,
            s.tasks_examined,
            s.recalc_entries,
            s.recalc_tasks,
            s.idle_scheduled,
        )
    }

    #[test]
    fn reg_pol_matches_native_reg_decision_for_decision() {
        let native = drive(Rig::new(SchedConfig::up(), LinuxScheduler::new()));
        let vm = drive(Rig::new(SchedConfig::up(), policy(REG_POL, 1)));
        assert_eq!(native, vm);
    }

    #[test]
    fn reg_pol_matches_native_reg_on_smp_config() {
        let native = drive(Rig::new(SchedConfig::smp(2), LinuxScheduler::new()));
        let vm = drive(Rig::new(SchedConfig::smp(2), policy(REG_POL, 2)));
        assert_eq!(native, vm);
    }

    /// `goodness()` grades affinity by the declared tree, as reg's does:
    /// on `2N2C1T`, CPU 0 prefers a task last run on CPU 1 (same node,
    /// +6) at static goodness 20 over one last run on CPU 2 (other node)
    /// at 22. The flat +15-on-the-same-CPU rule picked the second.
    #[test]
    fn reg_pol_grades_affinity_by_the_declared_topology() {
        fn decide<S: Scheduler>(sched: S) -> &'static str {
            let cfg = SchedConfig::topo("2N2C1T".parse().unwrap());
            let mut rig = Rig::new(cfg, sched);
            for (name, goodness, cpu) in [("near", 20, 1), ("far", 22, 2)] {
                let tid = rig
                    .tasks
                    .spawn(&TaskSpec::named(name).priority(goodness / 2));
                let t = rig.tasks.task_mut(tid);
                (t.counter, t.processor) = (goodness / 2, cpu);
                rig.add(tid);
            }
            let idle = rig.idle;
            let next = rig.schedule(0, idle);
            rig.tasks.task(next).name
        }
        assert_eq!(decide(LinuxScheduler::new()), "near");
        assert_eq!(decide(policy(REG_POL, 4)), "near");
        assert_eq!(decide(policy(REG_POL, 4).into_reference()), "near");
    }

    /// A program `compile()` rejects is a positioned load error — not a
    /// panic, and not a scheduler that quietly interprets instead. The
    /// verifier rules such programs out, so this one skips it.
    #[test]
    fn uncompilable_program_is_a_positioned_error_not_an_interpreted_run() {
        let src = "policy ghost\nlists 1\nhook pick_next {\n  pick phantom\n}\n";
        let unverified = crate::parse(src).expect("parses");
        let err = PolicyScheduler::new(unverified, 1).expect_err("must not load");
        assert_eq!((err.span.line, err.span.col), (4, 8), "{err}");
        assert!(err.msg.contains("unbound variable `phantom`"), "{err}");
    }

    #[test]
    fn vm_and_interp_agree_on_every_bundled_policy() {
        for (src, nr_cpus, cfg) in [
            (REG_POL, 1, SchedConfig::up()),
            (REG_POL, 2, SchedConfig::smp(2)),
            (RR_POL, 1, SchedConfig::up()),
            (RR_POL, 2, SchedConfig::smp(2)),
            (TABLE_POL, 1, SchedConfig::up()),
            (TABLE_POL, 2, SchedConfig::smp(2)),
            (STARVE_POL, 1, SchedConfig::up()),
        ] {
            let vm = drive(Rig::new(cfg.clone(), policy(src, nr_cpus)));
            let interp = drive(Rig::new(cfg, policy(src, nr_cpus).into_reference()));
            assert_eq!(vm, interp, "the VM diverged from the reference");
        }
    }

    #[test]
    fn vm_and_interp_charge_identical_policy_insns() {
        let mut vm = Rig::new(SchedConfig::up(), policy(REG_POL, 1));
        let mut interp = Rig::new(SchedConfig::up(), policy(REG_POL, 1).into_reference());
        for rig in [&mut vm, &mut interp] {
            rig.spawn("a");
            rig.spawn("b");
            rig.meter.take();
        }
        let mut cv = vm.idle;
        let mut ci = interp.idle;
        for _ in 0..40 {
            cv = vm.schedule(0, cv);
            ci = interp.schedule(0, ci);
        }
        assert_eq!(cv, ci);
        assert_eq!(
            vm.sched.counters()[0],
            interp.sched.counters()[0],
            "PolicyInsn totals must match exactly"
        );
        assert_eq!(
            vm.meter.take(),
            interp.meter.take(),
            "virtual cycle charges must match exactly"
        );
    }

    /// The strongest abort-point pin: for every budget from 1 up to
    /// past one full decision, the VM and the reference must report the
    /// identical outcome — same pick, same violation (including the
    /// exact `insns` value), same examined-task count, same cycles.
    #[test]
    fn vm_and_interp_agree_at_every_budget_cutoff() {
        for src in [REG_POL, RR_POL, TABLE_POL] {
            for budget in 1..=160u64 {
                let mk = |sched: PolicyScheduler| {
                    let mut rig = Rig::new(SchedConfig::up(), sched.with_budget(budget));
                    rig.spawn("a");
                    rig.spawn("b");
                    rig.meter.take();
                    let next = rig.schedule(0, rig.idle);
                    (
                        next.index(),
                        rig.sched.violation.take(),
                        rig.sched.counters()[0],
                        rig.stats.cpu(0).tasks_examined,
                        rig.meter.take(),
                    )
                };
                assert_eq!(
                    mk(policy(src, 1)),
                    mk(policy(src, 1).into_reference()),
                    "divergence at budget {budget}"
                );
            }
        }
    }

    /// The module-doc claim of `vm.rs` — steady-state dispatch performs
    /// no heap allocation — on the requeue buffer, the one the VM used to
    /// allocate per decision: 10 000 `table.pol` decisions, which requeue
    /// every band pick, with blocks, wake-ups (the `enqueue` hook) and
    /// counter decay interleaved, leave it at one address and capacity.
    #[test]
    fn table_pol_decisions_reuse_one_requeue_buffer() {
        let mut rig = Rig::new(SchedConfig::up(), policy(TABLE_POL, 1));
        let tids = [rig.spawn("a"), rig.spawn("b"), rig.spawn("c")];
        // A capacity no fresh push would choose, so a buffer dropped and
        // re-grown shows even where the allocator hands back the same
        // address.
        let buf = rig.sched.vm_state.requeue_buffer();
        buf.reserve_exact(1000);
        let buf = (buf.as_ptr(), buf.capacity());
        let mut current = rig.idle;
        let mut wakeups = 0;
        for step in 0..10_000u32 {
            match step % 4 {
                0 if tids.contains(&current) => {
                    rig.tasks.task_mut(current).state = TaskState::Interruptible;
                }
                1 => {
                    if let Some(&t) = tids
                        .iter()
                        .find(|&&t| rig.tasks.task(t).state == TaskState::Interruptible)
                    {
                        rig.tasks.task_mut(t).state = TaskState::Running;
                        rig.add(t);
                        wakeups += 1;
                    }
                }
                _ if tids.contains(&current) && rig.tasks.task(current).counter > 0 => {
                    rig.tasks.task_mut(current).counter -= 1;
                }
                _ => {}
            }
            current = rig.schedule(0, current);
            let now = rig.sched.vm_state.requeue_buffer();
            assert_eq!((now.as_ptr(), now.capacity()), buf, "step {step}");
        }
        assert!(wakeups > 1_000, "enqueue hooks interleaved ({wakeups})");
        assert_eq!(rig.sched.violation.take(), None);
    }

    #[test]
    fn vm_budget_blowout_reports_exact_interp_insns() {
        let src = "policy spin\nlists 1\nhook pick_next {\n\
                   repeat 1024 { let x = 1 }\npick idle }";
        let mk = |sched: PolicyScheduler| {
            let mut rig = Rig::new(SchedConfig::up(), sched.with_budget(64));
            rig.spawn("w");
            rig.schedule(0, rig.idle);
            rig.sched.violation.take()
        };
        let vm = mk(policy(src, 1));
        assert_eq!(
            vm,
            Some(PolicyViolation::BudgetExhausted {
                insns: 65,
                budget: 64
            }),
            "the VM normalizes batched charges to the interpreter's trip point"
        );
        assert_eq!(vm, mk(policy(src, 1).into_reference()));
    }

    #[test]
    fn policy_cycles_include_interpreter_overhead() {
        let mut native = Rig::new(SchedConfig::up(), LinuxScheduler::new());
        let mut interp = Rig::new(SchedConfig::up(), policy(REG_POL, 1));
        native.spawn("t");
        interp.spawn("t");
        native.meter.take();
        interp.meter.take();
        native.schedule(0, native.idle);
        interp.schedule(0, interp.idle);
        let nc = native.meter.take();
        let ic = interp.meter.take();
        assert!(
            ic > nc,
            "interpreted decision ({ic}) must cost more than native ({nc})"
        );
        assert!(interp.sched.counters()[0] > 0);
    }

    #[test]
    fn rr_policy_rotates_fairly() {
        let mut rig = Rig::new(SchedConfig::up(), policy(RR_POL, 1));
        let a = rig.spawn("a");
        let b = rig.spawn("b");
        let c = rig.spawn("c");
        let mut current = rig.idle;
        let mut seen = [0usize; 3];
        for _ in 0..12 {
            current = rig.schedule(0, current);
            for (i, t) in [a, b, c].iter().enumerate() {
                if current == *t {
                    seen[i] += 1;
                }
            }
        }
        // requeue_back rotation: every task gets its turn.
        assert_eq!(seen, [4, 4, 4], "round-robin must serve all three");
    }

    #[test]
    fn starve_policy_picks_idle_and_reports_no_violation_per_decision() {
        let mut rig = Rig::new(SchedConfig::up(), policy(STARVE_POL, 1));
        rig.spawn("w");
        let next = rig.schedule(0, rig.idle);
        assert_eq!(next, rig.idle, "starve.pol always picks idle");
        // Per-decision it is legal; only the machine watchdog catches it.
        assert_eq!(rig.sched.violation.take(), None);
    }

    /// The host's own starvation judgement: idle picked while a runnable
    /// task no CPU holds waits in the bank is bad; idle over a queue whose
    /// only task runs elsewhere is sound; a latched violation outranks
    /// both.
    #[test]
    fn verdict_judges_starvation_from_the_list_bank() {
        let mut rig = Rig::new(SchedConfig::up(), policy(STARVE_POL, 1));
        rig.spawn("w");
        rig.schedule(0, rig.idle);
        assert_eq!(rig.sched.take_verdict(), Verdict::Bad("starvation"));

        let mut rig = Rig::new(SchedConfig::smp(2), policy(STARVE_POL, 2));
        let w = rig.spawn("w");
        rig.tasks.task_mut(w).has_cpu = true; // running on the other CPU
        rig.schedule(0, rig.idle);
        assert_eq!(rig.sched.take_verdict(), Verdict::Sound);

        let src = "policy badprev\nlists 1\nhook pick_next { pick prev }";
        let mut rig = Rig::new(SchedConfig::up(), policy(src, 1));
        let a = rig.spawn("a");
        rig.spawn("b");
        rig.tasks.task_mut(a).has_cpu = true;
        rig.tasks.task_mut(a).state = TaskState::Interruptible;
        assert_eq!(rig.schedule(0, a), rig.idle);
        assert_eq!(rig.sched.take_verdict(), Verdict::Broken("bad_pick"));
    }

    #[test]
    fn budget_blowout_aborts_hook_and_records_violation() {
        let src = "policy spin\nlists 1\nhook pick_next {\n\
                   repeat 1024 { let x = 1 }\npick idle }";
        let sched = PolicyScheduler::load_str(src, 1)
            .expect("verifies: static cost is under the cap")
            .with_budget(64);
        let mut rig = Rig::new(SchedConfig::up(), sched);
        let w = rig.spawn("w");
        let next = rig.schedule(0, rig.idle);
        // Fallback: prev (= idle here) not runnable as a worker → idle.
        assert_eq!(next, rig.idle);
        let v = rig.sched.violation.take();
        assert!(
            matches!(v, Some(PolicyViolation::BudgetExhausted { budget: 64, .. })),
            "expected budget violation, got {v:?}"
        );
        assert_eq!(rig.sched.violation.take(), None, "take clears it");
        let _ = w;
    }

    #[test]
    fn bad_pick_is_caught_and_replaced_with_fallback() {
        // Picks prev unconditionally — illegal when prev just blocked.
        let src = "policy badprev\nlists 1\nhook pick_next { pick prev }";
        let mut rig = Rig::new(SchedConfig::up(), policy(src, 1));
        let a = rig.spawn("a");
        let b = rig.spawn("b");
        rig.tasks.task_mut(a).has_cpu = true;
        rig.tasks.task_mut(a).state = TaskState::Interruptible;
        let next = rig.schedule(0, a);
        assert_eq!(next, rig.idle, "fallback for a blocked prev is idle");
        assert_eq!(rig.sched.violation.take(), Some(PolicyViolation::BadPick));
        let _ = b;
    }

    #[test]
    fn enqueue_hook_controls_placement() {
        let src = "policy backer\nlists 1\n\
                   hook enqueue { enqueue_back(0) }\n\
                   hook pick_next { pick idle }";
        let mut rig = Rig::new(SchedConfig::up(), policy(src, 1));
        let a = rig.spawn("a");
        let b = rig.spawn("b");
        assert_eq!(
            rig.sched.rq.lists().collect(&rig.tasks, 0),
            vec![a.index() as u32, b.index() as u32],
            "enqueue_back keeps FIFO order"
        );
    }

    #[test]
    fn default_placement_without_enqueue_hook_is_front() {
        let src = "policy minimal\nlists 1\nhook pick_next { pick idle }";
        let mut rig = Rig::new(SchedConfig::up(), policy(src, 1));
        let a = rig.spawn("a");
        let b = rig.spawn("b");
        assert_eq!(
            rig.sched.rq.lists().collect(&rig.tasks, 0),
            vec![b.index() as u32, a.index() as u32],
            "default placement matches the baseline (front)"
        );
    }

    #[test]
    fn on_fork_runs_once_per_task_lifetime() {
        let src = "policy fork\nlists 1\n\
                   hook on_fork { set_counter(task, 3) }\n\
                   hook enqueue { enqueue_front(0) }\n\
                   hook pick_next { pick idle }";
        let mut rig = Rig::new(SchedConfig::up(), policy(src, 1));
        let a = rig.spawn("a");
        assert_eq!(rig.tasks.task(a).counter, 3, "on_fork set the counter");
        // Re-enqueue after a block: on_fork must NOT run again.
        rig.tasks.task_mut(a).counter = 9;
        rig.with(|s, ctx| s.del_from_runqueue(ctx, a));
        rig.add(a);
        assert_eq!(rig.tasks.task(a).counter, 9, "on_fork ran only once");
    }

    #[test]
    fn set_counter_clamps_to_twice_priority() {
        let src = "policy clamp\nlists 1\n\
                   hook on_fork { set_counter(task, 100000) }\n\
                   hook pick_next { pick idle }";
        let mut rig = Rig::new(SchedConfig::up(), policy(src, 1));
        let a = rig.spawn("a");
        let t = rig.tasks.task(a);
        assert_eq!(t.counter, 2 * t.priority);
    }

    #[test]
    fn tick_hook_runs_via_on_tick() {
        let src = "policy ticky\nlists 1\n\
                   hook tick { set_counter(task, counter(task) + 2) }\n\
                   hook pick_next { pick idle }";
        let mut rig = Rig::new(SchedConfig::up(), policy(src, 1));
        let a = rig.spawn("a");
        let before = rig.tasks.task(a).counter;
        rig.with(|s, ctx| s.on_tick(ctx, 0, a));
        assert_eq!(rig.tasks.task(a).counter, before + 2);
        assert!(rig.sched.counters()[0] > 0);
    }

    #[test]
    fn drain_empties_every_list_in_order() {
        let mut rig = Rig::new(SchedConfig::up(), policy(RR_POL, 2));
        let a = rig.tasks.spawn(&TaskSpec::named("a"));
        let b = rig.tasks.spawn(&TaskSpec::named("b"));
        rig.tasks.task_mut(b).processor = 1;
        rig.add(a);
        rig.add(b);
        assert_eq!(rig.sched.nr_running(), 2);
        let drained = rig.with(|s, ctx| s.drain(ctx));
        assert_eq!(drained, vec![a, b], "list 0 first, then list 1");
        assert_eq!(rig.sched.nr_running(), 0);
        assert!(!rig.tasks.task(a).on_runqueue());
        assert!(!rig.tasks.task(b).on_runqueue());
    }

    #[test]
    fn loaded_info_reports_name_and_budget() {
        let mut sched = policy(REG_POL, 1).with_budget(1234);
        let Some(Load::Policy {
            name,
            static_insns,
            budget,
        }) = sched.supervised().map(|s| s.load())
        else {
            panic!("a policy reports a policy load");
        };
        assert_eq!(name, "policy:reg");
        assert_eq!(budget, 1234);
        assert!(static_insns > 0);
    }

    #[test]
    fn percpu_lists_resolve_to_cpu_count() {
        let sched = policy(RR_POL, 4);
        assert_eq!(sched.rq.lists().nr_lists(), 4);
        let up = policy(RR_POL, 1);
        assert_eq!(up.rq.lists().nr_lists(), 1);
    }
}
