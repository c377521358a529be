//! The bytecode VM: what `.pol` hooks execute on.
//!
//! `run_chunk` executes one compiled hook body ([`Chunk`]) with the
//! exact observable semantics of the reference tree-walking interpreter
//! (`interp.rs`, built for tests only):
//!
//! * **Same decisions** — picks, placements, and requeues are computed
//!   by the identical shared host semantics (`host_call`, `binop`, the
//!   `recalc`/`set_counter` effects in [`sched`](crate::sched)), so the
//!   two cannot drift.
//! * **Same charges** — each instruction's batched
//!   [`cost`](crate::bytecode::Insn::cost) is added to the instruction
//!   count *before* the op runs; a blowout reports `insns == budget+1`
//!   exactly like the interpreter's one-at-a-time `charge()`, and the
//!   aborted hook has performed precisely the side effects the
//!   interpreter would have performed (only pure register traffic can
//!   sit between the interpreter's true trip point and the VM's
//!   op-boundary trip).
//! * **Same watchdog surface** — violations are returned through the
//!   same `HookRun` the machine's ejection logic consumes.
//!
//! The register file, the foreach cursors and the `requeue_back` buffer
//! live in a `VmState` owned by the scheduler and reused across
//! decisions and hook kinds, so steady-state dispatch performs no heap
//! allocation. A `foreach` walks the live list through a cursor rather
//! than a copy: a hook holds `&Lists` and no host function writes a
//! task's list linkage (placement and rotation are deferred to the
//! host), so the live walk visits exactly the tasks, in exactly the
//! order, of the interpreter's entry-time snapshot.
//!
//! A band walk's `for.begin` (marked `seek` by the compiler, see
//! [`Op::ForBegin`]) that finds its list empty runs the walk's latch —
//! the `bin.k` step and the `repeat.next` — in locals rather than
//! dispatching them: one head test per empty list, with the three ops'
//! charges and budget checks, and the step and counter registers
//! written once, when a list holds tasks or the counter runs out.

use elsc_ktask::Tid;
use elsc_sched_api::{goodness_ignoring_yield_on, RunQueues, SchedCtx};

use crate::ast::{BinOp, HostFn};
use crate::bytecode::{Chunk, Op, BINOPS, BUILTIN_REGS, HOSTFNS, NO_ARG};
use crate::sched::{
    binop, charge_goodness_eval, host_call, recalc_effect, scan_filter_pred, set_counter_effect,
    wrap_list, Env, HookRun, PolicyViolation, Val,
};

/// Reusable VM execution state, persisted in the scheduler across hook
/// invocations.
#[derive(Default)]
pub(crate) struct VmState {
    regs: Vec<Val>,
    /// One cursor per `foreach` nesting level: the slab index of the
    /// next task the walk yields, `None` once the list is exhausted.
    iters: Vec<Option<u32>>,
    /// The `requeue_back` buffer. A run lends it out as
    /// [`HookRun::requeued`]; the scheduler hands it back through
    /// [`reclaim`](Self::reclaim) once the rotations are applied.
    requeue: Vec<Tid>,
}

impl VmState {
    /// Takes back the buffer a run lent out, emptied, so the next run
    /// of any hook reuses its capacity.
    pub(crate) fn reclaim(&mut self, mut requeued: Vec<Tid>) {
        requeued.clear();
        self.requeue = requeued;
    }

    /// The requeue buffer itself (allocation-free tests).
    #[cfg(test)]
    pub(crate) fn requeue_buffer(&mut self) -> &mut Vec<Tid> {
        &mut self.requeue
    }
}

/// Executes one compiled hook body against the host context.
pub(crate) fn run_chunk(
    chunk: &Chunk,
    rq: &RunQueues,
    ctx: &mut SchedCtx<'_>,
    mut env: Env,
    budget: u64,
    state: &mut VmState,
) -> HookRun {
    let lists = rq.lists();
    debug_assert!(chunk.num_regs >= BUILTIN_REGS);
    if state.regs.len() < chunk.num_regs as usize {
        state.regs.resize(chunk.num_regs as usize, Val::Int(0));
    }
    if state.iters.len() < chunk.num_iters as usize {
        state.iters.resize(chunk.num_iters as usize, None);
    }
    // Builtins are invocation constants: pre-load them once so a
    // builtin reference costs one register read.
    state.regs[0] = Val::Int(env.cpu as i64);
    state.regs[1] = Val::Task(env.prev);
    state.regs[2] = Val::Task(env.idle);
    state.regs[3] = Val::Task(env.task);
    state.regs[4] = Val::Task(None);
    state.regs[5] = Val::Int(env.nr_cpus as i64);
    state.regs[6] = Val::Int(lists.nr_lists() as i64);
    state.regs[7] = Val::Int(env.nr_running as i64);

    let mut insns: u64 = 0;
    let mut picked: Option<Option<Tid>> = None;
    let mut placed: Option<(usize, bool)> = None;
    let mut requeued = std::mem::take(&mut state.requeue);
    requeued.clear();
    let mut pc: usize = 0;

    // Ends the run with `$v` as the violation (side effects performed
    // so far — placements, requeues, charges — are kept, exactly like
    // an interpreter abort).
    macro_rules! finish {
        ($v:expr) => {
            return HookRun {
                insns,
                picked,
                placed,
                requeued,
                violation: $v,
            }
        };
    }
    // A budget blowout: the interpreter charges one node at a time and
    // always trips at exactly `budget + 1`, so the batched count is
    // normalized to that same value.
    macro_rules! blown {
        () => {{
            insns = budget + 1;
            finish!(Some(PolicyViolation::BudgetExhausted {
                insns: budget + 1,
                budget,
            }));
        }};
    }
    macro_rules! int {
        ($v:expr) => {
            match $v {
                Val::Int(n) => n,
                Val::Task(_) => finish!(Some(PolicyViolation::StateCorrupt)),
            }
        };
    }
    macro_rules! task {
        ($v:expr) => {
            match $v {
                Val::Task(t) => t,
                Val::Int(_) => finish!(Some(PolicyViolation::StateCorrupt)),
            }
        };
    }

    loop {
        let i = chunk.code[pc];
        if i.cost != 0 {
            insns += u64::from(i.cost);
            if insns > budget {
                blown!();
            }
        }
        let a = i.a as usize;
        let b = i.b as usize;
        match i.op {
            Op::Const | Op::RepeatInit => {
                state.regs[a] = Val::Int(chunk.consts[b]);
            }
            Op::Mov => {
                state.regs[a] = state.regs[b];
            }
            Op::Bin => {
                let l = state.regs[b];
                let r = state.regs[i.c as usize];
                match binop(BINOPS[i.d as usize], l, r) {
                    Ok(v) => state.regs[a] = v,
                    Err(v) => finish!(Some(v)),
                }
            }
            Op::BinK => {
                let l = state.regs[b];
                let r = Val::Int(chunk.consts[i.c as usize]);
                match binop(BINOPS[i.d as usize], l, r) {
                    Ok(v) => state.regs[a] = v,
                    Err(v) => finish!(Some(v)),
                }
            }
            Op::Jmp => {
                pc = a;
                continue;
            }
            Op::Jz => {
                if int!(state.regs[a]) == 0 {
                    pc = b;
                    continue;
                }
            }
            Op::Call => {
                let arg = (i.b != NO_ARG).then(|| state.regs[b]);
                state.regs[a] = host_call(ctx, rq, &mut env, HOSTFNS[i.d as usize], arg);
            }
            Op::RepeatNext => {
                let n = int!(state.regs[a]) - 1;
                state.regs[a] = Val::Int(n);
                if n > 0 {
                    pc = b;
                    continue;
                }
            }
            Op::ForBegin => {
                let mut x = int!(state.regs[b]);
                let mut first = lists.first(wrap_list(x, lists.nr_lists()));
                if first.is_none() && i.d == 1 {
                    // A band walk's head (`seek`, see `Op::ForBegin`):
                    // the `bin.k` latch at `c` and the `repeat.next`
                    // after it run here in closed form, one head test
                    // per skipped list. Only register traffic sits
                    // between the charges, and it is written back once.
                    let (step, back) = (chunk.code[i.c as usize], chunk.code[i.c as usize + 1]);
                    let k = chunk.consts[step.c as usize];
                    let sub = BINOPS[step.d as usize] == BinOp::Sub;
                    let step_cost = u64::from(step.cost) + u64::from(back.cost);
                    let mut n = int!(state.regs[back.a as usize]);
                    loop {
                        insns += step_cost;
                        if insns > budget {
                            blown!();
                        }
                        x = if sub {
                            x.wrapping_sub(k)
                        } else {
                            x.wrapping_add(k)
                        };
                        n -= 1;
                        if n <= 0 {
                            break;
                        }
                        insns += u64::from(i.cost);
                        if insns > budget {
                            blown!();
                        }
                        first = lists.first(wrap_list(x, lists.nr_lists()));
                        if first.is_some() {
                            break;
                        }
                    }
                    state.regs[b] = Val::Int(x);
                    state.regs[back.a as usize] = Val::Int(n);
                    if first.is_none() {
                        // The counter ran out: leave the repeat.
                        pc = i.c as usize + 2;
                        continue;
                    }
                }
                state.iters[a] = first;
                if first.is_none() {
                    pc = i.c as usize;
                    continue;
                }
            }
            Op::ForNext => match state.iters[a] {
                Some(idx) => {
                    state.iters[a] = lists.next_task(ctx.tasks, idx);
                    state.regs[b] = Val::Task(Some(ctx.tasks.by_index(idx as usize).tid));
                }
                None => {
                    pc = i.c as usize;
                    continue;
                }
            },
            Op::Pick => {
                picked = Some(task!(state.regs[a]));
                finish!(None);
            }
            Op::Place => {
                // The last placement executed wins.
                placed = Some((wrap_list(int!(state.regs[a]), lists.nr_lists()), i.b == 1));
            }
            Op::Requeue => {
                if let Some(tid) = task!(state.regs[a]) {
                    requeued.push(tid);
                }
            }
            Op::SetCounter => {
                let t = task!(state.regs[a]);
                let v = int!(state.regs[b]);
                set_counter_effect(ctx, t, v);
            }
            Op::Recalc => {
                recalc_effect(ctx, &env);
            }
            Op::Halt => {
                finish!(None);
            }
            Op::ScanBest => {
                // The whole selection loop in one native walk over the
                // live list, like `for.next` (module docs). The filter,
                // goodness and best-so-far compare are evaluated straight
                // off the task slot, through the same shared helpers
                // `host_call` uses. Charges follow the interpreter's
                // per-node schedule, with the budget checked before each
                // side-effecting step (the score's meter charge and
                // examined-task count must not happen on a decision the
                // interpreter would already have aborted). The best-so-far
                // value is cached in a local after its first (lazily
                // type-checked, like the interpreter) register read; the
                // registers are updated on every new best, so a mid-scan
                // blowout leaves them exactly where the interpreter would.
                let h = wrap_list(int!(state.regs[a]), lists.nr_lists());
                let mut cur = lists.first(h);
                let cfg = ctx.cfg;
                let smp = cfg.smp;
                let topo = &cfg.topology;
                let cpu = env.cpu;
                let prev_mm = env.prev_mm;
                let mut best: Option<i64> = None;
                while let Some(idx) = cur {
                    let t = ctx.tasks.by_index(idx as usize);
                    let tid = t.tid;
                    let pass =
                        scan_filter_pred(HostFn::CanSchedule, smp, t, tid, env.prev, env.idle);
                    // Pure, so safe to compute ahead of the pre-score
                    // budget check.
                    let g = if pass {
                        i64::from(goodness_ignoring_yield_on(topo, t, cpu, prev_mm))
                    } else {
                        0
                    };
                    cur = lists.next_task(ctx.tasks, idx);
                    // Guard if-stmt + call node + arg node.
                    insns += 3;
                    if insns > budget {
                        blown!();
                    }
                    if !pass {
                        continue;
                    }
                    // let-stmt + call node + arg node, then the score's
                    // observable effects.
                    insns += 3;
                    if insns > budget {
                        blown!();
                    }
                    charge_goodness_eval(ctx, cpu);
                    // Inner if-stmt + Gt node + both operand nodes.
                    insns += 4;
                    if insns > budget {
                        blown!();
                    }
                    let best_val = match best {
                        Some(v) => v,
                        None => int!(state.regs[b]),
                    };
                    if g > best_val {
                        // Two assignments + their source nodes.
                        insns += 4;
                        if insns > budget {
                            blown!();
                        }
                        best = Some(g);
                        state.regs[b] = Val::Int(g);
                        state.regs[i.c as usize] = Val::Task(Some(tid));
                    } else {
                        best = Some(best_val);
                    }
                }
            }
        }
        pc += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{binop_index, hostfn_index, Insn};
    use crate::sched::PolicyScheduler;
    use elsc_ktask::{CpuId, MmId, TaskSpec};
    use elsc_sched_api::{Rig, SchedConfig};

    use crate::ast::{BinOp, HostFn};

    /// A minimal host for driving hand-built chunks: the shared rig
    /// around a bare two-list bank, and the VM state the chunks run on.
    struct Host {
        rig: Rig<RunQueues>,
        state: VmState,
    }

    impl Host {
        fn new() -> Host {
            Host {
                rig: Rig::new(SchedConfig::up(), RunQueues::new(2)),
                state: VmState::default(),
            }
        }

        fn spawn(&mut self, name: &'static str) -> Tid {
            self.rig.tasks.spawn(&TaskSpec::named(name))
        }

        fn env(&self, cpu: CpuId) -> Env {
            Env {
                cpu,
                prev: None,
                idle: None,
                task: None,
                prev_mm: MmId::KERNEL,
                prev_yielded: false,
                nr_running: 0,
                nr_cpus: 1,
            }
        }

        /// Files `tid` at the back of list 0.
        fn queue(&mut self, tid: Tid) {
            self.rig.call(|rq, ctx| rq.insert(ctx, 0, false, tid));
        }

        fn run(&mut self, chunk: &Chunk, env: Env, budget: u64) -> HookRun {
            let state = &mut self.state;
            self.rig
                .call(|rq, ctx| run_chunk(chunk, rq, ctx, env, budget, state))
        }
    }

    fn insn(op: Op, cost: u16, a: u16, b: u16, c: u16, d: u16) -> Insn {
        Insn {
            op,
            cost,
            a,
            b,
            c,
            d,
        }
    }

    fn chunk(code: Vec<Insn>, consts: Vec<i64>, num_regs: u16, num_iters: u8) -> Chunk {
        Chunk {
            code,
            consts,
            num_regs,
            num_iters,
        }
    }

    #[test]
    fn const_mov_bin_compute_and_set_counter_applies() {
        // r8 = 20; r9 = 2; r11 = r9; r10 = r8 + r11; set_counter(task, r10)
        // (22 stays under the set_counter clamp of 2 * priority = 40.)
        let c = chunk(
            vec![
                insn(Op::Const, 1, 8, 0, 0, 0),
                insn(Op::Const, 1, 9, 1, 0, 0),
                insn(Op::Mov, 1, 11, 9, 0, 0),
                insn(Op::Bin, 1, 10, 8, 11, binop_index(BinOp::Add)),
                insn(Op::SetCounter, 1, 3, 10, 0, 0),
                insn(Op::Halt, 0, 0, 0, 0, 0),
            ],
            vec![20, 2],
            12,
            0,
        );
        let mut host = Host::new();
        let t = host.spawn("t");
        let mut env = host.env(0);
        env.task = Some(t);
        let run = host.run(&c, env, 1000);
        assert_eq!(run.violation, None);
        assert_eq!(run.insns, 5);
        assert_eq!(host.rig.tasks.task(t).counter, 22);
    }

    #[test]
    fn jz_takes_the_zero_branch_and_jmp_skips() {
        // r8 = 0; jz r8 -> 4 (skips the bad set_counter); halt
        let c = chunk(
            vec![
                insn(Op::Const, 1, 8, 0, 0, 0),
                insn(Op::Jz, 1, 8, 4, 0, 0),
                insn(Op::Const, 1, 9, 1, 0, 0),
                insn(Op::SetCounter, 1, 3, 9, 0, 0),
                insn(Op::Halt, 0, 0, 0, 0, 0),
            ],
            vec![0, 7],
            10,
            0,
        );
        let mut host = Host::new();
        let t = host.spawn("t");
        let before = host.rig.tasks.task(t).counter;
        let mut env = host.env(0);
        env.task = Some(t);
        let run = host.run(&c, env, 1000);
        assert_eq!(run.violation, None);
        assert_eq!(
            host.rig.tasks.task(t).counter,
            before,
            "branch skipped the write"
        );
    }

    #[test]
    fn repeat_ops_loop_the_declared_count() {
        // ctr = 5; body: r9 = r9 + 1 (r9 starts 0 via const); repeat.next
        let c = chunk(
            vec![
                insn(Op::Const, 1, 9, 0, 0, 0),
                insn(Op::RepeatInit, 1, 8, 1, 0, 0),
                insn(Op::Const, 1, 10, 2, 0, 0),
                insn(Op::Bin, 1, 9, 9, 10, binop_index(BinOp::Add)),
                insn(Op::RepeatNext, 0, 8, 2, 0, 0),
                insn(Op::SetCounter, 1, 3, 9, 0, 0),
                insn(Op::Halt, 0, 0, 0, 0, 0),
            ],
            vec![0, 5, 1],
            11,
            0,
        );
        let mut host = Host::new();
        let t = host.spawn("t");
        let mut env = host.env(0);
        env.task = Some(t);
        let run = host.run(&c, env, 1000);
        assert_eq!(run.violation, None);
        assert_eq!(
            host.rig.tasks.task(t).counter,
            5,
            "body ran exactly count times"
        );
    }

    /// `foreach t in list(L) { requeue_back(t) }`, then a costed halt
    /// so the exit path's charge is visible.
    fn requeue_walk(list: i64) -> Chunk {
        chunk(
            vec![
                insn(Op::Const, 1, 8, 0, 0, 0),
                insn(Op::ForBegin, 1, 0, 8, 5, 0),
                insn(Op::ForNext, 0, 0, 9, 5, 0),
                insn(Op::Requeue, 1, 9, 0, 0, 0),
                insn(Op::Jmp, 0, 2, 0, 0, 0),
                insn(Op::Halt, 1, 0, 0, 0, 0),
            ],
            vec![list],
            10,
            1,
        )
    }

    #[test]
    fn foreach_ops_walk_the_snapshot_in_list_order() {
        let mut host = Host::new();
        let a = host.spawn("a");
        let b = host.spawn("b");
        host.queue(a);
        host.queue(b);
        let env = host.env(0);
        let run = host.run(&requeue_walk(0), env, 1000);
        assert_eq!(run.violation, None);
        assert_eq!(run.requeued, vec![a, b], "front-to-back walk");
        // const + for.begin + a requeue per task + halt.
        assert_eq!(run.insns, 1 + 1 + 2 + 1);
    }

    /// An empty list exits at `for.begin`: no `for.next` dispatch, and
    /// the same charge as walking into it (its cost is 0).
    #[test]
    fn for_begin_skips_the_loop_on_an_empty_list() {
        let mut host = Host::new();
        let a = host.spawn("a");
        host.queue(a);
        let env = host.env(0);
        let run = host.run(&requeue_walk(1), env, 1000);
        assert_eq!(run.violation, None);
        assert!(run.requeued.is_empty());
        assert_eq!(run.insns, 1 + 1 + 1);
    }

    /// `bin.k` reads its right operand from the constant pool and keeps
    /// `binop`'s total semantics (`/ 0` is 0) and its type check.
    #[test]
    fn bin_k_applies_a_pooled_literal() {
        // r8 = 20; r9 = r8 / 0; r10 = r8 - 7; set_counter(task, r9 + r10)
        let c = chunk(
            vec![
                insn(Op::Const, 1, 8, 0, 0, 0),
                insn(Op::BinK, 2, 9, 8, 1, binop_index(BinOp::Div)),
                insn(Op::BinK, 2, 10, 8, 2, binop_index(BinOp::Sub)),
                insn(Op::Bin, 1, 11, 9, 10, binop_index(BinOp::Add)),
                insn(Op::SetCounter, 1, 3, 11, 0, 0),
                insn(Op::BinK, 2, 12, 3, 2, binop_index(BinOp::Sub)),
                insn(Op::Halt, 0, 0, 0, 0, 0),
            ],
            vec![20, 0, 7],
            13,
            0,
        );
        let mut host = Host::new();
        let t = host.spawn("t");
        let mut env = host.env(0);
        env.task = Some(t);
        let run = host.run(&c, env, 1000);
        assert_eq!(host.rig.tasks.task(t).counter, 13, "20 / 0 + (20 - 7)");
        assert_eq!(
            run.violation,
            Some(PolicyViolation::StateCorrupt),
            "task - 7 is a type error"
        );
        assert_eq!(run.insns, 1 + 2 + 2 + 1 + 1 + 2);
    }

    #[test]
    fn pick_halts_and_place_last_wins() {
        // place back 0; place front 1; pick task
        let c = chunk(
            vec![
                insn(Op::Const, 1, 8, 0, 0, 0),
                insn(Op::Place, 1, 8, 0, 0, 0),
                insn(Op::Const, 1, 8, 1, 0, 0),
                insn(Op::Place, 1, 8, 1, 0, 0),
                insn(Op::Pick, 1, 3, 0, 0, 0),
                insn(Op::SetCounter, 1, 3, 8, 0, 0), // unreachable
                insn(Op::Halt, 0, 0, 0, 0, 0),
            ],
            vec![0, 1],
            9,
            0,
        );
        let mut host = Host::new();
        let t = host.spawn("t");
        let before = host.rig.tasks.task(t).counter;
        let mut env = host.env(0);
        env.task = Some(t);
        let run = host.run(&c, env, 1000);
        assert_eq!(run.violation, None);
        assert_eq!(run.picked, Some(Some(t)));
        assert_eq!(run.placed, Some((1, true)), "last placement wins");
        assert_eq!(run.insns, 5, "nothing after pick executes");
        assert_eq!(host.rig.tasks.task(t).counter, before);
    }

    #[test]
    fn call_dispatches_host_functions_and_counts_charges() {
        // r8 = counter(task); set_counter(task, r8 + 1)
        let c = chunk(
            vec![
                insn(Op::Call, 2, 8, 3, 0, hostfn_index(HostFn::Counter)),
                insn(Op::Const, 1, 9, 0, 0, 0),
                insn(Op::Bin, 1, 10, 8, 9, binop_index(BinOp::Add)),
                insn(Op::SetCounter, 1, 3, 10, 0, 0),
                insn(Op::Halt, 0, 0, 0, 0, 0),
            ],
            vec![1],
            11,
            0,
        );
        let mut host = Host::new();
        let t = host.spawn("t");
        let before = host.rig.tasks.task(t).counter;
        let mut env = host.env(0);
        env.task = Some(t);
        let run = host.run(&c, env, 1000);
        assert_eq!(run.violation, None);
        assert_eq!(host.rig.tasks.task(t).counter, before + 1);
    }

    #[test]
    fn budget_blowout_normalizes_to_budget_plus_one() {
        // An infinite loop of cost-1 ops must trip at exactly budget+1
        // even though the batch boundaries don't align with the budget.
        let c = chunk(
            vec![insn(Op::Const, 3, 8, 0, 0, 0), insn(Op::Jmp, 0, 0, 0, 0, 0)],
            vec![0],
            9,
            0,
        );
        let mut host = Host::new();
        let env = host.env(0);
        let run = host.run(&c, env, 10);
        assert_eq!(
            run.violation,
            Some(PolicyViolation::BudgetExhausted {
                insns: 11,
                budget: 10
            })
        );
        assert_eq!(
            run.insns, 11,
            "insns normalized exactly like the interpreter"
        );
    }

    #[test]
    fn reg_pol_compiles_to_only_scan_best() {
        let sched =
            PolicyScheduler::load_str(include_str!("../../../policies/reg.pol"), 1).unwrap();
        let chunk = sched
            .compiled()
            .chunk(crate::ast::HookKind::PickNext)
            .expect("reg.pol defines pick_next");
        let has = |op: Op| chunk.code.iter().any(|i| i.op == op);
        assert!(has(Op::ScanBest), "the whole selection loop fused");
        assert!(
            !has(Op::ForBegin) && !has(Op::ForNext),
            "the scan loop is absorbed into scan.best"
        );
        assert!(has(Op::Jz), "every other `if` takes the plain lowering");
    }

    /// `table.pol`'s band walk, golden: the walk's `for.begin` is a
    /// `seek` (its exit is the `band = band - 1` latch and then the
    /// `repeat.next` back to it, so an empty band costs one head test,
    /// not three dispatches), every literal right operand is a `bin.k`,
    /// and every `if` is a plain `call`/`jz` (no loop here is
    /// `scan.best`'s shape).
    #[test]
    fn table_pol_pick_next_disassembly_is_pinned() {
        let sched =
            PolicyScheduler::load_str(include_str!("../../../policies/table.pol"), 1).unwrap();
        let chunk = sched
            .compiled()
            .chunk(crate::ast::HookKind::PickNext)
            .expect("table.pol defines pick_next");
        assert_eq!(
            chunk.disasm(),
            "\
000: repeat.init  r8 <- 2                      ; cost 1
001: bin.k        r9 <- r6 Sub 1               ; cost 4
002: repeat.init  r10 <- 30                    ; cost 1
003: for.begin    iter0 list r9 empty -> 17 seek ; cost 2
004: for.next     iter0 r11 else -> 17         ; cost 0
005: call         r12 <- can_schedule(r11)     ; cost 3
006: jz           r12 -> 16                    ; cost 0
007: call         r14 <- counter(r11)          ; cost 4
008: bin.k        r13 <- r14 Gt 0              ; cost 1
009: jz           r13 -> 12                    ; cost 0
010: requeue      r11                          ; cost 2
011: pick         r11                          ; cost 2
012: call         r13 <- is_rt(r11)            ; cost 3
013: jz           r13 -> 16                    ; cost 0
014: requeue      r11                          ; cost 2
015: pick         r11                          ; cost 2
016: jmp          -> 4                         ; cost 0
017: bin.k        r9 <- r9 Sub 1               ; cost 4
018: repeat.next  r10 -> 3                     ; cost 0
019: call         r10 <- runnable(r1)          ; cost 3
020: jz           r10 -> 25                    ; cost 0
021: call         r12 <- prev_goodness()       ; cost 3
022: bin.k        r11 <- r12 Gt 0              ; cost 1
023: jz           r11 -> 25                    ; cost 0
024: pick         r1                           ; cost 2
025: recalc                                    ; cost 1
026: repeat.next  r8 -> 1                      ; cost 0
027: call         r8 <- runnable(r1)           ; cost 3
028: jz           r8 -> 30                     ; cost 0
029: pick         r1                           ; cost 2
030: pick         r2                           ; cost 2
031: halt                                      ; cost 0
"
        );
    }

    /// The fused selection loop picks the highest-goodness task, charges
    /// the interpreter's per-node schedule, and aborts at the same
    /// budget cutoffs as the unfused path (which the differential suite
    /// pins against the interpreter).
    #[test]
    fn scan_best_walks_the_list_and_tracks_the_max() {
        // r8 = list 0; r9 = best (-1000); r10 = winner (nil);
        // scan.best; halt — then inspect r9/r10 via set_counter/requeue.
        let c = chunk(
            vec![
                insn(Op::Const, 1, 8, 0, 0, 0),
                insn(Op::ScanBest, 2, 8, 9, 10, 0),
                insn(Op::Requeue, 1, 10, 0, 0, 0),
                insn(Op::Halt, 0, 0, 0, 0, 0),
            ],
            vec![0],
            11,
            0,
        );
        let mut host = Host::new();
        let a = host.spawn("a");
        let b = host.spawn("b");
        host.rig.tasks.task_mut(a).counter = 3;
        host.rig.tasks.task_mut(b).counter = 9;
        host.queue(a);
        host.queue(b);
        let mut env = host.env(0);
        env.nr_running = 2;
        // Seed best below both counters so each item updates it once.
        host.state.regs.resize(11, Val::Int(0));
        host.state.regs[9] = Val::Int(-1000);
        let run = host.run(&c, env, 1000);
        assert_eq!(run.violation, None);
        assert_eq!(run.requeued, vec![b], "highest goodness wins");
        assert_eq!(
            host.rig.stats.cpu(0).tasks_examined,
            2,
            "one goodness per task"
        );
        // 1 (const) + 2 (scan entry) + per item 3+3+4, +4 on each new
        // best (both items beat the seed), + 1 (requeue).
        assert_eq!(run.insns, 1 + 2 + 2 * (3 + 3 + 4 + 4) + 1);

        // Budget cutoffs abort mid-walk with insns == budget + 1.
        for budget in 1..(1 + 2 + 2 * 14) {
            let mut host2 = Host::new();
            let a2 = host2.spawn("a");
            host2.rig.tasks.task_mut(a2).counter = 3;
            host2.queue(a2);
            let env2 = host2.env(0);
            let run = host2.run(&c, env2, budget as u64);
            if let Some(PolicyViolation::BudgetExhausted { insns, .. }) = run.violation {
                assert_eq!(insns, budget as u64 + 1);
            }
        }
    }
}
