//! The tree-walking interpreter: the executable reference semantics of
//! `.pol`, kept for tests only.
//!
//! Shipped builds run every hook on the bytecode VM ([`crate::vm`]).
//! This module is compiled under `cfg(test)` or the test-only
//! `interp-reference` cargo feature, and is reachable solely through
//! [`PolicyScheduler::into_reference`](crate::PolicyScheduler::into_reference),
//! so the differential suites can hold the VM to it charge for charge.
//! The host semantics (`host_call`, `binop`, the `recalc`/`set_counter`
//! effects) are the ones in [`crate::sched`] that the VM itself calls.

use elsc_ktask::Tid;
use elsc_sched_api::{RunQueues, SchedCtx};

use crate::ast::{Block, Builtin, Expr, Stmt};
use crate::sched::{
    binop, host_call, recalc_effect, set_counter_effect, wrap_list, Env, HookRun, PolicyViolation,
    Val,
};

/// How a statement sequence ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Flow {
    /// Ran to completion.
    Normal,
    /// A `break` is unwinding to the innermost loop.
    Break,
    /// A `pick` ended the hook.
    Picked,
}

/// Interprets one hook body.
pub(crate) fn run_block(
    block: &Block,
    rq: &RunQueues,
    ctx: &mut SchedCtx<'_>,
    env: Env,
    budget: u64,
) -> HookRun {
    let mut interp = Interp {
        ctx,
        rq,
        env,
        scopes: vec![Vec::new()],
        insns: 0,
        budget,
        picked: None,
        placed: None,
        requeued: Vec::new(),
    };
    let violation = interp.exec_block(block).err();
    HookRun {
        insns: interp.insns,
        picked: interp.picked,
        placed: interp.placed,
        requeued: interp.requeued,
        violation,
    }
}

/// The tree-walking interpreter for one hook invocation.
struct Interp<'a, 'p, 'c> {
    ctx: &'a mut SchedCtx<'c>,
    rq: &'a RunQueues,
    env: Env,
    /// Innermost scope last; names borrow from the program.
    scopes: Vec<Vec<(&'p str, Val)>>,
    insns: u64,
    budget: u64,
    picked: Option<Option<Tid>>,
    placed: Option<(usize, bool)>,
    requeued: Vec<Tid>,
}

impl<'a, 'p, 'c> Interp<'a, 'p, 'c> {
    /// Counts one executed IR node against the budget.
    fn charge(&mut self) -> Result<(), PolicyViolation> {
        self.insns += 1;
        if self.insns > self.budget {
            return Err(PolicyViolation::BudgetExhausted {
                insns: self.insns,
                budget: self.budget,
            });
        }
        Ok(())
    }

    fn lookup(&self, name: &str) -> Option<Val> {
        self.scopes
            .iter()
            .rev()
            .find_map(|sc| sc.iter().rev().find(|(n, _)| *n == name).map(|&(_, v)| v))
    }

    fn assign(&mut self, name: &str, v: Val) -> Result<(), PolicyViolation> {
        for sc in self.scopes.iter_mut().rev() {
            if let Some(slot) = sc.iter_mut().rev().find(|(n, _)| *n == name) {
                slot.1 = v;
                return Ok(());
            }
        }
        // The verifier proved every assignment target exists; reaching
        // this means the interpreter's own state is wrong.
        Err(PolicyViolation::StateCorrupt)
    }

    fn exec_block(&mut self, block: &'p Block) -> Result<Flow, PolicyViolation> {
        self.scopes.push(Vec::new());
        let mut flow = Flow::Normal;
        for s in &block.stmts {
            flow = self.exec_stmt(s)?;
            if flow != Flow::Normal {
                break;
            }
        }
        self.scopes.pop();
        Ok(flow)
    }

    fn exec_stmt(&mut self, s: &'p Stmt) -> Result<Flow, PolicyViolation> {
        self.charge()?;
        match s {
            Stmt::Let { name, expr, .. } => {
                let v = self.eval(expr)?;
                self.scopes
                    .last_mut()
                    .expect("scope stack never empty")
                    .push((name.as_str(), v));
                Ok(Flow::Normal)
            }
            Stmt::Assign { name, expr, .. } => {
                let v = self.eval(expr)?;
                self.assign(name, v)?;
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond, then, els, ..
            } => {
                let c = self.eval_int(cond)?;
                if c != 0 {
                    self.exec_block(then)
                } else if let Some(els) = els {
                    self.exec_block(els)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::Repeat { count, body, .. } => {
                for _ in 0..*count {
                    match self.exec_block(body)? {
                        Flow::Normal => {}
                        Flow::Break => break,
                        Flow::Picked => return Ok(Flow::Picked),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Foreach {
                var, list, body, ..
            } => {
                let h = {
                    let i = self.eval_int(list)?;
                    wrap_list(i, self.rq.lists().nr_lists())
                };
                // Snapshot: hooks never mutate lists (placement and
                // rotation are deferred to the host), so the walk order
                // is the list order at hook entry.
                let snapshot: Vec<Tid> = self
                    .rq
                    .lists()
                    .collect(self.ctx.tasks, h)
                    .into_iter()
                    .map(|i| self.ctx.tasks.by_index(i as usize).tid)
                    .collect();
                for tid in snapshot {
                    self.scopes.push(vec![(var.as_str(), Val::Task(Some(tid)))]);
                    let mut flow = Flow::Normal;
                    for s in &body.stmts {
                        flow = self.exec_stmt(s)?;
                        if flow != Flow::Normal {
                            break;
                        }
                    }
                    self.scopes.pop();
                    match flow {
                        Flow::Normal => {}
                        Flow::Break => return Ok(Flow::Normal),
                        Flow::Picked => return Ok(Flow::Picked),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Break { .. } => Ok(Flow::Break),
            Stmt::Pick { expr, .. } => {
                let v = self.eval_task(expr)?;
                self.picked = Some(v);
                Ok(Flow::Picked)
            }
            Stmt::Place { front, list, .. } => {
                let i = self.eval_int(list)?;
                // The last placement executed wins.
                self.placed = Some((wrap_list(i, self.rq.lists().nr_lists()), *front));
                Ok(Flow::Normal)
            }
            Stmt::Requeue { task, .. } => {
                if let Some(tid) = self.eval_task(task)? {
                    self.requeued.push(tid);
                }
                Ok(Flow::Normal)
            }
            Stmt::SetCounter { task, value, .. } => {
                let t = self.eval_task(task)?;
                let v = self.eval_int(value)?;
                set_counter_effect(self.ctx, t, v);
                Ok(Flow::Normal)
            }
            Stmt::Recalc { .. } => {
                recalc_effect(self.ctx, &self.env);
                Ok(Flow::Normal)
            }
        }
    }

    fn eval_int(&mut self, e: &'p Expr) -> Result<i64, PolicyViolation> {
        match self.eval(e)? {
            Val::Int(n) => Ok(n),
            Val::Task(_) => Err(PolicyViolation::StateCorrupt),
        }
    }

    fn eval_task(&mut self, e: &'p Expr) -> Result<Option<Tid>, PolicyViolation> {
        match self.eval(e)? {
            Val::Task(t) => Ok(t),
            Val::Int(_) => Err(PolicyViolation::StateCorrupt),
        }
    }

    fn eval(&mut self, e: &'p Expr) -> Result<Val, PolicyViolation> {
        self.charge()?;
        match e {
            Expr::Int(n, _) => Ok(Val::Int(*n)),
            Expr::Var(name, _) => self.lookup(name).ok_or(PolicyViolation::StateCorrupt),
            Expr::Builtin(b, _) => Ok(self.builtin(*b)),
            Expr::Binary { op, lhs, rhs, .. } => {
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                binop(*op, l, r)
            }
            Expr::Call { func, args, .. } => {
                let arg = match args.first() {
                    Some(a) => Some(self.eval(a)?),
                    None => None,
                };
                Ok(host_call(self.ctx, self.rq, &mut self.env, *func, arg))
            }
        }
    }

    fn builtin(&self, b: Builtin) -> Val {
        match b {
            Builtin::Cpu => Val::Int(self.env.cpu as i64),
            Builtin::Prev => Val::Task(self.env.prev),
            Builtin::Idle => Val::Task(self.env.idle),
            Builtin::Task => Val::Task(self.env.task),
            Builtin::Nil => Val::Task(None),
            Builtin::NrCpus => Val::Int(self.env.nr_cpus as i64),
            Builtin::NrLists => Val::Int(self.rq.lists().nr_lists() as i64),
            Builtin::NrRunning => Val::Int(self.env.nr_running as i64),
        }
    }
}
