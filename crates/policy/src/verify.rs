//! The load-time verifier: the safety half of the policy runtime.
//!
//! A `.pol` program that passes [`verify`] is guaranteed to
//!
//! * be **well-typed**: every value is an int or a task handle, host
//!   functions are called with the right arity and argument types, and
//!   tasks are never used in arithmetic (only `==`/`!=` compare them);
//! * use only **hook-appropriate context**: `prev`/`goodness(..)` exist
//!   in `pick_next` only, `task` in `enqueue`/`tick`/`on_fork` only,
//!   `pick` cannot appear in `enqueue`, and so on;
//! * have **bounded execution**: `repeat` counts are literals (checked at
//!   parse), loop nesting is capped at [`MAX_LOOP_NESTING`], and each
//!   hook's *static* instruction count — with `repeat` bodies multiplied
//!   by their counts — fits [`MAX_HOOK_INSNS`]. (`foreach` is counted for
//!   one static iteration; the runtime per-decision budget covers the
//!   dynamic length.)
//! * **terminate usefully**: `pick_next` provably reaches a `pick` on
//!   every path, and a defined `enqueue` hook provably executes a
//!   placement, so the host never has to guess.
//!
//! Verification also fills [`Program::static_insns`], which the policy
//! scheduler reports through `Supervised::load` and the machine announces
//! on the observability bus.

use crate::ast::{BinOp, Block, Builtin, Expr, HookKind, HostFn, Program, Span, Stmt};
use crate::PolicyError;

/// Maximum loop (`repeat`/`foreach`) nesting depth.
pub const MAX_LOOP_NESTING: usize = 8;

/// Maximum static instruction count per hook (with `repeat` bodies
/// multiplied out).
pub const MAX_HOOK_INSNS: u64 = 4096;

/// A value's type: every expression is one of these two.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ty {
    /// A 64-bit signed integer.
    Int,
    /// A task handle (possibly `nil`).
    Task,
}

impl Ty {
    fn name(self) -> &'static str {
        match self {
            Ty::Int => "int",
            Ty::Task => "task",
        }
    }
}

/// Verifies `prog` and fills [`Program::static_insns`].
///
/// # Errors
///
/// The first violated rule as a spanned [`PolicyError`]; the program is
/// left unmodified on error except possibly partially-filled
/// `static_insns` (callers discard the program on `Err`).
pub fn verify(prog: &mut Program) -> Result<(), PolicyError> {
    if prog.hook(HookKind::PickNext).is_none() {
        return Err(PolicyError::new(
            Span::new(1, 1),
            "policy must define a 'pick_next' hook",
        ));
    }
    for hook in HookKind::ALL {
        let Some(block) = prog.hooks[hook.index()].clone() else {
            prog.static_insns[hook.index()] = 0;
            continue;
        };
        let mut cx = HookCx {
            hook,
            scopes: vec![Vec::new()],
            loop_depth: 0,
        };
        let cost = cx.block(&block)?;
        if cost > MAX_HOOK_INSNS {
            return Err(PolicyError::new(
                block.stmts.first().map_or(Span::new(1, 1), Stmt::span),
                format!(
                    "hook '{}' has a static cost of {cost} instructions, over the {MAX_HOOK_INSNS} cap",
                    hook.name()
                ),
            ));
        }
        prog.static_insns[hook.index()] = cost;
        match hook {
            HookKind::PickNext if !guarantees(&block, GuaranteeKind::Pick) => {
                return Err(PolicyError::new(
                    block.stmts.first().map_or(Span::new(1, 1), Stmt::span),
                    "'pick_next' must reach a 'pick' on every path \
                     (end the hook with an unconditional 'pick', e.g. 'pick idle')",
                ));
            }
            HookKind::Enqueue if !guarantees(&block, GuaranteeKind::Place) => {
                return Err(PolicyError::new(
                    block.stmts.first().map_or(Span::new(1, 1), Stmt::span),
                    "'enqueue' must execute an 'enqueue_front'/'enqueue_back' on every path",
                ));
            }
            _ => {}
        }
    }
    Ok(())
}

/// What a must-reach analysis is looking for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum GuaranteeKind {
    Pick,
    Place,
}

/// Conservative must-reach analysis: does every execution of `block`
/// execute the wanted statement?
///
/// Only `Pick`/`Place` themselves and `if`/`else` pairs where *both*
/// branches guarantee count; loops never do (a `foreach` may iterate zero
/// times, a `repeat` body may `break`). Sound because `break` is only
/// legal inside loops, so the statements this analysis walks (top level
/// plus `if` branches, never loop bodies) are always reached in order.
fn guarantees(block: &Block, want: GuaranteeKind) -> bool {
    block.stmts.iter().any(|s| match s {
        Stmt::Pick { .. } => want == GuaranteeKind::Pick,
        Stmt::Place { .. } => want == GuaranteeKind::Place,
        Stmt::If {
            then,
            els: Some(els),
            ..
        } => guarantees(then, want) && guarantees(els, want),
        _ => false,
    })
}

/// Per-hook verification state: the scope stack and loop depth.
struct HookCx {
    hook: HookKind,
    /// Innermost scope last; each scope maps name -> type.
    scopes: Vec<Vec<(String, Ty)>>,
    loop_depth: usize,
}

impl HookCx {
    fn lookup(&self, name: &str) -> Option<Ty> {
        self.scopes
            .iter()
            .rev()
            .find_map(|s| s.iter().rev().find(|(n, _)| n == name).map(|&(_, t)| t))
    }

    fn declare(&mut self, name: &str, ty: Ty, span: Span) -> Result<(), PolicyError> {
        if Builtin::from_name(name).is_some() || HostFn::from_name(name).is_some() {
            return Err(PolicyError::new(
                span,
                format!("'{name}' is a reserved name and cannot be redeclared"),
            ));
        }
        let scope = self.scopes.last_mut().expect("scope stack never empty");
        if scope.iter().any(|(n, _)| n == name) {
            return Err(PolicyError::new(
                span,
                format!("'{name}' is already declared in this scope"),
            ));
        }
        scope.push((name.to_string(), ty));
        Ok(())
    }

    /// Checks a block, returning its static instruction cost.
    fn block(&mut self, block: &Block) -> Result<u64, PolicyError> {
        self.scopes.push(Vec::new());
        let mut cost: u64 = 0;
        for stmt in &block.stmts {
            cost = cost.saturating_add(self.stmt(stmt)?);
        }
        self.scopes.pop();
        Ok(cost)
    }

    /// Checks one statement, returning its static instruction cost
    /// (1 for the statement itself plus its sub-costs; `repeat` bodies
    /// are multiplied by the iteration count).
    fn stmt(&mut self, stmt: &Stmt) -> Result<u64, PolicyError> {
        match stmt {
            Stmt::Let { name, expr, span } => {
                let (ty, c) = self.expr(expr)?;
                self.declare(name, ty, *span)?;
                Ok(1 + c)
            }
            Stmt::Assign { name, expr, span } => {
                let Some(declared) = self.lookup(name) else {
                    return Err(PolicyError::new(
                        *span,
                        format!("assignment to undeclared variable '{name}' (use 'let')"),
                    ));
                };
                let (ty, c) = self.expr(expr)?;
                if ty != declared {
                    return Err(PolicyError::new(
                        *span,
                        format!(
                            "type mismatch: '{name}' is {} but the value is {}",
                            declared.name(),
                            ty.name()
                        ),
                    ));
                }
                Ok(1 + c)
            }
            Stmt::If {
                cond, then, els, ..
            } => {
                let (ty, c) = self.expr(cond)?;
                if ty != Ty::Int {
                    return Err(PolicyError::new(
                        cond.span(),
                        "'if' condition must be an int (use '== nil' to test tasks)",
                    ));
                }
                let ct = self.block(then)?;
                let ce = match els {
                    Some(b) => self.block(b)?,
                    None => 0,
                };
                Ok(1u64.saturating_add(c).saturating_add(ct).saturating_add(ce))
            }
            Stmt::Repeat { count, body, span } => {
                self.enter_loop(*span)?;
                let cb = self.block(body)?;
                self.loop_depth -= 1;
                Ok(1u64.saturating_add(u64::from(*count).saturating_mul(cb)))
            }
            Stmt::Foreach {
                var,
                list,
                body,
                span,
            } => {
                let (ty, c) = self.expr(list)?;
                if ty != Ty::Int {
                    return Err(PolicyError::new(
                        list.span(),
                        "'foreach' list index must be an int",
                    ));
                }
                self.enter_loop(*span)?;
                // The loop variable lives in the body's scope.
                self.scopes.push(Vec::new());
                self.declare(var, Ty::Task, *span)?;
                let mut cb: u64 = 0;
                for s in &body.stmts {
                    cb = cb.saturating_add(self.stmt(s)?);
                }
                self.scopes.pop();
                self.loop_depth -= 1;
                // Counted for one static iteration; the runtime budget
                // bounds the dynamic list length.
                Ok(1u64.saturating_add(c).saturating_add(cb))
            }
            Stmt::Break { span } => {
                if self.loop_depth == 0 {
                    return Err(PolicyError::new(*span, "'break' outside of a loop"));
                }
                Ok(1)
            }
            Stmt::Pick { expr, span } => {
                if self.hook != HookKind::PickNext {
                    return Err(PolicyError::new(
                        *span,
                        format!(
                            "'pick' is only allowed in 'pick_next' (this is '{}')",
                            self.hook.name()
                        ),
                    ));
                }
                let (ty, c) = self.expr(expr)?;
                if ty != Ty::Task {
                    return Err(PolicyError::new(
                        expr.span(),
                        "'pick' takes a task (e.g. 'pick idle'), not an int",
                    ));
                }
                Ok(1 + c)
            }
            Stmt::Place { list, span, .. } => {
                if self.hook != HookKind::Enqueue {
                    return Err(PolicyError::new(
                        *span,
                        format!(
                            "'enqueue_front'/'enqueue_back' are only allowed in 'enqueue' (this is '{}')",
                            self.hook.name()
                        ),
                    ));
                }
                let (ty, c) = self.expr(list)?;
                if ty != Ty::Int {
                    return Err(PolicyError::new(
                        list.span(),
                        "enqueue placement takes a list index (int)",
                    ));
                }
                Ok(1 + c)
            }
            Stmt::Requeue { task, span } => {
                if self.hook != HookKind::PickNext {
                    return Err(PolicyError::new(
                        *span,
                        format!(
                            "'requeue_back' is only allowed in 'pick_next' (this is '{}')",
                            self.hook.name()
                        ),
                    ));
                }
                let (ty, c) = self.expr(task)?;
                if ty != Ty::Task {
                    return Err(PolicyError::new(task.span(), "'requeue_back' takes a task"));
                }
                Ok(1 + c)
            }
            Stmt::SetCounter { task, value, span } => {
                if !matches!(self.hook, HookKind::Tick | HookKind::OnFork) {
                    return Err(PolicyError::new(
                        *span,
                        format!(
                            "'set_counter' is only allowed in 'tick'/'on_fork' (this is '{}')",
                            self.hook.name()
                        ),
                    ));
                }
                let (tt, ct) = self.expr(task)?;
                if tt != Ty::Task {
                    return Err(PolicyError::new(
                        task.span(),
                        "'set_counter' first argument must be a task",
                    ));
                }
                let (tv, cv) = self.expr(value)?;
                if tv != Ty::Int {
                    return Err(PolicyError::new(
                        value.span(),
                        "'set_counter' second argument must be an int",
                    ));
                }
                Ok(1 + ct + cv)
            }
            Stmt::Recalc { span } => {
                if self.hook != HookKind::PickNext {
                    return Err(PolicyError::new(
                        *span,
                        format!(
                            "'recalc' is only allowed in 'pick_next' (this is '{}')",
                            self.hook.name()
                        ),
                    ));
                }
                Ok(1)
            }
        }
    }

    fn enter_loop(&mut self, span: Span) -> Result<(), PolicyError> {
        if self.loop_depth >= MAX_LOOP_NESTING {
            return Err(PolicyError::new(
                span,
                format!("loop nesting deeper than {MAX_LOOP_NESTING}"),
            ));
        }
        self.loop_depth += 1;
        Ok(())
    }

    /// Checks one expression, returning its type and static cost (one per
    /// node).
    fn expr(&mut self, expr: &Expr) -> Result<(Ty, u64), PolicyError> {
        match expr {
            Expr::Int(..) => Ok((Ty::Int, 1)),
            Expr::Var(name, span) => match self.lookup(name) {
                Some(ty) => Ok((ty, 1)),
                None => Err(PolicyError::new(
                    *span,
                    format!("unknown variable '{name}'"),
                )),
            },
            Expr::Builtin(b, span) => {
                if !builtin_available(*b, self.hook) {
                    return Err(PolicyError::new(
                        *span,
                        format!(
                            "'{}' is not available in the '{}' hook",
                            b.name(),
                            self.hook.name()
                        ),
                    ));
                }
                Ok((builtin_ty(*b), 1))
            }
            Expr::Binary { op, lhs, rhs, span } => {
                let (lt, lc) = self.expr(lhs)?;
                let (rt, rc) = self.expr(rhs)?;
                match op {
                    BinOp::Eq | BinOp::Ne => {
                        if lt != rt {
                            return Err(PolicyError::new(
                                *span,
                                format!("cannot compare {} with {}", lt.name(), rt.name()),
                            ));
                        }
                    }
                    _ => {
                        if lt != Ty::Int || rt != Ty::Int {
                            return Err(PolicyError::new(
                                *span,
                                "tasks support only '=='/'!=' (arithmetic and ordering are int-only)",
                            ));
                        }
                    }
                }
                Ok((Ty::Int, 1 + lc + rc))
            }
            Expr::Call { func, args, span } => {
                if pick_next_only(*func) && self.hook != HookKind::PickNext {
                    return Err(PolicyError::new(
                        *span,
                        format!(
                            "'{}' is only available in 'pick_next' (this is '{}')",
                            func.name(),
                            self.hook.name()
                        ),
                    ));
                }
                let params = fn_params(*func);
                if args.len() != params.len() {
                    return Err(PolicyError::new(
                        *span,
                        format!(
                            "'{}' takes {} argument{}, got {}",
                            func.name(),
                            params.len(),
                            if params.len() == 1 { "" } else { "s" },
                            args.len()
                        ),
                    ));
                }
                let mut cost: u64 = 1;
                for (arg, want) in args.iter().zip(params) {
                    let (ty, c) = self.expr(arg)?;
                    if ty != *want {
                        return Err(PolicyError::new(
                            arg.span(),
                            format!(
                                "'{}' expects a {} argument, got {}",
                                func.name(),
                                want.name(),
                                ty.name()
                            ),
                        ));
                    }
                    cost += c;
                }
                Ok((fn_ret(*func), cost))
            }
        }
    }
}

/// Which builtins each hook may read.
fn builtin_available(b: Builtin, hook: HookKind) -> bool {
    match b {
        Builtin::Nil | Builtin::NrCpus | Builtin::NrLists | Builtin::NrRunning => true,
        Builtin::Cpu => matches!(hook, HookKind::PickNext | HookKind::Tick),
        Builtin::Prev | Builtin::Idle => hook == HookKind::PickNext,
        Builtin::Task => matches!(hook, HookKind::Enqueue | HookKind::Tick | HookKind::OnFork),
    }
}

fn builtin_ty(b: Builtin) -> Ty {
    match b {
        Builtin::Prev | Builtin::Idle | Builtin::Task | Builtin::Nil => Ty::Task,
        Builtin::Cpu | Builtin::NrCpus | Builtin::NrLists | Builtin::NrRunning => Ty::Int,
    }
}

/// Host functions that only make sense during a `pick_next` decision
/// (they read `prev`/the deciding CPU).
fn pick_next_only(f: HostFn) -> bool {
    matches!(
        f,
        HostFn::Goodness | HostFn::PrevGoodness | HostFn::SameMm | HostFn::CanSchedule
    )
}

fn fn_params(f: HostFn) -> &'static [Ty] {
    match f {
        HostFn::PrevGoodness => &[],
        HostFn::ListLen | HostFn::ListHead => &[Ty::Int],
        _ => &[Ty::Task],
    }
}

fn fn_ret(f: HostFn) -> Ty {
    match f {
        HostFn::ListHead => Ty::Task,
        _ => Ty::Int,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn check(src: &str) -> Result<Program, PolicyError> {
        let mut p = parse(src)?;
        verify(&mut p)?;
        Ok(p)
    }

    #[test]
    fn minimal_program_verifies_and_costs_are_filled() {
        let p = check("policy p\nlists 1\nhook pick_next { pick idle }").unwrap();
        assert_eq!(p.static_insns[HookKind::PickNext.index()], 2); // pick + idle
        assert_eq!(p.static_insns[HookKind::Enqueue.index()], 0);
    }

    #[test]
    fn pick_next_is_mandatory() {
        let err = check("policy p\nlists 1\nhook enqueue { enqueue_front(0) }").unwrap_err();
        assert!(err.msg.contains("pick_next"), "{}", err.msg);
    }

    #[test]
    fn pick_next_without_guaranteed_pick_is_rejected() {
        let err = check("policy p\nlists 1\nhook pick_next { if 1 { pick idle } }").unwrap_err();
        assert!(err.msg.contains("every path"), "{}", err.msg);
    }

    #[test]
    fn if_else_both_picking_is_accepted() {
        check(
            "policy p\nlists 1\nhook pick_next { if nr_running > 0 { pick idle } else { pick prev } }",
        )
        .unwrap();
    }

    #[test]
    fn enqueue_must_place() {
        let err =
            check("policy p\nlists 1\nhook enqueue { let x = 1 }\nhook pick_next { pick idle }")
                .unwrap_err();
        assert!(err.msg.contains("enqueue_front"), "{}", err.msg);
    }

    #[test]
    fn pick_outside_pick_next_is_rejected() {
        let err =
            check("policy p\nlists 1\nhook enqueue { pick task }\nhook pick_next { pick idle }")
                .unwrap_err();
        assert!(
            err.msg.contains("only allowed in 'pick_next'"),
            "{}",
            err.msg
        );
    }

    #[test]
    fn place_outside_enqueue_is_rejected() {
        let err =
            check("policy p\nlists 1\nhook pick_next { enqueue_back(0) pick idle }").unwrap_err();
        assert!(err.msg.contains("only allowed in 'enqueue'"), "{}", err.msg);
    }

    #[test]
    fn goodness_outside_pick_next_is_rejected() {
        let err = check(
            "policy p\nlists 1\nhook enqueue { let g = goodness(task) enqueue_front(0) }\nhook pick_next { pick idle }",
        )
        .unwrap_err();
        assert!(err.msg.contains("goodness"), "{}", err.msg);
    }

    #[test]
    fn prev_is_pick_next_only() {
        let err = check(
            "policy p\nlists 1\nhook tick { set_counter(prev, 1) }\nhook pick_next { pick idle }",
        )
        .unwrap_err();
        assert!(err.msg.contains("not available"), "{}", err.msg);
    }

    #[test]
    fn unknown_variable_is_rejected() {
        let err = check("policy p\nlists 1\nhook pick_next { pick best }").unwrap_err();
        assert!(err.msg.contains("unknown variable"), "{}", err.msg);
    }

    #[test]
    fn assign_requires_let() {
        let err = check("policy p\nlists 1\nhook pick_next { x = 1 pick idle }").unwrap_err();
        assert!(err.msg.contains("undeclared"), "{}", err.msg);
    }

    #[test]
    fn assignment_type_must_match() {
        let err = check("policy p\nlists 1\nhook pick_next { let x = 1 x = idle pick idle }")
            .unwrap_err();
        assert!(err.msg.contains("type mismatch"), "{}", err.msg);
    }

    #[test]
    fn tasks_cannot_be_ordered_or_added() {
        let err = check("policy p\nlists 1\nhook pick_next { if prev < idle { } pick idle }")
            .unwrap_err();
        assert!(err.msg.contains("int-only"), "{}", err.msg);
        let err2 =
            check("policy p\nlists 1\nhook pick_next { let x = prev + 1 pick idle }").unwrap_err();
        assert!(err2.msg.contains("int-only"), "{}", err2.msg);
    }

    #[test]
    fn task_equality_is_fine_mixed_is_not() {
        check("policy p\nlists 1\nhook pick_next { if prev == idle { } pick idle }").unwrap();
        let err =
            check("policy p\nlists 1\nhook pick_next { if prev == 1 { } pick idle }").unwrap_err();
        assert!(err.msg.contains("cannot compare"), "{}", err.msg);
    }

    #[test]
    fn arity_and_argument_types_are_checked() {
        let err = check("policy p\nlists 1\nhook pick_next { let g = goodness() pick idle }")
            .unwrap_err();
        assert!(err.msg.contains("takes 1 argument"), "{}", err.msg);
        let err2 = check("policy p\nlists 1\nhook pick_next { let g = goodness(3) pick idle }")
            .unwrap_err();
        assert!(err2.msg.contains("expects a task"), "{}", err2.msg);
        let err3 = check("policy p\nlists 1\nhook pick_next { let h = list_head(prev) pick idle }")
            .unwrap_err();
        assert!(
            err3.msg.contains("expects a int") || err3.msg.contains("int argument"),
            "{}",
            err3.msg
        );
    }

    #[test]
    fn break_outside_loop_is_rejected() {
        let err = check("policy p\nlists 1\nhook pick_next { break pick idle }").unwrap_err();
        assert!(err.msg.contains("outside of a loop"), "{}", err.msg);
    }

    #[test]
    fn deep_nesting_is_rejected() {
        let mut src = String::from("policy p\nlists 1\nhook pick_next { ");
        for _ in 0..9 {
            src.push_str("repeat 2 { ");
        }
        src.push_str("let x = 1 ");
        for _ in 0..9 {
            src.push_str("} ");
        }
        src.push_str("pick idle }");
        let err = check(&src).unwrap_err();
        assert!(err.msg.contains("nesting"), "{}", err.msg);
    }

    #[test]
    fn static_budget_blowout_is_rejected_without_overflow() {
        let src = "policy p\nlists 1\nhook pick_next {\n\
                   repeat 1024 { repeat 1024 { repeat 1024 { let x = 1 } } }\n\
                   pick idle }";
        let err = check(src).unwrap_err();
        assert!(err.msg.contains("static cost"), "{}", err.msg);
    }

    #[test]
    fn builtins_cannot_be_shadowed() {
        let err =
            check("policy p\nlists 1\nhook pick_next { let prev = idle pick idle }").unwrap_err();
        assert!(err.msg.contains("reserved"), "{}", err.msg);
        let err2 = check(
            "policy p\nlists 1\nhook pick_next { foreach goodness in list(0) { } pick idle }",
        )
        .unwrap_err();
        assert!(err2.msg.contains("reserved"), "{}", err2.msg);
    }

    #[test]
    fn set_counter_hook_gating() {
        check(
            "policy p\nlists 1\nhook tick { set_counter(task, 2) }\nhook pick_next { pick idle }",
        )
        .unwrap();
        let err = check("policy p\nlists 1\nhook pick_next { set_counter(idle, 2) pick idle }")
            .unwrap_err();
        assert!(err.msg.contains("tick"), "{}", err.msg);
    }

    #[test]
    fn repeat_cost_is_multiplied() {
        let p = check("policy p\nlists 1\nhook pick_next { repeat 10 { let x = 1 } pick idle }")
            .unwrap();
        // repeat(1) + 10 * (let(1) + int(1)) + pick(1) + idle(1) = 23
        assert_eq!(p.static_insns[HookKind::PickNext.index()], 23);
    }

    #[test]
    fn shadowing_in_inner_scope_is_allowed_same_scope_is_not() {
        check("policy p\nlists 1\nhook pick_next { let x = 1 if 1 { let x = 2 } pick idle }")
            .unwrap();
        let err = check("policy p\nlists 1\nhook pick_next { let x = 1 let x = 2 pick idle }")
            .unwrap_err();
        assert!(err.msg.contains("already declared"), "{}", err.msg);
    }

    /// Checks the host-function table in `docs/POLICY.md` §3 against
    /// [`HOSTFNS`](crate::bytecode::HOSTFNS): exactly one row per host
    /// function, in any order, whose call form has the declared name and
    /// arity and whose signature and hook columns match the verifier's.
    fn check_host_api_table(doc: &str) -> Result<(), String> {
        let section = doc
            .split("## 3. Host API")
            .nth(1)
            .and_then(|s| s.split("\n## ").next())
            .ok_or("no `## 3. Host API` section")?;
        let mut rows: Vec<[&str; 3]> = Vec::new();
        for line in section.lines().filter(|l| l.starts_with("| `")) {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            let [_, call, sig, hooks, ..] = cells.as_slice() else {
                return Err(format!("malformed row: {line}"));
            };
            rows.push([call.trim_matches('`'), sig.trim_matches('`'), hooks]);
        }
        for f in crate::bytecode::HOSTFNS {
            let params = fn_params(f);
            let mut matching = rows.iter().filter(|[call, ..]| {
                call.split_once('(').is_some_and(|(name, args)| {
                    let arity = args
                        .trim_end_matches(')')
                        .split(',')
                        .filter(|a| !a.trim().is_empty());
                    name == f.name() && arity.count() == params.len()
                })
            });
            let Some([call, sig, hooks]) = matching.next() else {
                return Err(format!(
                    "no row for `{}` with arity {}",
                    f.name(),
                    params.len()
                ));
            };
            if matching.next().is_some() {
                return Err(format!("two rows for `{}`", f.name()));
            }
            let want_sig = params
                .iter()
                .map(|t| t.name())
                .chain(["→", fn_ret(f).name()])
                .collect::<Vec<_>>()
                .join(" ");
            if *sig != want_sig {
                return Err(format!(
                    "`{call}`: signature `{sig}`, declared `{want_sig}`"
                ));
            }
            let want_hooks = if pick_next_only(f) {
                "`pick_next`"
            } else {
                "all"
            };
            if *hooks != want_hooks {
                return Err(format!("`{call}`: hooks {hooks}, declared {want_hooks}"));
            }
        }
        if rows.len() != crate::bytecode::HOSTFNS.len() {
            return Err(format!(
                "{} rows for {} host functions",
                rows.len(),
                crate::bytecode::HOSTFNS.len()
            ));
        }
        Ok(())
    }

    #[test]
    fn policy_doc_host_api_table_matches_the_declared_host_functions() {
        let doc = include_str!("../../../docs/POLICY.md");
        check_host_api_table(doc).unwrap();
        // The check has teeth: a deleted, duplicated or mistyped row fails.
        let row = "| `counter(t)` | `task → int` | all | remaining quantum ticks |\n";
        assert!(doc.contains(row), "fixture row moved");
        let deleted = doc.replace(row, "");
        assert!(check_host_api_table(&deleted)
            .unwrap_err()
            .contains("`counter`"));
        let doubled = doc.replace(row, &format!("{row}{row}"));
        assert!(check_host_api_table(&doubled)
            .unwrap_err()
            .contains("two rows"));
        let extra = doc.replace(
            row,
            &format!("{row}| `nice(t)` | `task → int` | all | x |\n"),
        );
        assert!(check_host_api_table(&extra)
            .unwrap_err()
            .contains("15 rows"));
        let retyped = doc.replace(row, &row.replace("`task → int`", "`int → int`"));
        assert!(check_host_api_table(&retyped)
            .unwrap_err()
            .contains("signature"));
    }
}
