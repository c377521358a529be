//! The `.pol` → bytecode compiler.
//!
//! [`compile`] lowers a parsed-and-verified [`Program`] to one
//! [`Chunk`] per hook (see [`crate::bytecode`] for the instruction
//! set). The lowering is a single pass over the AST with:
//!
//! * **watermark register allocation** — every statement's expression
//!   temporaries are allocated above a per-statement watermark and
//!   freed when the statement ends; `let` keeps exactly one register
//!   alive, and block exit frees everything the block declared. The
//!   resulting register-file size is recorded in [`Chunk::num_regs`].
//! * **builtin pre-loading** — the eight context builtins occupy
//!   registers `0..8` and compile to plain register reads (zero ops).
//! * **charge batching** — the interpreter charges one budget unit per
//!   AST node it touches; the compiler accumulates those charges in a
//!   `pending` counter and flushes them into the *next* emitted
//!   instruction's [`cost`](crate::bytecode::Insn::cost) field, so the
//!   VM's instruction count matches the interpreter's at every
//!   side-effecting op and at hook exit. Loop back-edges carry cost 0,
//!   exactly like the interpreter's free `repeat`/`foreach` iteration,
//!   and so does `for.next` — which is what lets `for.begin` jump
//!   straight past an empty list's loop at no change in charge.
//! * **two fusions, each for a measured reason** — the
//!   `can_schedule`-filtered, `goodness`-scored selection loop that
//!   every scoring `pick_next` runs fuses into one native walk,
//!   [`Op::ScanBest`] (a 10 000-task `reg.pol` stress run is about 7×
//!   slower without it). And a `repeat` band walk, `foreach t in
//!   list(X) { … }` then `X = X ± k`, marks its `for.begin` as a seek
//!   ([`Op::ForBegin`]'s `d`), so the VM steps past an empty list with
//!   one native head test instead of three dispatches: ELSC's "never
//!   walk empty lists", which takes `table.pol` from 77.1 to 18.6 dispatches
//!   per decision and `policy-table-10r`'s wall time down by a third.
//!   Both keep the interpreter's per-node charge schedule. Everything
//!   else, other selection loops and walks included, takes the plain
//!   ops.
//! * **literal operands** — a binary expression whose right operand is
//!   an integer literal lowers to one [`Op::BinK`] instead of a `const`
//!   load plus a `bin`, carrying both charges.
//! * **constant pooling** — integer literals and `repeat` counts are
//!   deduplicated into [`Chunk::consts`].
//!
//! The compiler assumes nothing the verifier has not already proven;
//! on malformed input (unbound variables) it returns a spanned
//! [`PolicyError`] rather than panicking.
//!
//! # Example
//!
//! The classic selection loop compiles to one `scan.best`:
//!
//! ```
//! use elsc_policy::{compile, load_str, HookKind};
//!
//! let prog = load_str(
//!     "policy spec_demo\n\
//!      lists 1\n\
//!      hook pick_next {\n\
//!        let best = idle\n\
//!        let c = 0 - 1000\n\
//!        foreach t in list(0) {\n\
//!          if can_schedule(t) {\n\
//!            let g = goodness(t)\n\
//!            if g > c { c = g  best = t }\n\
//!          }\n\
//!        }\n\
//!        if c != 0 { pick best }\n\
//!        pick best\n\
//!      }\n",
//! )
//! .unwrap();
//! let compiled = compile(&prog).unwrap();
//! let chunk = compiled.chunk(HookKind::PickNext).unwrap();
//! assert_eq!(
//!     chunk.disasm(),
//!     "\
//! 000: mov          r8 <- r2                     ; cost 2
//! 001: const        r10 <- 0                     ; cost 3
//! 002: bin.k        r9 <- r10 Sub 1000           ; cost 1
//! 003: const        r10 <- 0                     ; cost 2
//! 004: scan.best    list r10 best r9 win r8      ; cost 0
//! 005: bin.k        r10 <- r9 Ne 0               ; cost 4
//! 006: jz           r10 -> 8                     ; cost 0
//! 007: pick         r8                           ; cost 2
//! 008: pick         r8                           ; cost 2
//! 009: halt                                      ; cost 0
//! "
//! );
//! ```
//!
//! A band walk's `for.begin` is a seek; the `bin.k` and `repeat.next`
//! after its exit still run as plain ops whenever a list held tasks:
//!
//! ```
//! use elsc_policy::{compile, load_str, HookKind};
//!
//! let prog = load_str(
//!     "policy bands\n\
//!      lists 8\n\
//!      hook pick_next {\n\
//!        let b = 7\n\
//!        repeat 8 {\n\
//!          foreach t in list(b) { pick t }\n\
//!          b = b - 1\n\
//!        }\n\
//!        pick idle\n\
//!      }\n",
//! )
//! .unwrap();
//! let compiled = compile(&prog).unwrap();
//! let chunk = compiled.chunk(HookKind::PickNext).unwrap();
//! assert_eq!(
//!     chunk.disasm(),
//!     "\
//! 000: const        r8 <- 7                      ; cost 2
//! 001: repeat.init  r9 <- 8                      ; cost 1
//! 002: for.begin    iter0 list r8 empty -> 6 seek ; cost 2
//! 003: for.next     iter0 r10 else -> 6          ; cost 0
//! 004: pick         r10                          ; cost 2
//! 005: jmp          -> 3                         ; cost 0
//! 006: bin.k        r8 <- r8 Sub 1               ; cost 4
//! 007: repeat.next  r9 -> 2                      ; cost 0
//! 008: pick         r2                           ; cost 2
//! 009: halt                                      ; cost 0
//! "
//! );
//! ```

use crate::ast::{BinOp, Block, Builtin, Expr, HookKind, HostFn, Program, Span, Stmt};
use crate::bytecode::{
    binop_index, hostfn_index, Chunk, CompiledPolicy, Insn, Op, BINOPS, BUILTIN_REGS, NO_ARG,
};
use crate::PolicyError;

/// Placeholder jump target, patched before the chunk is returned.
const PATCH: u16 = u16::MAX;

/// Compiles a verified program to register bytecode, one [`Chunk`] per
/// defined hook.
///
/// The compiled form preserves the interpreter's observable semantics
/// exactly: same decisions, same host-call order, and the same
/// instruction-budget count at every side effect (see
/// [`crate::bytecode::Insn::cost`]). Programs that fail verification
/// should not be compiled; on inputs with unbound names this returns a
/// spanned [`PolicyError`] like the verifier would.
///
/// ```
/// use elsc_policy::{compile, load_str, HookKind};
///
/// let prog = load_str(
///     "policy tiny\nlists 1\nhook pick_next { pick idle }\n",
/// )
/// .unwrap();
/// let compiled = compile(&prog).unwrap();
/// let chunk = compiled.chunk(HookKind::PickNext).unwrap();
/// // `pick idle`: 1 charge for the statement + 1 for the builtin node.
/// assert_eq!(chunk.code[0].cost, 2);
/// assert!(compiled.chunk(HookKind::Enqueue).is_none());
/// ```
pub fn compile(prog: &Program) -> Result<CompiledPolicy, PolicyError> {
    let mut chunks = [None, None, None, None];
    for hook in HookKind::ALL {
        if let Some(body) = prog.hook(hook) {
            chunks[hook.index()] = Some(compile_hook(body)?);
        }
    }
    Ok(CompiledPolicy { chunks })
}

/// Register index of a pre-loaded builtin (declaration order).
fn builtin_reg(b: Builtin) -> u16 {
    match b {
        Builtin::Cpu => 0,
        Builtin::Prev => 1,
        Builtin::Idle => 2,
        Builtin::Task => 3,
        Builtin::Nil => 4,
        Builtin::NrCpus => 5,
        Builtin::NrLists => 6,
        Builtin::NrRunning => 7,
    }
}

fn err(span: Span, msg: impl Into<String>) -> PolicyError {
    PolicyError {
        span,
        msg: msg.into(),
    }
}

/// Break targets of one loop under compilation.
struct LoopCtx {
    /// `Jmp` indices to patch to the loop's exit.
    breaks: Vec<usize>,
}

struct Compiler<'p> {
    code: Vec<Insn>,
    consts: Vec<i64>,
    /// Lexical scopes of named locals; lookups scan inner-to-outer,
    /// newest binding first (matching the interpreter's shadowing).
    scopes: Vec<Vec<(&'p str, u16)>>,
    /// Next free register.
    next_reg: u16,
    /// High-water mark for [`Chunk::num_regs`].
    max_reg: u16,
    /// Foreach nesting depth (iterator slot allocation).
    for_depth: u8,
    max_for_depth: u8,
    /// Interpreter charges accumulated since the last emitted op.
    pending: u16,
    loops: Vec<LoopCtx>,
    /// `Jmp` indices from loop-less `break`s, patched to the final halt.
    end_jumps: Vec<usize>,
}

fn compile_hook(body: &Block) -> Result<Chunk, PolicyError> {
    let mut c = Compiler {
        code: Vec::new(),
        consts: Vec::new(),
        scopes: vec![Vec::new()],
        next_reg: BUILTIN_REGS,
        max_reg: BUILTIN_REGS,
        for_depth: 0,
        max_for_depth: 0,
        pending: 0,
        loops: Vec::new(),
        end_jumps: Vec::new(),
    };
    for s in &body.stmts {
        c.stmt(s)?;
    }
    debug_assert_eq!(c.pending, 0, "statements always flush their charges");
    let halt = c.code.len();
    for j in std::mem::take(&mut c.end_jumps) {
        c.code[j].a = halt as u16;
    }
    c.emit(Op::Halt, 0, 0, 0, 0);
    debug_assert!(c.code.iter().all(|i| {
        !matches!(
            i.op,
            Op::Jmp | Op::Jz | Op::RepeatNext | Op::ForBegin | Op::ForNext
        ) || (i.a != PATCH && i.b != PATCH && i.c != PATCH)
    }));
    Ok(Chunk {
        code: c.code,
        consts: c.consts,
        num_regs: c.max_reg,
        num_iters: c.max_for_depth,
    })
}

impl<'p> Compiler<'p> {
    fn emit(&mut self, op: Op, a: u16, b: u16, c: u16, d: u16) -> usize {
        let cost = std::mem::take(&mut self.pending);
        self.code.push(Insn {
            op,
            cost,
            a,
            b,
            c,
            d,
        });
        self.code.len() - 1
    }

    /// Emits at cost 0, leaving pending charges for the next op (loop
    /// back-edges and `for.next`: iteration is free in the interpreter).
    fn emit_free(&mut self, op: Op, a: u16, b: u16, c: u16, d: u16) -> usize {
        self.code.push(Insn {
            op,
            cost: 0,
            a,
            b,
            c,
            d,
        });
        self.code.len() - 1
    }

    fn konst(&mut self, v: i64) -> u16 {
        if let Some(i) = self.consts.iter().position(|&k| k == v) {
            return i as u16;
        }
        self.consts.push(v);
        (self.consts.len() - 1) as u16
    }

    fn alloc(&mut self) -> u16 {
        let r = self.next_reg;
        self.next_reg += 1;
        self.max_reg = self.max_reg.max(self.next_reg);
        r
    }

    fn lookup(&self, name: &str) -> Option<u16> {
        for scope in self.scopes.iter().rev() {
            if let Some(&(_, r)) = scope.iter().rev().find(|(n, _)| *n == name) {
                return Some(r);
            }
        }
        None
    }

    /// Compiles an expression to *some* register: variable and builtin
    /// references resolve in place (charging their node, emitting no
    /// op); anything else lands in a fresh temporary.
    fn operand(&mut self, e: &'p Expr) -> Result<u16, PolicyError> {
        match e {
            Expr::Var(name, span) => {
                self.pending += 1;
                self.lookup(name)
                    .ok_or_else(|| err(*span, format!("unbound variable `{name}`")))
            }
            Expr::Builtin(b, _) => {
                self.pending += 1;
                Ok(builtin_reg(*b))
            }
            _ => {
                let dst = self.alloc();
                self.expr_into(e, dst)?;
                Ok(dst)
            }
        }
    }

    /// Compiles an expression into a specific register, charging each
    /// AST node exactly once (pre-order), as the interpreter does.
    fn expr_into(&mut self, e: &'p Expr, dst: u16) -> Result<(), PolicyError> {
        match e {
            Expr::Int(v, _) => {
                self.pending += 1;
                let k = self.konst(*v);
                self.emit(Op::Const, dst, k, 0, 0);
            }
            Expr::Var(name, span) => {
                self.pending += 1;
                let src = self
                    .lookup(name)
                    .ok_or_else(|| err(*span, format!("unbound variable `{name}`")))?;
                self.emit(Op::Mov, dst, src, 0, 0);
            }
            Expr::Builtin(b, _) => {
                self.pending += 1;
                self.emit(Op::Mov, dst, builtin_reg(*b), 0, 0);
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                self.pending += 1;
                let l = self.operand(lhs)?;
                if let Expr::Int(v, _) = **rhs {
                    // The literal's node charge rides on the `bin.k`.
                    self.pending += 1;
                    let k = self.konst(v);
                    self.emit(Op::BinK, dst, l, k, binop_index(*op));
                } else {
                    let r = self.operand(rhs)?;
                    self.emit(Op::Bin, dst, l, r, binop_index(*op));
                }
            }
            Expr::Call { func, args, .. } => {
                self.pending += 1;
                // The interpreter evaluates (and charges) only the
                // first argument; the verifier has pinned the arity.
                let arg = match args.first() {
                    Some(a) => self.operand(a)?,
                    None => NO_ARG,
                };
                self.emit(Op::Call, dst, arg, 0, hostfn_index(*func));
            }
        }
        Ok(())
    }

    fn block(&mut self, b: &'p Block) -> Result<(), PolicyError> {
        let mark = self.next_reg;
        self.scopes.push(Vec::new());
        for s in &b.stmts {
            self.stmt(s)?;
        }
        self.scopes.pop();
        self.next_reg = mark;
        Ok(())
    }

    fn stmt(&mut self, s: &'p Stmt) -> Result<(), PolicyError> {
        let mark = self.next_reg;
        match s {
            Stmt::Let { name, expr, .. } => {
                self.pending += 1;
                let dst = self.alloc();
                self.expr_into(expr, dst)?;
                // Bind after the initializer, like the interpreter: the
                // initializer cannot see the name it defines.
                self.scopes
                    .last_mut()
                    .expect("scope stack never empty")
                    .push((name, dst));
                self.next_reg = dst + 1; // free initializer temps, keep dst
                return Ok(());
            }
            Stmt::Assign { name, expr, span } => {
                self.pending += 1;
                let dst = self
                    .lookup(name)
                    .ok_or_else(|| err(*span, format!("unbound variable `{name}`")))?;
                self.expr_into(expr, dst)?;
            }
            Stmt::If {
                cond, then, els, ..
            } => {
                self.if_stmt(cond, then, els.as_ref())?;
            }
            Stmt::Repeat { count, body, .. } => {
                self.pending += 1;
                let ctr = self.alloc();
                let k = self.konst(i64::from(*count));
                self.emit(Op::RepeatInit, ctr, k, 0, 0);
                let head = self.code.len() as u16;
                self.loops.push(LoopCtx { breaks: Vec::new() });
                self.block(body)?;
                // Back-edge: iteration itself is free in the interpreter.
                let next = self.emit_free(Op::RepeatNext, ctr, head, 0, 0);
                self.mark_band_seek(usize::from(head), next);
                let exit = self.code.len() as u16;
                for j in self.loops.pop().expect("pushed above").breaks {
                    self.code[j].a = exit;
                }
            }
            Stmt::Foreach {
                var, list, body, ..
            } => {
                if self.try_fuse_scan(var, list, body)? {
                    self.next_reg = mark;
                    return Ok(());
                }
                self.pending += 1;
                let list_reg = self.operand(list)?;
                let slot = self.for_depth;
                self.for_depth += 1;
                self.max_for_depth = self.max_for_depth.max(self.for_depth);
                let begin = self.emit(Op::ForBegin, u16::from(slot), list_reg, PATCH, 0);
                let var_reg = self.alloc();
                let head = self.code.len() as u16;
                let next = self.emit_free(Op::ForNext, u16::from(slot), var_reg, PATCH, 0);
                self.loops.push(LoopCtx { breaks: Vec::new() });
                // The loop variable and the body share one scope, as in
                // the interpreter's per-iteration frame.
                self.scopes.push(vec![(var.as_str(), var_reg)]);
                for st in &body.stmts {
                    self.stmt(st)?;
                }
                self.scopes.pop();
                self.emit_free(Op::Jmp, head, 0, 0, 0);
                let exit = self.code.len() as u16;
                self.code[begin].c = exit;
                self.code[next].c = exit;
                for j in self.loops.pop().expect("pushed above").breaks {
                    self.code[j].a = exit;
                }
                self.for_depth -= 1;
            }
            Stmt::Break { .. } => {
                self.pending += 1;
                let j = self.emit(Op::Jmp, PATCH, 0, 0, 0);
                match self.loops.last_mut() {
                    Some(l) => l.breaks.push(j),
                    // `break` outside any loop unwinds to the end of the
                    // hook in the interpreter; jump to the final halt.
                    None => self.end_jumps.push(j),
                }
            }
            Stmt::Pick { expr, .. } => {
                self.pending += 1;
                let r = self.operand(expr)?;
                self.emit(Op::Pick, r, 0, 0, 0);
            }
            Stmt::Place { front, list, .. } => {
                self.pending += 1;
                let r = self.operand(list)?;
                self.emit(Op::Place, r, u16::from(*front), 0, 0);
            }
            Stmt::Requeue { task, .. } => {
                self.pending += 1;
                let r = self.operand(task)?;
                self.emit(Op::Requeue, r, 0, 0, 0);
            }
            Stmt::SetCounter { task, value, .. } => {
                self.pending += 1;
                let t = self.operand(task)?;
                let v = self.operand(value)?;
                self.emit(Op::SetCounter, t, v, 0, 0);
            }
            Stmt::Recalc { .. } => {
                self.pending += 1;
                self.emit(Op::Recalc, 0, 0, 0, 0);
            }
        }
        self.next_reg = mark;
        Ok(())
    }

    fn if_stmt(
        &mut self,
        cond: &'p Expr,
        then: &'p Block,
        els: Option<&'p Block>,
    ) -> Result<(), PolicyError> {
        self.pending += 1;
        let c = self.operand(cond)?;
        let jz = self.emit(Op::Jz, c, PATCH, 0, 0);
        self.block(then)?;
        match els {
            Some(e) => {
                let jend = self.emit_free(Op::Jmp, PATCH, 0, 0, 0);
                self.code[jz].b = self.code.len() as u16;
                self.block(e)?;
                self.code[jend].a = self.code.len() as u16;
            }
            None => {
                self.code[jz].b = self.code.len() as u16;
            }
        }
        Ok(())
    }

    /// Marks the `for.begin` at a `repeat` body's `head` as a band walk
    /// ([`Op::ForBegin`] with `d == 1`) when the body is exactly
    /// `foreach t in list(X) { … }  X = X ± k`: the loop's exit is a
    /// `bin.k` stepping `X` in place by a literal, and right after it
    /// sits this repeat's `repeat.next` (at `next`), looping back to the
    /// `for.begin` on a counter that is not `X`. Any other body — a
    /// guarded or computed list index, a fused `scan.best`, another
    /// step or a statement after it — keeps the plain lowering.
    fn mark_band_seek(&mut self, head: usize, next: usize) {
        let fb = self.code[head];
        if fb.op != Op::ForBegin {
            return;
        }
        let exit = usize::from(fb.c);
        let (step, back) = (self.code[exit], self.code[next]);
        let shape = step.op == Op::BinK
            && step.a == fb.b
            && step.b == fb.b
            && matches!(BINOPS[usize::from(step.d)], BinOp::Add | BinOp::Sub)
            && exit + 1 == next
            && usize::from(back.b) == head
            && back.a != fb.b;
        if shape {
            self.code[head].d = 1;
        }
    }

    /// Tries to fuse an entire selection loop into one [`Op::ScanBest`]
    /// dispatch — the shape every scoring `pick_next` takes:
    ///
    /// ```text
    /// foreach t in list(L) {
    ///     if can_schedule(t) {
    ///         let g = goodness(t)
    ///         if g > C { C = g  B = t }
    ///     }
    /// }
    /// ```
    ///
    /// All name comparisons are syntactic so shadowing (`C` or `B`
    /// reusing the loop variable's or `g`'s name) falls back to the
    /// general lowering, where scoping is handled structurally.
    fn try_fuse_scan(
        &mut self,
        var: &'p str,
        list: &'p Expr,
        body: &'p Block,
    ) -> Result<bool, PolicyError> {
        let [Stmt::If {
            cond,
            then,
            els: None,
            ..
        }] = body.stmts.as_slice()
        else {
            return Ok(false);
        };
        let Expr::Call {
            func: HostFn::CanSchedule,
            args,
            ..
        } = cond
        else {
            return Ok(false);
        };
        let [Expr::Var(fa, _)] = args.as_slice() else {
            return Ok(false);
        };
        let [Stmt::Let {
            name: g, expr: ge, ..
        }, Stmt::If {
            cond: cmp,
            then: upd,
            els: None,
            ..
        }] = then.stmts.as_slice()
        else {
            return Ok(false);
        };
        let Expr::Call {
            func: HostFn::Goodness,
            args: sargs,
            ..
        } = ge
        else {
            return Ok(false);
        };
        let [Expr::Var(sa, _)] = sargs.as_slice() else {
            return Ok(false);
        };
        let Expr::Binary {
            op: BinOp::Gt,
            lhs,
            rhs,
            ..
        } = cmp
        else {
            return Ok(false);
        };
        let (Expr::Var(gl, _), Expr::Var(cn, _)) = (lhs.as_ref(), rhs.as_ref()) else {
            return Ok(false);
        };
        let [Stmt::Assign {
            name: a1, expr: e1, ..
        }, Stmt::Assign {
            name: a2, expr: e2, ..
        }] = upd.stmts.as_slice()
        else {
            return Ok(false);
        };
        let (Expr::Var(s1, _), Expr::Var(s2, _)) = (e1, e2) else {
            return Ok(false);
        };
        let shape = fa == var
            && sa == var
            && g != var
            && gl == g
            && cn != g
            && cn != var
            && a1 == cn
            && s1 == g
            && a2 != cn
            && a2 != g
            && a2 != var
            && s2 == var;
        if !shape {
            return Ok(false);
        }
        let (Some(c_reg), Some(b_reg)) = (self.lookup(cn), self.lookup(a2)) else {
            return Ok(false);
        };
        if c_reg == b_reg {
            return Ok(false);
        }
        // Committed: the foreach statement + the list-index expression
        // charge up front; the per-task schedule is the op's own.
        self.pending += 1;
        let list_reg = self.operand(list)?;
        self.emit(Op::ScanBest, list_reg, c_reg, b_reg, 0);
        Ok(true)
    }
}
