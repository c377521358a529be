//! The register bytecode a verified `.pol` program compiles to.
//!
//! The compiler ([`crate::compile()`]) lowers each hook body to one
//! [`Chunk`]: a flat array of fixed-width instructions over a register
//! file sized at compile time, plus an `i64` constant pool. The VM
//! ([`crate::vm`]) executes chunks with exactly the tree-walking
//! interpreter's observable semantics — see the cost-model notes on
//! [`Insn::cost`] for how charge-for-charge parity is kept.
//!
//! Register-file layout: registers `0..8` are pre-loaded with the eight
//! context builtins in [`crate::ast::Builtin`] declaration order
//! (`cpu`, `prev`, `idle`, `task`, `nil`, `nr_cpus`, `nr_lists`,
//! `nr_running`) — they are invocation constants, so a builtin
//! reference compiles to a plain register read. Locals and expression
//! temporaries live above [`BUILTIN_REGS`].

use crate::ast::{BinOp, HookKind, HostFn};

/// Registers reserved for the pre-loaded context builtins.
pub const BUILTIN_REGS: u16 = 8;

/// Sentinel operand: "no argument register" (argless host calls).
pub const NO_ARG: u16 = u16::MAX;

/// One bytecode operation. Operand meaning is positional over the four
/// `u16` fields of [`Insn`] (`a`, `b`, `c`, `d`); see each variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `r[a] = consts[b]` (an integer literal).
    Const,
    /// `r[a] = r[b]`.
    Mov,
    /// `r[a] = binop(BINOPS[d], r[b], r[c])`.
    Bin,
    /// `r[a] = binop(BINOPS[d], r[b], consts[c])` — a binary expression
    /// whose right operand is an integer literal, in one dispatch. Its
    /// cost is what the `const` + `bin` pair it replaces would have
    /// carried (the literal's load has no side effect to order against).
    BinK,
    /// Unconditional jump to code index `a`.
    Jmp,
    /// Jump to code index `b` when `r[a]` is integer zero.
    Jz,
    /// `r[a] = hostcall(HOSTFNS[d], r[b])`; `b == NO_ARG` for argless
    /// calls (`prev_goodness()`).
    Call,
    /// `r[a] = consts[b]` — initialise a `repeat` loop counter.
    RepeatInit,
    /// `r[a] -= 1`; jump back to code index `b` while `r[a] > 0`.
    RepeatNext,
    /// Point iterator slot `a` at the head of run-queue list `r[b]`
    /// (index taken modulo `nr_lists`), or jump to the loop exit `c`
    /// when that list is empty — skipping the `for.next`, whose cost
    /// is 0, so the charge is the same as falling into it.
    ///
    /// `d == 1` (`seek` in the disassembly) marks the head of a band
    /// walk, `repeat N { foreach t in list(X) { … }  X = X ± k }`: the
    /// compiler has proven that `c` is `bin.k r[b] <- r[b] Add|Sub k`
    /// and that `c + 1` is the enclosing `repeat.next`, which loops
    /// back here on a counter other than `r[b]`. On an empty list the
    /// VM then runs that latch in closed form instead of dispatching
    /// it: per skipped list it charges `bin.k` + `repeat.next`, steps
    /// `X` with `binop`'s wrapping arithmetic and counts the counter
    /// down, leaving past the `repeat.next` when it runs out, else
    /// charges this op again and tests the next head. The budget is
    /// checked at every charge, so the count and the trip point are
    /// those of the three dispatches it replaces.
    ForBegin,
    /// Load the task under iterator slot `a`'s cursor into `r[b]` and
    /// advance the cursor along the live list, or jump to code index `c`
    /// when the walk is done. Hooks never relink a list (placement and
    /// rotation are deferred to the host), so the walk yields exactly
    /// the list's order at hook entry.
    ForNext,
    /// End the hook picking `r[a]` (a task value).
    Pick,
    /// Record placement: list `r[a]` (modulo `nr_lists`), front when
    /// `b == 1`, back when `b == 0`. The last placement executed wins.
    Place,
    /// Append task `r[a]` to the deferred `requeue_back` set (`nil` is
    /// ignored, like the interpreter).
    Requeue,
    /// `set_counter(r[a], r[b])`, clamped to `[0, 2 * priority]`.
    SetCounter,
    /// Run the system-wide counter recalculation (stats + events +
    /// `RecalcPerTask` charges, exactly like the native schedulers).
    Recalc,
    /// End of the hook body (no pick executed).
    Halt,
    /// Superinstruction — the hot `pick_next` selection loop fused into
    /// one native walk. Lowered from exactly this shape, the one every
    /// scoring program uses (any other filter or score takes the plain
    /// ops):
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
    /// Operands: `a` = list-index register, `b` = best-score register
    /// (`C`), `c` = winner register (`B`). Per examined task the VM
    /// charges 3 (filter), then 3 more before the score call, then 4
    /// after it, then 4 when a new best is recorded — the interpreter's
    /// exact per-node schedule, with the budget checked at every
    /// side-effect boundary.
    ScanBest,
}

impl Op {
    /// Fixed-width disassembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Op::Const => "const",
            Op::Mov => "mov",
            Op::Bin => "bin",
            Op::BinK => "bin.k",
            Op::Jmp => "jmp",
            Op::Jz => "jz",
            Op::Call => "call",
            Op::RepeatInit => "repeat.init",
            Op::RepeatNext => "repeat.next",
            Op::ForBegin => "for.begin",
            Op::ForNext => "for.next",
            Op::Pick => "pick",
            Op::Place => "place",
            Op::Requeue => "requeue",
            Op::SetCounter => "set_counter",
            Op::Recalc => "recalc",
            Op::Halt => "halt",
            Op::ScanBest => "scan.best",
        }
    }
}

/// Binary operators by bytecode index (the `d` operand of [`Op::Bin`]
/// and [`Op::BinK`]).
pub const BINOPS: [BinOp; 11] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Mod,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
];

/// Host functions by bytecode index (the `d` operand of [`Op::Call`]).
pub const HOSTFNS: [HostFn; 14] = [
    HostFn::Goodness,
    HostFn::PrevGoodness,
    HostFn::StaticGoodness,
    HostFn::Counter,
    HostFn::Priority,
    HostFn::RtPriority,
    HostFn::IsRt,
    HostFn::Processor,
    HostFn::SameMm,
    HostFn::HasCpu,
    HostFn::Runnable,
    HostFn::CanSchedule,
    HostFn::ListLen,
    HostFn::ListHead,
];

/// Bytecode index of a binary operator (inverse of [`BINOPS`]).
pub(crate) fn binop_index(op: BinOp) -> u16 {
    BINOPS
        .iter()
        .position(|&o| o == op)
        .expect("all ops listed") as u16
}

/// Bytecode index of a host function (inverse of [`HOSTFNS`]).
pub(crate) fn hostfn_index(f: HostFn) -> u16 {
    HOSTFNS
        .iter()
        .position(|&o| o == f)
        .expect("all fns listed") as u16
}

/// One fixed-width instruction: an opcode, a batched instruction-budget
/// charge, and four positional operands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Insn {
    /// The operation.
    pub op: Op,
    /// Interpreter-equivalent instruction charge for reaching this op:
    /// the number of IR nodes the tree-walking interpreter would have
    /// charged on the straight-line path since the previous emitted
    /// instruction, batched here. The VM adds `cost` to its instruction
    /// count *before* executing the op; because only whole instructions
    /// carry side effects, batching pure-node charges this way keeps
    /// the VM charge-for-charge identical to the interpreter at every
    /// observable point (including the exact decision where a budget
    /// blowout aborts the hook).
    pub cost: u16,
    /// First operand.
    pub a: u16,
    /// Second operand.
    pub b: u16,
    /// Third operand.
    pub c: u16,
    /// Fourth operand.
    pub d: u16,
}

/// The compiled form of one hook body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Chunk {
    /// The instruction stream; always ends with a reachable [`Op::Halt`].
    pub code: Vec<Insn>,
    /// Integer constant pool (literals, `bin.k` operands and `repeat`
    /// counts, deduplicated).
    pub consts: Vec<i64>,
    /// Register-file size (builtin registers included).
    pub num_regs: u16,
    /// Foreach iterator slots needed (bounded by the verifier's loop
    /// nesting cap).
    pub num_iters: u8,
}

impl Chunk {
    /// Renders the chunk as human-readable assembly, one instruction
    /// per line: `index: mnemonic operands ; cost N`. The exact format
    /// is shown (and kept in sync by doctest) in
    /// `docs/POLICY.md` — see [`crate::compile()`] for a full example.
    pub fn disasm(&self) -> String {
        use core::fmt::Write;
        let mut out = String::new();
        for (pc, i) in self.code.iter().enumerate() {
            let operands = match i.op {
                Op::Const | Op::RepeatInit => {
                    format!("r{} <- {}", i.a, self.consts[i.b as usize])
                }
                Op::Mov => format!("r{} <- r{}", i.a, i.b),
                Op::Bin => format!("r{} <- r{} {:?} r{}", i.a, i.b, BINOPS[i.d as usize], i.c),
                Op::BinK => format!(
                    "r{} <- r{} {:?} {}",
                    i.a, i.b, BINOPS[i.d as usize], self.consts[i.c as usize]
                ),
                Op::Jmp => format!("-> {}", i.a),
                Op::Jz => format!("r{} -> {}", i.a, i.b),
                Op::Call => {
                    let f = HOSTFNS[i.d as usize].name();
                    if i.b == NO_ARG {
                        format!("r{} <- {f}()", i.a)
                    } else {
                        format!("r{} <- {f}(r{})", i.a, i.b)
                    }
                }
                Op::RepeatNext => format!("r{} -> {}", i.a, i.b),
                Op::ForBegin => format!(
                    "iter{} list r{} empty -> {}{}",
                    i.a,
                    i.b,
                    i.c,
                    if i.d == 1 { " seek" } else { "" }
                ),
                Op::ForNext => format!("iter{} r{} else -> {}", i.a, i.b, i.c),
                Op::Pick | Op::Requeue => format!("r{}", i.a),
                Op::Place => format!("list r{} {}", i.a, if i.b == 1 { "front" } else { "back" }),
                Op::SetCounter => format!("r{} <- r{}", i.a, i.b),
                Op::Recalc | Op::Halt => String::new(),
                Op::ScanBest => format!("list r{} best r{} win r{}", i.a, i.b, i.c),
            };
            let _ = writeln!(
                out,
                "{pc:03}: {:<12} {:<28} ; cost {}",
                i.op.mnemonic(),
                operands,
                i.cost
            );
        }
        out
    }
}

/// A fully compiled policy: one chunk per defined hook.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompiledPolicy {
    /// Chunks indexed by [`HookKind::index`]; `None` = hook not defined.
    pub(crate) chunks: [Option<Chunk>; 4],
}

impl CompiledPolicy {
    /// The compiled body of `hook`, if the program defines it.
    pub fn chunk(&self, hook: HookKind) -> Option<&Chunk> {
        self.chunks[hook.index()].as_ref()
    }
}
