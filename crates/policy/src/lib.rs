//! `elsc-policy`: a verified, hot-swappable scheduling-policy runtime.
//!
//! The paper's thesis is that scheduling *policy* — the goodness split,
//! the 30-list table — is worth iterating on quickly. In this repo every
//! other policy is a compiled-in Rust struct; this crate makes new
//! policies **text files**. A `.pol` program defines up to four hooks
//! (`enqueue`, `pick_next`, `tick`, `on_fork`) over a bounded host API
//! (per-CPU list ops, static/dynamic goodness terms, counter access), in
//! the spirit of sched_ext/Ekiben's loadable, verified schedulers:
//!
//! ```text
//! policy rr
//! lists percpu
//!
//! hook enqueue {
//!     enqueue_back(processor(task))
//! }
//!
//! hook pick_next {
//!     foreach t in list(cpu) {
//!         if can_schedule(t) { pick t }
//!     }
//!     pick idle
//! }
//! ```
//!
//! Three guarantees make this safe to run inside the deterministic
//! machine:
//!
//! 1. **Load-time verification** ([`verify()`]): programs are type-checked
//!    (int vs. task-handle values), loops are bounded (`repeat` takes a
//!    literal count; nesting is capped), each hook's *static* instruction
//!    count must fit a budget, `pick_next` provably reaches a `pick`, and
//!    `enqueue` provably places the task. Malformed programs are rejected
//!    with a line/column diagnostic ([`PolicyError`]) — never a panic.
//! 2. **Cycle-charged execution** ([`sched`], [`mod@vm`]): every executed
//!    IR node charges one `CostKind::PolicyInsn` into the simcore cycle
//!    model, so loaded policies pay a realistic overhead in every
//!    figure. A runtime per-decision instruction budget bounds even
//!    verified programs; blowing it aborts the hook with a safe default.
//! 3. **Watchdog ejection** (machine-side): a policy that blows its
//!    budget, picks a non-runnable task, or starves a non-empty queue for
//!    K consecutive decisions is deterministically ejected — the machine
//!    swaps in the vanilla baseline scheduler mid-run and the run
//!    completes with conservation intact.
//!
//! Verified programs execute on the register bytecode VM produced by
//! [`compile()`] — see [`mod@bytecode`] for the instruction set and
//! `docs/POLICY.md` at the repository root for the full language
//! reference (grammar, host API, cost model, and the bytecode lowering
//! appendix). The original tree-walking interpreter is the executable
//! reference semantics: it is built only under `cfg(test)` or the
//! test-only `interp-reference` feature, where the differential suites
//! hold the VM to it decision for decision and charge for charge.
//!
//! The bundled `policies/reg.pol` is decision-for-decision identical to
//! the native baseline scheduler, proven by the chaos oracle in strict
//! mode (`elsc-sim ... --sched policy:policies/reg.pol --oracle`).
#![deny(missing_docs)]

pub mod ast;
pub mod bytecode;
pub mod compile;
#[cfg(any(test, feature = "interp-reference"))]
mod interp;
pub mod lex;
pub mod parse;
pub mod sched;
pub mod verify;
pub mod vm;

pub use ast::{Block, Expr, HookKind, ListsDecl, Program, Span, Stmt};
pub use bytecode::{Chunk, CompiledPolicy, Insn, Op};
pub use compile::compile;
pub use parse::parse;
pub use sched::{PolicyScheduler, PolicyViolation, DEFAULT_BUDGET};
pub use verify::verify;

use core::fmt;

/// A load-time diagnostic: what is wrong with a `.pol` program and where.
///
/// Every lexer, parser, and verifier rejection carries the 1-based line
/// and column of the offending token, so the CLI can print
/// `reg.pol:12:5: unknown function 'godness'` instead of panicking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PolicyError {
    /// Where the problem is.
    pub span: Span,
    /// Human-readable description.
    pub msg: String,
}

impl PolicyError {
    /// Builds an error at `span`.
    pub fn new(span: Span, msg: impl Into<String>) -> Self {
        PolicyError {
            span,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.span.line, self.span.col, self.msg)
    }
}

impl std::error::Error for PolicyError {}

/// Parses **and** verifies a `.pol` source string: the single entry point
/// loaders should use. Returns the executable program or the first
/// diagnostic.
///
/// ```
/// let src = "policy demo\nlists 1\nhook pick_next { pick idle }\n";
/// let prog = elsc_policy::load_str(src).expect("valid program");
/// assert_eq!(prog.name, "demo");
/// let bad = elsc_policy::load_str("policy demo\nlists 1\nhook pick_next { }\n");
/// assert!(bad.is_err());
/// ```
pub fn load_str(src: &str) -> Result<Program, PolicyError> {
    let mut prog = parse::parse(src)?;
    verify::verify(&mut prog)?;
    Ok(prog)
}
