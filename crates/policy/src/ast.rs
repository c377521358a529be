//! The policy IR: the abstract syntax the parser produces and the
//! verifier/interpreter consume.

/// A 1-based source position, carried by every token, statement, and
/// expression so diagnostics can point at the offending spot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Span {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl Span {
    /// Builds a span.
    pub fn new(line: u32, col: u32) -> Span {
        Span { line, col }
    }
}

/// The four hooks a policy may define (the kernel entry points the paper
/// changed, minus the two `move_*` bias ops, which stay host-managed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HookKind {
    /// Runs when a task is placed on the run queue; must decide a list
    /// and an end (`enqueue_front`/`enqueue_back`).
    Enqueue,
    /// Runs inside `schedule()`; must reach a `pick`.
    PickNext,
    /// Runs on each timer tick on a busy CPU (`task` = the running task).
    Tick,
    /// Runs once per task, before its first enqueue (`task` = the child).
    OnFork,
}

impl HookKind {
    /// All hooks, in fixed order (indexes into [`Program::hooks`]).
    pub const ALL: [HookKind; 4] = [
        HookKind::Enqueue,
        HookKind::PickNext,
        HookKind::Tick,
        HookKind::OnFork,
    ];

    /// The hook's source-level name.
    pub fn name(self) -> &'static str {
        match self {
            HookKind::Enqueue => "enqueue",
            HookKind::PickNext => "pick_next",
            HookKind::Tick => "tick",
            HookKind::OnFork => "on_fork",
        }
    }

    /// Index into [`Program::hooks`].
    pub fn index(self) -> usize {
        match self {
            HookKind::Enqueue => 0,
            HookKind::PickNext => 1,
            HookKind::Tick => 2,
            HookKind::OnFork => 3,
        }
    }

    /// Parses a hook name.
    pub fn from_name(s: &str) -> Option<HookKind> {
        HookKind::ALL.iter().copied().find(|h| h.name() == s)
    }
}

/// How many run-queue lists the policy wants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ListsDecl {
    /// A fixed bank of `n` lists (1..=64).
    Fixed(usize),
    /// One list per CPU (`nr_lists == nr_cpus` at load time).
    PerCpu,
}

impl ListsDecl {
    /// Resolves the declaration to a concrete list count.
    pub fn count(self, nr_cpus: usize) -> usize {
        match self {
            ListsDecl::Fixed(n) => n,
            ListsDecl::PerCpu => nr_cpus,
        }
    }
}

/// A parsed (not yet verified) policy program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    /// Declared name (`policy <name>`), used in reports as
    /// `policy:<name>`.
    pub name: String,
    /// List-bank declaration.
    pub lists: ListsDecl,
    /// Hook bodies, indexed by [`HookKind::index`]; `None` = not defined.
    pub hooks: [Option<Block>; 4],
    /// Static instruction count per hook, filled in by the verifier
    /// (zero until verified).
    pub static_insns: [u64; 4],
}

impl Program {
    /// The body of `hook`, if defined.
    pub fn hook(&self, hook: HookKind) -> Option<&Block> {
        self.hooks[hook.index()].as_ref()
    }

    /// Total static instruction count across all hooks (after
    /// verification).
    pub fn total_static_insns(&self) -> u64 {
        self.static_insns.iter().sum()
    }
}

/// A `{ ... }` statement sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// The statements, in order.
    pub stmts: Vec<Stmt>,
}

/// One statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stmt {
    /// `let x = expr` — declares a local.
    Let {
        /// Variable name.
        name: String,
        /// Initializer.
        expr: Expr,
        /// Source position.
        span: Span,
    },
    /// `x = expr` — assigns an existing local.
    Assign {
        /// Variable name.
        name: String,
        /// New value.
        expr: Expr,
        /// Source position.
        span: Span,
    },
    /// `if expr { ... } else { ... }` (condition is an int; nonzero =
    /// true).
    If {
        /// Condition.
        cond: Expr,
        /// Then-branch.
        then: Block,
        /// Optional else-branch.
        els: Option<Block>,
        /// Source position.
        span: Span,
    },
    /// `repeat N { ... }` — a literal-bounded loop.
    Repeat {
        /// Literal iteration count (verifier: 1..=1024).
        count: u32,
        /// Loop body.
        body: Block,
        /// Source position.
        span: Span,
    },
    /// `foreach t in list(expr) { ... }` — iterate a snapshot of one
    /// run-queue list, front to back.
    Foreach {
        /// Loop variable (task-typed).
        var: String,
        /// List index expression (taken modulo `nr_lists`).
        list: Expr,
        /// Loop body.
        body: Block,
        /// Source position.
        span: Span,
    },
    /// `break` — leaves the innermost loop.
    Break {
        /// Source position.
        span: Span,
    },
    /// `pick expr` — ends `pick_next` with the chosen task.
    Pick {
        /// The chosen task.
        expr: Expr,
        /// Source position.
        span: Span,
    },
    /// `enqueue_front(expr)` / `enqueue_back(expr)` — decide the enqueue
    /// placement (list index, end). The host performs the actual insert
    /// after the hook completes; the last placement executed wins.
    Place {
        /// Front (true) or back (false) of the list.
        front: bool,
        /// List index expression (taken modulo `nr_lists`).
        list: Expr,
        /// Source position.
        span: Span,
    },
    /// `requeue_back(expr)` — ask the host to move a task to the back of
    /// its current list *after* the decision completes (`pick_next`
    /// only). This is how a policy expresses rotation: `pick` itself
    /// never reorders a list (the baseline keeps picked tasks in place),
    /// so a round-robin policy requeues the task it is about to pick.
    Requeue {
        /// The task to move.
        task: Expr,
        /// Source position.
        span: Span,
    },
    /// `set_counter(task, expr)` — overwrite a task's quantum counter,
    /// clamped to `[0, 2 * priority]` (`tick`/`on_fork` hooks only).
    SetCounter {
        /// The task.
        task: Expr,
        /// The new counter value.
        value: Expr,
        /// Source position.
        span: Span,
    },
    /// `recalc()` — run the system-wide counter-recalculation loop
    /// (charged per live task, exactly like the native schedulers).
    Recalc {
        /// Source position.
        span: Span,
    },
}

impl Stmt {
    /// The statement's source position.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Let { span, .. }
            | Stmt::Assign { span, .. }
            | Stmt::If { span, .. }
            | Stmt::Repeat { span, .. }
            | Stmt::Foreach { span, .. }
            | Stmt::Break { span }
            | Stmt::Pick { span, .. }
            | Stmt::Place { span, .. }
            | Stmt::Requeue { span, .. }
            | Stmt::SetCounter { span, .. }
            | Stmt::Recalc { span } => *span,
        }
    }
}

/// Binary operators (comparisons yield 0/1 ints).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (division by zero yields 0 — total semantics).
    Div,
    /// `%` (modulo zero yields 0 — total semantics).
    Mod,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// The host functions a policy may call. Signatures are fixed; the
/// verifier checks arity and argument types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostFn {
    /// `goodness(t)` — full dynamic goodness of `t` against the deciding
    /// CPU and `prev`'s mm; charges one `GoodnessEval` and counts one
    /// examined task (`pick_next` only).
    Goodness,
    /// `prev_goodness()` — goodness of `prev`, consuming its
    /// `SCHED_YIELD` bit on first call (returns 0 that once); charges
    /// like `goodness` (`pick_next` only).
    PrevGoodness,
    /// `static_goodness(t)` — `counter + priority` (free).
    StaticGoodness,
    /// `counter(t)` — remaining quantum ticks.
    Counter,
    /// `priority(t)` — static priority.
    Priority,
    /// `rt_priority(t)` — real-time priority.
    RtPriority,
    /// `is_rt(t)` — 1 for `SCHED_FIFO`/`SCHED_RR` tasks.
    IsRt,
    /// `processor(t)` — the CPU the task last ran on.
    Processor,
    /// `same_mm(t)` — 1 if `t` shares `prev`'s address space
    /// (`pick_next` only).
    SameMm,
    /// `has_cpu(t)` — 1 while `t` executes on a processor.
    HasCpu,
    /// `runnable(t)` — 1 if `t` is a live, runnable, non-idle task.
    Runnable,
    /// `can_schedule(t)` — the kernel's scan filter: SMP skips tasks
    /// running anywhere, UP skips only `prev` (`pick_next` only).
    CanSchedule,
    /// `list_len(i)` — tasks currently linked in list `i`.
    ListLen,
    /// `list_head(i)` — first task of list `i`, or `nil`.
    ListHead,
}

impl HostFn {
    /// Resolves a source name.
    pub fn from_name(s: &str) -> Option<HostFn> {
        Some(match s {
            "goodness" => HostFn::Goodness,
            "prev_goodness" => HostFn::PrevGoodness,
            "static_goodness" => HostFn::StaticGoodness,
            "counter" => HostFn::Counter,
            "priority" => HostFn::Priority,
            "rt_priority" => HostFn::RtPriority,
            "is_rt" => HostFn::IsRt,
            "processor" => HostFn::Processor,
            "same_mm" => HostFn::SameMm,
            "has_cpu" => HostFn::HasCpu,
            "runnable" => HostFn::Runnable,
            "can_schedule" => HostFn::CanSchedule,
            "list_len" => HostFn::ListLen,
            "list_head" => HostFn::ListHead,
            _ => return None,
        })
    }

    /// The function's source name.
    pub fn name(self) -> &'static str {
        match self {
            HostFn::Goodness => "goodness",
            HostFn::PrevGoodness => "prev_goodness",
            HostFn::StaticGoodness => "static_goodness",
            HostFn::Counter => "counter",
            HostFn::Priority => "priority",
            HostFn::RtPriority => "rt_priority",
            HostFn::IsRt => "is_rt",
            HostFn::Processor => "processor",
            HostFn::SameMm => "same_mm",
            HostFn::HasCpu => "has_cpu",
            HostFn::Runnable => "runnable",
            HostFn::CanSchedule => "can_schedule",
            HostFn::ListLen => "list_len",
            HostFn::ListHead => "list_head",
        }
    }
}

/// The context-provided named values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Builtin {
    /// The deciding CPU (`pick_next`, `tick`).
    Cpu,
    /// The outgoing task (`pick_next`).
    Prev,
    /// This CPU's idle task (`pick_next`); picking it idles the CPU.
    Idle,
    /// The subject task (`enqueue`, `tick`, `on_fork`).
    Task,
    /// The null task handle.
    Nil,
    /// Number of CPUs.
    NrCpus,
    /// Number of run-queue lists in this policy's bank.
    NrLists,
    /// Tasks currently accounted to the run queue.
    NrRunning,
}

impl Builtin {
    /// Resolves a source name.
    pub fn from_name(s: &str) -> Option<Builtin> {
        Some(match s {
            "cpu" => Builtin::Cpu,
            "prev" => Builtin::Prev,
            "idle" => Builtin::Idle,
            "task" => Builtin::Task,
            "nil" => Builtin::Nil,
            "nr_cpus" => Builtin::NrCpus,
            "nr_lists" => Builtin::NrLists,
            "nr_running" => Builtin::NrRunning,
            _ => return None,
        })
    }

    /// The builtin's source name.
    pub fn name(self) -> &'static str {
        match self {
            Builtin::Cpu => "cpu",
            Builtin::Prev => "prev",
            Builtin::Idle => "idle",
            Builtin::Task => "task",
            Builtin::Nil => "nil",
            Builtin::NrCpus => "nr_cpus",
            Builtin::NrLists => "nr_lists",
            Builtin::NrRunning => "nr_running",
        }
    }
}

/// One expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr {
    /// An integer literal.
    Int(i64, Span),
    /// A local variable reference.
    Var(String, Span),
    /// A context-provided value.
    Builtin(Builtin, Span),
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Source position.
        span: Span,
    },
    /// A host-function call.
    Call {
        /// The function.
        func: HostFn,
        /// Arguments.
        args: Vec<Expr>,
        /// Source position.
        span: Span,
    },
}

impl Expr {
    /// The expression's source position.
    pub fn span(&self) -> Span {
        match self {
            Expr::Int(_, s) | Expr::Var(_, s) | Expr::Builtin(_, s) => *s,
            Expr::Binary { span, .. } | Expr::Call { span, .. } => *span,
        }
    }
}
