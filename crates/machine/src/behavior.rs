//! Task behaviours: the programs that run on the simulated machine.
//!
//! A behaviour is a coroutine-style state machine. Each time its task is
//! (re)dispatched with no work in flight, the machine calls
//! [`Behavior::resume`], which returns an [`Op`]: *compute this many
//! cycles, then perform this syscall*. Blocking syscalls suspend the task;
//! when it runs again the syscall is retried transparently, and its result
//! is visible through [`SysView`] on the next `resume`.

use elsc_ktask::{TaskSpec, Tid};
use elsc_netsim::{Msg, PipeId};
use elsc_simcore::{Cycles, SimRng};

use crate::report::{Distributions, Ledger};

/// A system call a task performs after its compute burst.
pub enum Syscall {
    /// No syscall: fetch the next op immediately (pure compute phases).
    Nop,
    /// `sys_sched_yield()`: set `SCHED_YIELD` and call `schedule()`.
    Yield,
    /// Terminate the task.
    Exit,
    /// Block for the given number of cycles (timer sleep).
    Sleep(u64),
    /// Blocking read of one message from a pipe.
    Read(PipeId),
    /// Blocking write of a message into a pipe.
    Write(PipeId, Msg),
    /// Close a pipe: every task parked on it (readers *and* writers) is
    /// woken immediately so it can observe `Closed` — tasks must never
    /// stay parked on a dead pipe until the deadlock detector trips.
    Close(PipeId),
    /// Fork a new task running the given behaviour. Boxed: a request is
    /// rare and large, and every task's pending syscall is sized by the
    /// largest variant.
    Spawn(Box<SpawnReq>),
}

impl core::fmt::Debug for Syscall {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Syscall::Nop => write!(f, "Nop"),
            Syscall::Yield => write!(f, "Yield"),
            Syscall::Exit => write!(f, "Exit"),
            Syscall::Sleep(d) => write!(f, "Sleep({d})"),
            Syscall::Read(p) => write!(f, "Read({p:?})"),
            Syscall::Write(p, m) => write!(f, "Write({p:?}, tag={})", m.tag),
            Syscall::Close(p) => write!(f, "Close({p:?})"),
            Syscall::Spawn(_) => write!(f, "Spawn(..)"),
        }
    }
}

/// A request to create a new task.
pub struct SpawnReq {
    /// Kernel-visible attributes of the new task.
    pub spec: TaskSpec,
    /// Its program.
    pub behavior: Box<dyn Behavior>,
}

/// One step of a behaviour: compute, then a syscall.
#[derive(Debug)]
pub struct Op {
    /// Cycles of CPU work before the syscall (clamped to at least 1).
    pub compute: u64,
    /// The syscall to perform afterwards.
    pub then: Syscall,
}

impl Op {
    /// Compute `cycles`, then perform `then`.
    pub fn compute(cycles: u64, then: Syscall) -> Op {
        Op {
            compute: cycles,
            then,
        }
    }

    /// Exit immediately (after a minimal teardown burst).
    pub fn exit() -> Op {
        Op {
            compute: 1,
            then: Syscall::Exit,
        }
    }

    /// Yield the processor after `cycles` of work.
    pub fn yield_after(cycles: u64) -> Op {
        Op {
            compute: cycles,
            then: Syscall::Yield,
        }
    }

    /// Read from `pipe` after `cycles` of work.
    pub fn read_after(cycles: u64, pipe: PipeId) -> Op {
        Op {
            compute: cycles,
            then: Syscall::Read(pipe),
        }
    }

    /// Write `msg` to `pipe` after `cycles` of work.
    pub fn write_after(cycles: u64, pipe: PipeId, msg: Msg) -> Op {
        Op {
            compute: cycles,
            then: Syscall::Write(pipe, msg),
        }
    }

    /// Close `pipe` after `cycles` of work.
    pub fn close_after(cycles: u64, pipe: PipeId) -> Op {
        Op {
            compute: cycles,
            then: Syscall::Close(pipe),
        }
    }

    /// Sleep for `dur` cycles after `cycles` of work.
    pub fn sleep_after(cycles: u64, dur: u64) -> Op {
        Op {
            compute: cycles,
            then: Syscall::Sleep(dur),
        }
    }
}

/// The view of the world a behaviour gets while deciding its next op.
pub struct SysView<'a> {
    /// This task's handle.
    pub tid: Tid,
    /// Current virtual time.
    pub now: Cycles,
    /// Result of the last completed `Read` (`None` after EOF/close).
    pub last_read: Option<Msg>,
    /// Handle of the last task this task spawned.
    pub last_spawned: Option<Tid>,
    /// This task's private deterministic random stream.
    pub rng: &'a mut SimRng,
    /// Shared named counters for workload-level metrics.
    pub ledger: &'a mut Ledger,
    /// Shared sample distributions (latencies, sizes, ...).
    pub dists: &'a mut Distributions,
}

/// A task's program.
pub trait Behavior {
    /// Produces the next op. Called when the task is dispatched with no
    /// compute or syscall in flight; the previous syscall's results are in
    /// `sys`.
    fn resume(&mut self, sys: &mut SysView<'_>) -> Op;
}

/// A behaviour that runs a fixed list of ops then exits — handy in tests.
pub struct Script {
    ops: std::vec::IntoIter<Op>,
}

impl Script {
    /// Creates a script from ops (an `Exit` is appended automatically).
    pub fn new(ops: Vec<Op>) -> Script {
        Script {
            ops: ops.into_iter(),
        }
    }
}

impl Behavior for Script {
    fn resume(&mut self, _sys: &mut SysView<'_>) -> Op {
        self.ops.next().unwrap_or_else(Op::exit)
    }
}

/// A behaviour that spins forever: compute bursts separated by yields.
/// Used by the synthetic stress workload to hold the run-queue length at
/// an exact value.
pub struct Spinner {
    /// Cycles per burst.
    pub burst: u64,
}

impl Behavior for Spinner {
    fn resume(&mut self, _sys: &mut SysView<'_>) -> Op {
        Op::yield_after(self.burst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_builders() {
        let op = Op::exit();
        assert!(matches!(op.then, Syscall::Exit));
        let op = Op::yield_after(5);
        assert_eq!(op.compute, 5);
        assert!(matches!(op.then, Syscall::Yield));
        let op = Op::read_after(3, PipeId(1));
        assert!(matches!(op.then, Syscall::Read(PipeId(1))));
        let op = Op::sleep_after(1, 100);
        assert!(matches!(op.then, Syscall::Sleep(100)));
    }

    #[test]
    fn script_plays_ops_then_exits() {
        let mut rng = SimRng::new(1);
        let mut ledger = Ledger::new();
        let mut dists = Distributions::new();
        let mut sys = SysView {
            tid: Tid::from_raw(0, 0),
            now: Cycles::ZERO,
            last_read: None,
            last_spawned: None,
            rng: &mut rng,
            ledger: &mut ledger,
            dists: &mut dists,
        };
        let mut s = Script::new(vec![Op::yield_after(1), Op::yield_after(2)]);
        assert!(matches!(s.resume(&mut sys).then, Syscall::Yield));
        assert_eq!(s.resume(&mut sys).compute, 2);
        assert!(matches!(s.resume(&mut sys).then, Syscall::Exit));
        assert!(matches!(s.resume(&mut sys).then, Syscall::Exit));
    }

    #[test]
    fn syscall_debug_formats() {
        assert_eq!(format!("{:?}", Syscall::Nop), "Nop");
        assert_eq!(format!("{:?}", Syscall::Sleep(9)), "Sleep(9)");
        assert!(format!("{:?}", Syscall::Write(PipeId(2), Msg::tagged(7))).contains("tag=7"));
    }
}
