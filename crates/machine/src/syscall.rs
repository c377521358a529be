//! Running the current task. [`Machine::run_segments`] is the kernel
//! loop for one CPU: fetch the task's next op, dispatch its compute burst
//! as a `Resume` event, and when a burst completes hand the syscall to
//! [`Machine::handle_syscall`]. The handler only *reports* what happened
//! — the task keeps the CPU, or it yielded, blocked or exited — and the
//! loop alone decides whether to go round again or return to `schedule()`.

use elsc_ktask::{CpuId, TaskState, Tid};
use elsc_netsim::{PipeError, PipeTable};
use elsc_obs::{ObsEvent, Phase};
use elsc_simcore::{CostKind, Cycles};

use crate::behavior::{Op, SysView, Syscall};
use crate::engine::Event;
use crate::machine::{Machine, Pending};

/// What a completed syscall means for the CPU that ran it.
enum SchedulingEvent {
    /// The task keeps the CPU; its time cursor stands here.
    Continue(Cycles),
    /// The task yielded, blocked or exited: call `schedule()` at this
    /// time.
    Reschedule(Cycles),
}

impl Machine {
    /// Runs the current task: dispatch compute segments and execute
    /// completed syscalls until an event is scheduled or the task stops.
    /// Returns `Some(t)` when the CPU must call `schedule()` at `t`.
    pub(crate) fn run_segments(&mut self, cpu: CpuId, mut t: Cycles) -> Option<Cycles> {
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
            let run = self.run_mut(cur);
            let pending = run.pending.as_mut().expect("pending");
            if pending.remaining > 0 {
                // Cold caches after migrating: the first segment runs
                // longer (paper: the 15-point bonus exists to avoid
                // exactly this cost). The cycle count was scaled by
                // topological distance at migration time.
                pending.remaining += std::mem::take(&mut run.migrate_penalty);
                let end = t + pending.remaining;
                self.cpus[cpu].gen += 1;
                let gen = self.cpus[cpu].gen;
                self.cpus[cpu].busy_until = end;
                self.push_event(end, Event::Resume { cpu, gen });
                return None;
            }
            // Segment complete: perform the syscall.
            let Pending { syscall, .. } = run.pending.take().expect("pending");
            match self.handle_syscall(cpu, cur, syscall, t) {
                SchedulingEvent::Continue(at) => t = at,
                SchedulingEvent::Reschedule(at) => return Some(at),
            }
        }
    }

    /// Enters the kernel for a syscall at `t`: charges the fixed entry
    /// cost plus the operation's own (`None` for calls that do nothing
    /// but enter) and returns the time the handler body runs at.
    fn enter_syscall(&mut self, cpu: CpuId, t: Cycles, op: Option<CostKind>) -> Cycles {
        let base = self.charge_cost(cpu, Phase::Syscall, CostKind::SyscallBase);
        let own = op.map_or(0, |kind| self.charge_cost(cpu, Phase::Syscall, kind));
        t + base + own
    }

    /// `sys_sched_yield()`: sets `SCHED_YIELD` on `cur`.
    fn sched_yield(&mut self, cur: Tid, cpu: CpuId) {
        self.tasks.task_mut(cur).policy.yielded = true;
        self.stats.cpu_mut(cpu).yields += 1;
    }

    /// Re-arms `syscall` so it is retried when `cur` next runs.
    fn retry(&mut self, cur: Tid, syscall: Syscall) {
        self.run_mut(cur).pending = Some(Pending {
            remaining: 0,
            syscall,
        });
    }

    /// Wakes every task in `wakers` from `cpu`, threading the time cursor.
    fn wake_all(
        &mut self,
        wakers: impl IntoIterator<Item = Tid>,
        cpu: CpuId,
        mut t: Cycles,
    ) -> Cycles {
        for w in wakers {
            t = self.wake_up(w, cpu, t);
        }
        t
    }

    /// Executes one syscall of `cur` on `cpu` at `t`.
    fn handle_syscall(
        &mut self,
        cpu: CpuId,
        cur: Tid,
        syscall: Syscall,
        t: Cycles,
    ) -> SchedulingEvent {
        use SchedulingEvent::{Continue, Reschedule};
        match syscall {
            Syscall::Nop => Continue(t),
            Syscall::Yield => {
                let t = self.enter_syscall(cpu, t, None);
                self.sched_yield(cur, cpu);
                Reschedule(t)
            }
            Syscall::Exit => {
                let t = self.enter_syscall(cpu, t, Some(CostKind::Exit));
                self.bus.emit_at(t, ObsEvent::Exit { tid: cur });
                self.tasks.task_mut(cur).state = TaskState::Zombie;
                self.live_users -= 1;
                self.last_exit = t;
                self.to_free.push(cur);
                Reschedule(t)
            }
            Syscall::Sleep(d) => {
                let t = self.enter_syscall(cpu, t, None);
                self.bus.emit_at(t, ObsEvent::Block { tid: cur, cpu });
                self.tasks.task_mut(cur).state = TaskState::Interruptible;
                self.push_event(t + d, Event::Timer { tid: cur });
                Reschedule(t)
            }
            Syscall::Read(pipe) => {
                let t = self.enter_syscall(cpu, t, Some(CostKind::PipeOp));
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
                        Continue(self.wake_all(waker, cpu, t))
                    }
                    Err(PipeError::WouldBlock) => {
                        self.retry(cur, Syscall::Read(pipe));
                        self.poll_or_park(cur, cpu, |pipes| pipes.pipe_mut(pipe).readers.park(cur));
                        Reschedule(t)
                    }
                    Err(PipeError::Closed) => {
                        self.pipes.pipe_mut(pipe).readers.unpark(cur);
                        self.run_mut(cur).last_read = None;
                        Continue(t)
                    }
                }
            }
            Syscall::Write(pipe, msg) => {
                let mut t = self.enter_syscall(cpu, t, Some(CostKind::PipeOp));
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
                    self.emit_fault(t, cpu, "peer_reset");
                    // The peer closes the pipe under the conversation:
                    // every parked reader and writer wakes to observe
                    // `Closed`, and the `try_write` below fails like a
                    // real post-reset send.
                    let wakers = self.pipes.pipe_mut(pipe).close();
                    t = self.wake_all(wakers, cpu, t);
                } else if short {
                    self.emit_fault(t, cpu, "short_write");
                    // Retry the write via a yield, like a would-block
                    // poll. Time advanced, so progress is preserved
                    // with probability one for any rate < 1.
                    self.retry(cur, Syscall::Write(pipe, msg));
                    self.sched_yield(cur, cpu);
                    return Reschedule(t);
                }
                match self.pipes.pipe_mut(pipe).try_write(msg) {
                    Ok(waker) => {
                        // finish_wait(), as on the read side.
                        self.pipes.pipe_mut(pipe).writers.unpark(cur);
                        self.run_mut(cur).polls_left = self.cfg.io_poll_yields;
                        Continue(self.wake_all(waker, cpu, t))
                    }
                    Err(PipeError::WouldBlock) => {
                        self.retry(cur, Syscall::Write(pipe, msg));
                        self.poll_or_park(cur, cpu, |pipes| pipes.pipe_mut(pipe).writers.park(cur));
                        Reschedule(t)
                    }
                    Err(PipeError::Closed) => {
                        // Writing to a closed pipe: message dropped.
                        self.pipes.pipe_mut(pipe).writers.unpark(cur);
                        Continue(t)
                    }
                }
            }
            Syscall::Close(pipe) => {
                let t = self.enter_syscall(cpu, t, Some(CostKind::PipeOp));
                // Closing must wake *every* parked reader and writer
                // so each observes `Closed` now — a task parked on a
                // dead pipe would otherwise wedge until the deadlock
                // detector trips.
                let wakers = self.pipes.pipe_mut(pipe).close();
                Continue(self.wake_all(wakers, cpu, t))
            }
            Syscall::Spawn(req) => {
                let t = self.enter_syscall(cpu, t, Some(CostKind::Fork));
                let child = self.spawn_inner(&req.spec, req.behavior);
                let t = self.make_runnable(child, cpu, t);
                self.run_mut(cur).last_spawned = Some(child);
                Continue(t)
            }
        }
    }

    /// Spin-then-block on a would-block I/O operation: while the task has
    /// poll budget left, consume one unit and `sched_yield()` (the
    /// pending syscall retries when the task next runs); once the budget
    /// is spent, park the task via `park` and block.
    fn poll_or_park<F: FnOnce(&mut PipeTable)>(&mut self, cur: Tid, cpu: CpuId, park: F) {
        let polls_left = self.run_ref(cur).polls_left;
        if polls_left > 0 {
            self.run_mut(cur).polls_left = polls_left - 1;
            self.sched_yield(cur, cpu);
        } else {
            self.run_mut(cur).polls_left = self.cfg.io_poll_yields;
            park(&mut self.pipes);
            self.bus
                .emit_at(self.now, ObsEvent::Block { tid: cur, cpu });
            self.tasks.task_mut(cur).state = TaskState::Interruptible;
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
}
