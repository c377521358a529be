//! The event loop: the queue of [`Event`]s, the dispatcher that turns a
//! popped event into a handler call, and the ways of driving it —
//! [`Machine::run`] to completion, federated stepping (`start` /
//! `step_until` / `finish`) and the external injection points the cluster
//! tier uses between steps. Both drivers share `dispatch_event` verbatim,
//! which is why a one-node cluster is byte-identical to a plain run.

use elsc_ktask::{CpuId, Tid};
use elsc_netsim::{Msg, PipeId};
use elsc_obs::ObsEvent;
use elsc_simcore::Cycles;

use crate::machine::{Machine, RunError, StepStatus};
use crate::report::RunReport;

/// Simulation events.
#[derive(Debug)]
pub(crate) enum Event {
    /// Periodic 10 ms timer interrupt on one CPU.
    Tick { cpu: CpuId },
    /// The current compute segment of `cpu` ends (cancellable via `gen`).
    Resume { cpu: CpuId, gen: u64 },
    /// Reschedule interrupt (wakeup placement decided this CPU should
    /// call `schedule()`).
    Ipi { cpu: CpuId },
    /// A sleeping task's timer expires.
    Timer { tid: Tid },
    /// An inter-node message arrives from the cluster fabric (NIC DMA
    /// completion into `pipe`'s socket buffer).
    Net { pipe: PipeId, msg: Msg },
    /// The far end of an inter-node connection closed; the close
    /// propagates to the local ingress pipe.
    NetClose { pipe: PipeId },
}

impl Event {
    fn is_tick(&self) -> bool {
        matches!(self, Event::Tick { .. })
    }
}

impl Machine {
    pub(crate) fn push_event(&mut self, at: Cycles, ev: Event) {
        if !ev.is_tick() {
            self.pending_wakeish += 1;
        }
        self.events.push(at, ev);
    }

    /// Runs the machine until every spawned task has exited.
    ///
    /// # Errors
    ///
    /// [`RunError::Watchdog`] if virtual time exceeds the configured
    /// limit; [`RunError::Deadlock`] if live tasks can never run again.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn run(&mut self) -> Result<RunReport, RunError> {
        assert!(!self.ran, "Machine::run() may only be called once");
        self.ran = true;
        let wall_start = std::time::Instant::now();
        let result = self.run_loop();
        self.wall_secs = wall_start.elapsed().as_secs_f64();
        // Flush external sinks (trace files) even when the run fails —
        // a truncated-but-flushed trace is exactly what you want when
        // debugging a watchdog or deadlock.
        self.bus.finish();
        result.map(|()| self.report())
    }

    /// Pushes the boot events every run starts from: one armed tick and
    /// one reschedule IPI per CPU.
    fn boot_events(&mut self) {
        if let Some(s) = &self.supervision {
            s.announce(&mut self.bus);
        }
        for cpu in 0..self.cfg.nr_cpus() {
            self.push_event(self.cfg.tick_cycles.into(), Event::Tick { cpu });
            self.push_event(Cycles::ZERO, Event::Ipi { cpu });
            self.cpus[cpu].need_resched = true;
        }
    }

    /// Pops nothing — dispatches one already-popped event: advances the
    /// clock, checks the watchdog, and runs the handler. Shared verbatim
    /// by [`Machine::run`] and [`Machine::step_until`] so a single-node
    /// federated run is byte-identical to a plain run.
    fn dispatch_event(&mut self, t: Cycles, ev: Event) -> Result<(), RunError> {
        if !ev.is_tick() {
            self.pending_wakeish -= 1;
        }
        debug_assert!(t >= self.now, "time ran backwards");
        self.now = t;
        if t.get() > self.cfg.max_cycles {
            return Err(RunError::Watchdog { at: t });
        }
        if self.cfg.engine_slowdown > 1 {
            // Wall-clock-only busy work per dispatched event, sized so a
            // factor-F slowdown dominates the real dispatch cost. Burns
            // host time without touching virtual time, the meter, or any
            // simulation state — reports stay byte-identical; only the
            // lab's `wall_ratio` moves (which is the point: the CI engine
            // job injects a 3× here to prove the wall-clock gate trips).
            let mut x = t.get() | 1;
            for i in 0..(self.cfg.engine_slowdown - 1) * 2000 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
            }
            std::hint::black_box(x);
        }
        match ev {
            Event::Tick { cpu } => self.on_tick(cpu),
            Event::Resume { cpu, gen } => self.on_resume(cpu, gen),
            Event::Ipi { cpu } => self.on_ipi(cpu),
            Event::Timer { tid } => {
                self.wake_up(tid, 0, self.now);
            }
            Event::Net { pipe, msg } => self.on_net_arrival(pipe, msg),
            Event::NetClose { pipe } => self.on_net_close(pipe),
        }
        Ok(())
    }

    fn run_loop(&mut self) -> Result<(), RunError> {
        self.boot_events();
        while self.live_users > 0 {
            let Some((t, ev)) = self.events.pop() else {
                return Err(RunError::Deadlock {
                    at: self.now,
                    live: self.live_users,
                });
            };
            self.dispatch_event(t, ev)?;
            if self.live_users > 0 && self.is_wedged() {
                return Err(RunError::Deadlock {
                    at: self.now,
                    live: self.live_users,
                });
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Federated stepping (the cluster tier drives nodes through these)
    // ------------------------------------------------------------------

    /// Boots the machine for externally driven stepping: emits the same
    /// initial events [`Machine::run`] would, without entering the loop.
    /// Pair with [`Machine::step_until`] and [`Machine::finish`].
    ///
    /// # Panics
    ///
    /// Panics if the machine already ran (or started).
    pub fn start(&mut self) {
        assert!(!self.ran, "Machine::start() after a run");
        self.ran = true;
        self.boot_events();
    }

    /// Runs the event loop up to (and including) `barrier`, then pauses.
    ///
    /// Unlike [`Machine::run`], a locally wedged node does *not* error:
    /// ticks keep firing and virtual time keeps advancing to the
    /// barrier, because an inter-node message may arrive next epoch.
    /// Local wedging is reported through [`StepStatus::Paused`] so the
    /// federation can detect a *cluster-wide* deadlock (every node idle,
    /// nothing in flight).
    ///
    /// # Errors
    ///
    /// [`RunError::Watchdog`] when virtual time exceeds the configured
    /// limit — the only per-node failure in step mode.
    pub fn step_until(&mut self, barrier: Cycles) -> Result<StepStatus, RunError> {
        assert!(self.ran, "step_until() before start()");
        while self.live_users > 0 {
            match self.events.peek_time() {
                Some(t) if t <= barrier => {
                    let (t, ev) = self.events.pop().expect("peeked event exists");
                    self.dispatch_event(t, ev)?;
                }
                // The tick re-arms itself unconditionally, so the queue
                // cannot run dry while tasks live; the next event simply
                // lies beyond the barrier.
                _ => {
                    return Ok(StepStatus::Paused {
                        idle: self.is_wedged(),
                    })
                }
            }
        }
        Ok(StepStatus::Done)
    }

    /// Finishes a stepped run: flushes sinks and renders the report.
    /// The step-mode counterpart of the tail of [`Machine::run`].
    pub fn finish(&mut self) -> RunReport {
        assert!(self.ran, "finish() before start()");
        self.bus.finish();
        self.report()
    }

    /// Schedules an inter-node message to arrive in `pipe` at `at` —
    /// the NIC interrupt for a segment the cluster fabric routed here.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in this node's past (the federation must only
    /// schedule arrivals at or after the exchange barrier).
    pub fn inject_external_msg(&mut self, pipe: PipeId, msg: Msg, at: Cycles) {
        assert!(
            at >= self.now,
            "arrival {at:?} before node time {:?}",
            self.now
        );
        self.push_event(at, Event::Net { pipe, msg });
    }

    /// Schedules the far end's close of an inter-node connection to
    /// reach `pipe` at `at` (FIN after the last in-flight segment).
    ///
    /// # Panics
    ///
    /// Panics if `at` is in this node's past.
    pub fn inject_external_close(&mut self, pipe: PipeId, at: Cycles) {
        assert!(
            at >= self.now,
            "close {at:?} before node time {:?}",
            self.now
        );
        self.push_event(at, Event::NetClose { pipe });
    }

    /// Drains every queued message from `pipe` for transmission across
    /// the cluster fabric, waking parked writers at `at` (the NIC pulled
    /// their backlog). Returns the messages and whether the pipe is
    /// closed — a closed-and-drained egress means the connection's FIN
    /// should propagate.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in this node's past.
    pub fn drain_external(&mut self, pipe: PipeId, at: Cycles) -> (Vec<Msg>, bool) {
        assert!(
            at >= self.now,
            "drain {at:?} before node time {:?}",
            self.now
        );
        let mut out = Vec::new();
        while let Ok((msg, waker)) = self.pipes.pipe_mut(pipe).try_read() {
            out.push(msg);
            if let Some(w) = waker {
                self.wake_up(w, 0, at);
            }
        }
        (out, self.pipes.pipe(pipe).is_closed())
    }

    /// Records a node-level fault firing (partition, slow-link,
    /// node-pause) as an observability event at the node's current time.
    pub fn note_fault(&mut self, fault: &'static str) {
        self.emit_fault(self.now, 0, fault);
    }

    /// Records one fault firing on `cpu` as an observability event.
    pub(crate) fn emit_fault(&mut self, at: Cycles, cpu: CpuId, fault: &'static str) {
        self.bus.emit_at(at, ObsEvent::FaultInjected { cpu, fault });
    }

    /// Freezes the whole node for `delta` cycles: every pending event
    /// and every CPU's busy horizon moves `delta` later, like an SMI or
    /// a virtualisation pause. Time spent frozen accrues to whatever
    /// each CPU was doing (`running_since`/`idle_since` deliberately do
    /// not move), exactly as a real stall would be accounted.
    pub fn pause_for(&mut self, delta: u64) {
        self.events.shift_pending(delta);
        for cpu in &mut self.cpus {
            cpu.busy_until += delta;
        }
    }

    /// Delivers an inter-node message into its ingress pipe. Arrival on
    /// a closed pipe drops the segment, as a dead socket would.
    fn on_net_arrival(&mut self, pipe: PipeId, msg: Msg) {
        let now = self.now;
        if let Ok(Some(reader)) = self.pipes.pipe_mut(pipe).deliver(msg) {
            self.wake_up(reader, 0, now);
        }
    }

    /// Applies a propagated close to an ingress pipe and wakes every
    /// task parked on it so it observes the shutdown.
    fn on_net_close(&mut self, pipe: PipeId) {
        let now = self.now;
        for tid in self.pipes.pipe_mut(pipe).close() {
            self.wake_up(tid, 0, now);
        }
    }

    /// True when no task can ever run again: all CPUs idle, nothing on
    /// the run queue, and no pending wake-ish events.
    fn is_wedged(&self) -> bool {
        self.pending_wakeish == 0
            && self.sched.nr_running() == 0
            && self.cpus.iter().all(|c| c.is_idle())
    }
}
