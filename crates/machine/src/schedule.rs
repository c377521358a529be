//! The schedule path: [`Machine::do_schedule`], the six-step pipeline
//! from "this CPU must reschedule" to "the next task is running", and
//! [`Machine::sched_call`], the one place the machine builds a `SchedCtx`
//! and takes run-queue lock domains — every scheduler entry in the crate
//! (the decision, the wakeup enqueue, the policy tick hook, ejection
//! surgery) goes through it. The tick, IPI and resume handlers that lead
//! here and the schedule/run trampoline live here too.

use elsc_ktask::{CpuId, SchedClass, Task, Tid};
use elsc_obs::{ObsEvent, Phase};
use elsc_sched_api::{DomainAcquire, SchedCtx, Scheduler};
use elsc_simcore::{CostKind, CycleMeter, Cycles};

use crate::config::MachineConfig;
use crate::engine::Event;
use crate::machine::{is_idle_task, Machine};
use crate::supervise::Supervision;

/// What the trampoline should do next (avoids unbounded recursion between
/// `schedule` and task execution).
enum Drive {
    Schedule(Cycles),
    RunCurrent(Cycles),
}

/// Whether a timer tick that leaves `task` with this counter must force a
/// reschedule: an expired quantum preempts timesharing tasks and
/// `SCHED_RR`; `SCHED_FIFO` runs until it blocks.
fn quantum_expired(task: &Task) -> bool {
    task.counter == 0 && (!task.policy.class.is_realtime() || task.policy.class == SchedClass::Rr)
}

impl Machine {
    pub(crate) fn on_tick(&mut self, cpu: CpuId) {
        let now = self.now;
        self.stats.cpu_mut(cpu).ticks += 1;
        // Re-arm the periodic tick, optionally jittered by the fault plan
        // (a sloppy timer: the next interrupt lands early or late).
        let period = match self.injector.as_mut() {
            Some(inj) => {
                let (period, jittered) = inj.tick_period(MachineConfig::TICK_CYCLES);
                if jittered {
                    self.emit_fault(now, cpu, "tick_jitter");
                }
                period
            }
            None => MachineConfig::TICK_CYCLES,
        };
        self.events.push(now + period, Event::Tick { cpu });
        // Spurious wakeup: aim a wake_up_process() at a deterministically
        // chosen live task. Waking a non-blocked task must be a no-op;
        // waking a blocked one early is legal but hostile.
        // The candidates are the live non-idle tasks in task-table order;
        // the idle tasks (one per CPU) live as long as the machine, so the
        // count needs no walk, and the victim is only looked for on the
        // rare tick the fault fires.
        let candidates = self.tasks.len() - self.cpus.len();
        if let Some(i) = self
            .injector
            .as_mut()
            .and_then(|inj| inj.spurious_wakeup(candidates))
        {
            let work = self.tasks.iter().map(|t| t.tid);
            let victim = work
                .filter(|&tid| !is_idle_task(&self.cpus, tid))
                .nth(i)
                .expect("fewer non-idle tasks than counted");
            self.emit_fault(now, cpu, "spurious_wakeup");
            self.wake_up(victim, cpu, now);
        }
        let cur = self.cpus[cpu].current;
        if !self.cpus[cpu].is_idle() {
            // Quantum accounting: the timer interrupt decrements the
            // running task's counter (update_process_times).
            let task = self.tasks.task_mut(cur);
            if task.counter > 0 {
                task.counter -= 1;
            }
            if quantum_expired(task) {
                self.cpus[cpu].need_resched = true;
            }
            // The loaded scheduler's tick hook: runs after the machine's
            // own quantum bookkeeping, in interrupt context — no run-queue
            // lock, and its cycles are attributed without advancing the
            // clock. Gated on a live supervised scheduler, so native runs
            // never see the extra call.
            if self.supervision.as_ref().is_some_and(Supervision::live) {
                self.sched_call(None, cpu, now, Phase::Schedule, |sched, ctx| {
                    if let Some(s) = sched.supervised() {
                        s.on_tick(ctx, cpu, cur);
                    }
                });
                // The hook may have zeroed the running task's counter;
                // honour the expired quantum exactly as above.
                if quantum_expired(self.tasks.task(cur)) {
                    self.cpus[cpu].need_resched = true;
                }
            }
        } else if self.has_waiting_work() {
            // Idle loop poll: runnable work exists somewhere.
            self.cpus[cpu].need_resched = true;
        }
        if self.cpus[cpu].need_resched {
            self.preempt(cpu);
            self.drive(cpu, Drive::Schedule(now));
        }
    }

    /// Whether the run queue holds tasks beyond those currently running.
    fn has_waiting_work(&self) -> bool {
        let running = self.cpus.iter().filter(|c| !c.is_idle()).count();
        self.sched.nr_running() > running
    }

    /// Saves the preempted task's remaining compute so it resumes where
    /// it left off.
    fn preempt(&mut self, cpu: CpuId) {
        let cur = self.cpus[cpu].current;
        if cur == self.cpus[cpu].idle {
            return;
        }
        let remaining = self.cpus[cpu].busy_until.saturating_sub(self.now).get();
        if let Some(p) = self.run_mut(cur).pending_mut() {
            if p.remaining > 0 {
                p.remaining = remaining.max(1);
            }
        }
    }

    pub(crate) fn on_resume(&mut self, cpu: CpuId, gen: u64) {
        if gen != self.cpus[cpu].gen {
            return; // cancelled by a preemption or reschedule
        }
        let cur = self.cpus[cpu].current;
        if cur == self.cpus[cpu].idle {
            return;
        }
        if let Some(p) = self.run_mut(cur).pending_mut() {
            p.remaining = 0;
        }
        self.drive(cpu, Drive::RunCurrent(self.now));
    }

    pub(crate) fn on_ipi(&mut self, cpu: CpuId) {
        if !self.cpus[cpu].need_resched {
            return;
        }
        self.preempt(cpu);
        self.drive(cpu, Drive::Schedule(self.now));
    }

    /// The trampoline: schedule <-> run without recursion.
    fn drive(&mut self, cpu: CpuId, start: Drive) {
        let mut step = Some(start);
        while let Some(s) = step.take() {
            step = match s {
                Drive::Schedule(t) => {
                    let next = self.do_schedule(cpu, t);
                    // Free any task that exited under this schedule.
                    while let Some(tid) = self.to_free.pop() {
                        self.runs[tid.index()] = None;
                        self.tasks.free(tid);
                    }
                    next.map(Drive::RunCurrent)
                }
                Drive::RunCurrent(t) => self.run_segments(cpu, t).map(Drive::Schedule),
            };
        }
    }

    /// One `schedule()` call, as a six-step pipeline. Returns the time at
    /// which a dispatched user task starts running, or `None` if the CPU
    /// went idle.
    fn do_schedule(&mut self, cpu: CpuId, t: Cycles) -> Option<Cycles> {
        let prev = self.cpus[cpu].current;
        let idle = self.cpus[cpu].idle;
        // 1. Account the outgoing occupancy.
        if prev != idle {
            if let Some(s) = self.cpus[cpu].running_since.take() {
                self.stats.cpu_mut(cpu).work_cycles += t.saturating_sub(s).get();
            }
        } else {
            let s = self.cpus[cpu].idle_since;
            self.stats.cpu_mut(cpu).idle_cycles += t.saturating_sub(s).get();
        }
        // 2. Freeze what the observers need *before* the scheduler runs:
        //    it mutates counters, clears SCHED_YIELD and recalculates.
        let view = self.observe_before(cpu, prev, t);
        // 3. The decision, under the run-queue lock plan: this CPU's
        //    home domain for the whole call; any further domain a sharded
        //    scheduler needs mid-call (a steal) is taken through the ctx.
        let (next, t_done) = self.sched_call(Some(cpu), cpu, t, Phase::Schedule, |sched, ctx| {
            let next = sched.schedule(ctx, cpu, prev, idle);
            ctx.stats.cpu_mut(cpu).sched_cycles += ctx.meter.cycles();
            next
        });
        // 4. Observers: label the decision trace, judge against the
        //    reference scan. Pure observation.
        self.observe_after(view, next, t_done);
        // 5. Supervision: a misbehaving policy or model is ejected here;
        //    the pick for this decision stands.
        self.supervise(cpu, t_done);
        // 6. Commit: switch contexts.
        self.cpus[cpu].need_resched = false;
        self.cpus[cpu].gen += 1; // cancel any outstanding Resume
        self.commit_switch(cpu, prev, next, t_done)
    }

    /// Runs `f` against the scheduler with a [`SchedCtx`] over the
    /// machine's state, starting at `t` on behalf of `cpu`, and settles
    /// the bill: the metered cycles go to `cpu`'s `phase`, every
    /// lock-domain acquisition to its stats, the profiler and the trace.
    /// `lock` names the CPU whose run queue the call works on — its home
    /// domain is held throughout (SMP builds) — or is `None` for the
    /// calls the kernel makes without `runqueue_lock`: the tick hook and
    /// ejection surgery. Returns `f`'s result and the time the call
    /// (spins and hold included) ends.
    pub(crate) fn sched_call<R>(
        &mut self,
        lock: Option<CpuId>,
        cpu: CpuId,
        t: Cycles,
        phase: Phase,
        f: impl FnOnce(&mut dyn Scheduler, &mut SchedCtx<'_>) -> R,
    ) -> (R, Cycles) {
        // The home domain is taken up front, its spin charged to `cpu`.
        let home = match lock {
            Some(queue_cpu) if self.cfg.sched.smp => Some(self.locks.lock_home(queue_cpu, cpu, t)),
            _ => None,
        };
        if let Some(a) = home {
            self.account_domain_acquire(cpu, a);
        }
        let locked = home.is_some();
        let t_acq = home.map_or(t, |a| a.at);
        let mut meter = CycleMeter::new();
        self.bus.set_now(t_acq);
        let out = {
            let mut ctx = SchedCtx {
                tasks: &mut self.tasks,
                stats: &mut self.stats,
                meter: &mut meter,
                costs: &self.cfg.costs,
                cfg: &self.cfg.sched,
                probe: Some(&mut self.bus),
                locks: locked.then_some(&mut self.locks),
            };
            f(&mut *self.sched, &mut ctx)
        };
        let cycles = meter.cycles();
        // Chaos: a delayed `schedule()` stretches the held interval beyond
        // the work the call actually did, so every other CPU contending
        // for the domain spins correspondingly longer — the one step here
        // that is specific to the decision path.
        let hold_extra = match self.injector.as_mut() {
            Some(inj) if phase == Phase::Schedule && locked => inj.lock_hold(cycles).unwrap_or(0),
            _ => 0,
        };
        // Release every held domain. Mid-call spins stretch the call, so
        // they are part of the held interval.
        let (extra_spin, n_taken) = if locked {
            let extra = self.locks.extra_spin();
            self.locks.release_all(t_acq + cycles + extra + hold_extra);
            (extra, self.locks.taken().len())
        } else {
            (0, 0)
        };
        self.charge_kernel_meter(cpu, phase, &meter);
        if hold_extra > 0 {
            // The extra held time is real CPU time on the holder; charge
            // it as lock-domain cycles so the conservation invariant
            // (`kernel_cycles == profiler.total()`) keeps holding.
            self.emit_fault(t_acq, cpu, "lock_hold");
            self.charge_kernel_raw(cpu, Phase::LockSpin, hold_extra);
        }
        for k in 0..n_taken {
            let a = self.locks.taken()[k];
            self.account_domain_acquire(cpu, a);
        }
        (out, t_acq + cycles + extra_spin + hold_extra)
    }

    /// Folds one lock-domain acquisition — the home domain, or a mid-call
    /// one logged in [`LockModel::taken`](elsc_sched_api::LockModel::taken)
    /// — into the stats, the profiler's conservation total, and the trace
    /// — attributed to `cpu`, whose call paid for the spin.
    fn account_domain_acquire(&mut self, cpu: CpuId, a: DomainAcquire) {
        let c = self.stats.cpu_mut(cpu);
        c.lock_acquisitions += 1;
        c.lock_spin_cycles += a.spin;
        if a.spin > 0 {
            self.charge_kernel_raw(cpu, Phase::LockSpin, a.spin);
            self.bus.emit_at(
                a.at,
                ObsEvent::LockContended {
                    cpu,
                    domain: a.domain,
                    spin: a.spin,
                },
            );
        }
    }

    /// The context switch: charges the switch and mm-flush costs, detects
    /// a migration and arms its cold-cache penalty, records the wakeup
    /// latency. Returns when `next` starts running (`None` for idle).
    fn commit_switch(
        &mut self,
        cpu: CpuId,
        prev: Tid,
        next: Tid,
        t_done: Cycles,
    ) -> Option<Cycles> {
        let idle = self.cpus[cpu].idle;
        let mut t2 = t_done;
        // The topological distance this pick makes the task cross (its
        // last CPU → here) must be known *before* the mm-switch charge
        // below: adopting an address space whose page tables live on the
        // far node costs more than a local flush. On flat trees every
        // pair of CPUs is same-node, so nothing here changes.
        let topo = self.cfg.sched.topology;
        let from_cpu = if next != idle {
            self.tasks.task(next).processor
        } else {
            cpu
        };
        let cross_node = from_cpu != cpu && !topo.same_node(from_cpu, cpu);
        if next != prev {
            self.bus.emit_at(
                t_done,
                ObsEvent::Switch {
                    cpu,
                    from: prev,
                    to: next,
                },
            );
            self.stats.cpu_mut(cpu).ctx_switches += 1;
            t2 += self.charge_cost(cpu, Phase::Switch, CostKind::CtxSwitch);
            // Lazy TLB: the idle task borrows the outgoing mm
            // (`active_mm`), so only a switch to a *different user mm*
            // flushes.
            let next_mm = self.tasks.task(next).mm;
            if next != idle && next_mm != self.cpus[cpu].active_mm {
                self.stats.cpu_mut(cpu).mm_switches += 1;
                let mut mm_cost = self.cfg.costs.get(CostKind::MmSwitch);
                if cross_node {
                    // The flush coincides with a cross-node migration:
                    // the incoming mm's page tables are remote, so the
                    // TLB refill traffic crosses the interconnect.
                    mm_cost *= 2;
                }
                self.charge_kernel_kind(cpu, Phase::Switch, CostKind::MmSwitch, mm_cost);
                t2 += mm_cost;
                self.cpus[cpu].active_mm = next_mm;
            }
        }
        self.cpus[cpu].current = next;
        if next == idle {
            self.cpus[cpu].idle_since = t2;
            return None;
        }
        // Migration detection: the scheduler left `processor` untouched.
        let nt = self.tasks.task_mut(next);
        let migrated = nt.processor != cpu;
        nt.processor = cpu;
        if migrated {
            self.bus.emit_at(
                t2,
                ObsEvent::Migrate {
                    tid: next,
                    to_cpu: cpu,
                },
            );
            self.stats.cpu_mut(cpu).picked_new_cpu += 1;
            // Cold-cache penalty, scaled by the distance crossed: SMT
            // siblings share L1/L2 (quarter cost), node-mates share the
            // LLC (half), and crossing a node boundary doubles the flat
            // cost. Flat trees scale 1/1 — the classic model verbatim.
            let (num, den) = topo.migration_scale(from_cpu, cpu);
            let base = self.cfg.costs.get(CostKind::MigrationPenalty);
            self.run_mut(next).migrate_penalty = base * num / den;
            if !topo.is_flat() {
                let bucket = if topo.same_core(from_cpu, cpu) {
                    0
                } else if topo.same_node(from_cpu, cpu) {
                    1
                } else {
                    2
                };
                self.topo_migrations[bucket] += 1;
            }
        }
        if let Some(w) = self.run_mut(next).take_woken_at() {
            self.dists
                .record("wake_latency", t2.saturating_sub(w).get());
        }
        self.cpus[cpu].running_since = Some(t2);
        Some(t2)
    }
}
