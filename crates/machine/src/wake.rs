//! Wakeups: `wake_up_process()`, the run-queue enqueue under the lock,
//! `reschedule_idle()` placement and the reschedule IPIs it sends.

use elsc_chaos::IpiFault;
use elsc_ktask::{CpuId, TaskState, Tid};
use elsc_obs::{ObsEvent, Phase};
use elsc_sched_api::{reschedule_idle, CpuView, SchedCtx, Scheduler, WakeTarget};
use elsc_simcore::{CostKind, Cycles};

use crate::engine::Event;
use crate::machine::Machine;

impl Machine {
    /// `wake_up_process()`: make a blocked task runnable and decide where
    /// it should run. Returns the caller's advanced time cursor.
    pub(crate) fn wake_up(&mut self, tid: Tid, waker_cpu: CpuId, t: Cycles) -> Cycles {
        let Some(task) = self.tasks.get(tid) else {
            return t; // stale timer on an exited task
        };
        if !task.state.is_blocked() {
            return t; // already runnable (or a zombie)
        }
        self.tasks.task_mut(tid).state = TaskState::Running;
        self.bus.emit_at(
            t,
            ObsEvent::Wakeup {
                tid,
                by_cpu: waker_cpu,
            },
        );
        self.stats.cpu_mut(waker_cpu).wakeups += 1;
        self.run_mut(tid).woken_at = t;
        self.make_runnable(tid, waker_cpu, t)
    }

    /// Sends a reschedule IPI to `target`, subject to the fault plan:
    /// delivery may be delayed (latency inflated) or dropped outright.
    /// A dropped IPI is safe because `need_resched` stays set on the
    /// target — its next timer tick performs the reschedule, the same
    /// safety net the kernel itself relies on.
    fn send_ipi(&mut self, target: CpuId, t: Cycles) {
        let base = self.cfg.costs.get(CostKind::IpiLatency);
        let fault = self
            .injector
            .as_mut()
            .map_or(IpiFault::None, |inj| inj.ipi_fault(base));
        match fault {
            IpiFault::None => self.push_event(t + base, Event::Ipi { cpu: target }),
            IpiFault::Delay(extra) => {
                self.emit_fault(t, target, "ipi_delay");
                self.push_event(t + base + extra, Event::Ipi { cpu: target });
            }
            IpiFault::Drop => self.emit_fault(t, target, "ipi_drop"),
        }
    }

    /// Enqueues a runnable task and runs `reschedule_idle()` placement.
    pub(crate) fn make_runnable(&mut self, tid: Tid, waker_cpu: CpuId, t: Cycles) -> Cycles {
        debug_assert!(self.tasks.task(tid).state.is_runnable());
        // add_to_runqueue under the run-queue lock. The home domain is
        // the one guarding the queue the task lands on — its last CPU's
        // queue under sharded plans — while the spin is charged to the
        // waker, whose time pays for it.
        let queue_cpu = Some(self.tasks.task(tid).processor);
        let nr_cpus = self.cfg.nr_cpus() as u64;
        let enqueue = |sched: &mut dyn Scheduler, ctx: &mut SchedCtx<'_>| {
            sched.add_to_runqueue(ctx, tid);
            // reschedule_idle() runs under the run-queue lock in the
            // kernel: it reads every CPU's current task, so it is charged
            // one goodness evaluation per CPU plus its fixed cost, all
            // while holding the lock — a major serialization point on SMP.
            ctx.meter.charge(ctx.costs, CostKind::RescheduleIdle);
            ctx.meter
                .charge_n(ctx.costs, CostKind::GoodnessEval, nr_cpus);
        };
        let ((), mut t3) = self.sched_call(queue_cpu, waker_cpu, t, Phase::Wakeup, enqueue);

        // Snapshot every CPU into the reusable scratch buffer — one of
        // the hot wakeup-path allocations this engine must not make.
        self.view_scratch.clear();
        self.view_scratch.extend(self.cpus.iter().map(|c| CpuView {
            id: c.id,
            idle: c.is_idle(),
            current: c.current,
        }));
        match reschedule_idle(&self.tasks, &self.cfg.sched, &self.view_scratch, tid) {
            WakeTarget::IpiIdle(target) => {
                self.cpus[target].need_resched = true;
                self.stats.cpu_mut(waker_cpu).ipis_sent += 1;
                t3 += 1;
                self.send_ipi(target, t3);
            }
            WakeTarget::Preempt(target) => {
                self.cpus[target].need_resched = true;
                if target != waker_cpu {
                    self.stats.cpu_mut(waker_cpu).ipis_sent += 1;
                    self.send_ipi(target, t3);
                }
                // target == waker_cpu: the need_resched check at the top
                // of run_segments picks this up at the syscall boundary.
            }
            WakeTarget::None => {}
        }
        t3
    }
}
