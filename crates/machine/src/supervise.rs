//! Supervision: the watchdog over schedulers that are *loaded* rather
//! than compiled in — a `.pol` policy or a learned model. Such a run
//! carries one [`Supervision`] record: it announces the load at boot and
//! looks at every decision; on a contract violation, or when a bad streak
//! reaches its limit, it freezes the scheduler's counters, emits one
//! ejection event and hands the run to the vanilla baseline from the
//! *next* decision (the tripping pick stands — the scheduler's own host
//! already substituted a legal one). The decision stream up to there is
//! seed-determined, so same-seed runs eject at the same instant with
//! byte-identical reports. Native runs have no record.

use elsc_ktask::CpuId;
use elsc_obs::{EventBus, ObsEvent, Phase};
use elsc_sched_api::{LearnedInfo, PolicyLoadInfo, Scheduler};
use elsc_simcore::Cycles;

use crate::config::MachineConfig;
use crate::machine::Machine;
use crate::report::{LearnedSummary, PolicySummary};

/// What is being supervised: the load-time facts the scheduler reported.
enum Kind {
    Policy(PolicyLoadInfo),
    Learned(LearnedInfo),
}

/// Watchdog state for a run driven by a loaded scheduler.
pub(crate) struct Supervision {
    kind: Kind,
    /// Consecutive bad decisions: idle picks with runnable, unclaimed
    /// work queued (policy), verified mispredictions (model).
    streak: u32,
    /// Set once the watchdog fires: `(when, why)`.
    ejected: Option<(Cycles, &'static str)>,
    /// The scheduler's own counters, frozen at ejection because it is
    /// gone afterwards: `[insns executed, 0]` for a policy,
    /// `[predictions, verified hits]` for a model.
    frozen: [u64; 2],
}

impl Supervision {
    /// The record for `sched`, or `None` for a native scheduler.
    pub(crate) fn of(sched: &dyn Scheduler) -> Option<Supervision> {
        let kind = match sched.loaded_info() {
            Some(info) => Kind::Policy(info),
            None => Kind::Learned(sched.learned_info()?),
        };
        Some(Supervision {
            kind,
            streak: 0,
            ejected: None,
            frozen: [0; 2],
        })
    }

    /// The scheduler's reported name (`policy:<name>`, `learned:<model>`):
    /// the run keeps reporting under it after an ejection.
    pub(crate) fn name(&self) -> &'static str {
        match self.kind {
            Kind::Policy(p) => p.name,
            Kind::Learned(l) => l.name,
        }
    }

    /// Whether the scheduler's `on_tick` hook runs: policies only (models
    /// have none), and only until ejection.
    pub(crate) fn runs_tick_hook(&self) -> bool {
        self.ejected.is_none() && matches!(self.kind, Kind::Policy(_))
    }

    /// Announces the load on the bus at time zero.
    pub(crate) fn announce(&self, bus: &mut EventBus) {
        let event = match self.kind {
            Kind::Policy(p) => ObsEvent::PolicyLoaded {
                policy: p.name,
                insns: p.static_insns,
                budget: p.budget,
            },
            Kind::Learned(l) => ObsEvent::LearnedLoaded {
                model: l.name,
                arch: l.arch,
            },
        };
        bus.emit_at(Cycles::ZERO, event);
    }

    /// Looks at the decision `sched` just made; returns why it must be
    /// ejected, if it must. `starving` says whether the pick was idle
    /// over runnable, unclaimed work (only asked of policies).
    fn after_decision(
        &mut self,
        sched: &mut dyn Scheduler,
        cfg: &MachineConfig,
        starving: impl FnOnce() -> bool,
    ) -> Option<&'static str> {
        let (bad, limit, reason) = match self.kind {
            Kind::Policy(_) => {
                // A contract violation (budget blowout, illegal pick,
                // corrupted state) ejects at once.
                if let Some(v) = sched.take_violation() {
                    return Some(v.label());
                }
                (starving(), cfg.policy_starve_k, "starvation")
            }
            // A decision without a prediction (an idle pick) neither
            // extends nor resets the streak.
            Kind::Learned(_) => {
                let hit = sched.take_prediction()?;
                (!hit, cfg.learn_eject_k, "accuracy_collapse")
            }
        };
        if !bad {
            self.streak = 0;
            return None;
        }
        self.streak += 1;
        (self.streak >= limit).then_some(reason)
    }

    /// The scheduler's counters: live while it runs, frozen once ejected.
    fn counters(&self, sched: &dyn Scheduler) -> [u64; 2] {
        match self.kind {
            _ if self.ejected.is_some() => self.frozen,
            Kind::Policy(_) => [sched.policy_insns_executed(), 0],
            Kind::Learned(_) => sched.prediction_stats().into(),
        }
    }

    /// The report's policy and learned sections (at most one is `Some`).
    pub(crate) fn summaries(
        &self,
        sched: &dyn Scheduler,
    ) -> (Option<PolicySummary>, Option<LearnedSummary>) {
        let [a, b] = self.counters(sched);
        let ejected = self.ejected.is_some();
        let ejected_at = self.ejected.map(|(at, _)| at);
        let eject_reason = self.ejected.map(|(_, why)| why);
        match self.kind {
            Kind::Policy(p) => {
                let summary = PolicySummary {
                    name: p.name,
                    static_insns: p.static_insns,
                    budget: p.budget,
                    insns_executed: a,
                    ejected,
                    ejected_at,
                    eject_reason,
                };
                (Some(summary), None)
            }
            Kind::Learned(l) => {
                let summary = LearnedSummary {
                    name: l.name,
                    arch: l.arch,
                    predictions: a,
                    hits: b,
                    ejected,
                    ejected_at,
                    eject_reason,
                };
                (None, Some(summary))
            }
        }
    }
}

impl Machine {
    /// Pipeline step 5: runs the watchdog over the decision just made.
    /// `idle_pick` says the scheduler chose the idle task.
    pub(crate) fn supervise(&mut self, cpu: CpuId, idle_pick: bool, t_done: Cycles) {
        let Some(s) = self.supervision.as_mut().filter(|s| s.ejected.is_none()) else {
            return;
        };
        let tasks = &self.tasks;
        let starving = || {
            idle_pick
                && tasks
                    .iter()
                    .any(|task| task.on_runqueue() && task.state.is_runnable() && !task.has_cpu)
        };
        if let Some(reason) = s.after_decision(&mut *self.sched, &self.cfg, starving) {
            self.eject(cpu, t_done, reason);
        }
    }

    /// Ejects the supervised scheduler at `t`: freezes its counters,
    /// emits the ejection event, and hands the run to the baseline.
    fn eject(&mut self, cpu: CpuId, t: Cycles, reason: &'static str) {
        let s = self.supervision.as_mut().expect("eject needs a record");
        s.frozen = s.counters(&*self.sched);
        s.ejected = Some((t, reason));
        let event = match s.kind {
            Kind::Policy(p) => ObsEvent::PolicyEjected {
                cpu,
                policy: p.name,
                reason,
            },
            Kind::Learned(l) => ObsEvent::LearnedEjected {
                cpu,
                model: l.name,
                reason,
            },
        };
        self.bus.emit_at(t, event);
        self.swap_to_baseline(cpu, t);
    }

    /// Swaps in the vanilla baseline scheduler at `t` and migrates every
    /// queued task across with front-to-back order preserved. All
    /// list-surgery cycles are charged to the ejecting CPU's `Schedule`
    /// phase, so the conservation invariant keeps holding; the clock does
    /// not advance and no lock is taken (the decision's hold is over).
    fn swap_to_baseline(&mut self, cpu: CpuId, t: Cycles) {
        let mut old = std::mem::replace(
            &mut self.sched,
            Box::new(elsc_sched_linux::LinuxScheduler::new()),
        );
        self.sched_call(None, cpu, t, Phase::Schedule, |baseline, ctx| {
            let queued = old.drain(ctx);
            // The baseline's `add_to_runqueue` inserts at the *front*,
            // so re-adding in reverse preserves the drained order.
            for &tid in queued.iter().rev() {
                baseline.add_to_runqueue(ctx, tid);
            }
        });
    }
}
