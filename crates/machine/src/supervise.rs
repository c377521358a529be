//! Supervision: the watchdog over schedulers that are *loaded* rather
//! than compiled in — a `.pol` policy or a learned model. Such a run
//! carries one [`Supervision`] record: it announces the load at boot and
//! reads the scheduler's [`Verdict`] on every decision; on a broken
//! contract, or when a bad streak reaches its limit, it freezes the
//! scheduler's counters, emits one ejection event and hands the run to
//! the vanilla baseline from the *next* decision (the tripping pick
//! stands — the scheduler's own host already substituted a legal one).
//! The decision stream up to there is seed-determined, so same-seed runs
//! eject at the same instant with byte-identical reports. Native runs
//! have no record. Everything the record asks of the scheduler goes
//! through [`Scheduler::supervised`].

use elsc_ktask::CpuId;
use elsc_obs::{EventBus, ObsEvent, Phase};
use elsc_sched_api::{Load, Scheduler, Supervised, Verdict};
use elsc_simcore::Cycles;

use crate::machine::Machine;
use crate::report::{LearnedSummary, PolicySummary};

/// Policy watchdog: an interpreted policy that picks idle this many
/// *consecutive* decisions while a runnable, unclaimed task sits on the
/// run queue is ejected.
const POLICY_STARVE_K: u32 = 8;

/// The supervised half of a scheduler the machine built a record for.
fn surface(sched: &mut dyn Scheduler) -> &mut dyn Supervised {
    sched
        .supervised()
        .expect("a supervised run's scheduler stays supervised until ejected")
}

/// Watchdog state for a run driven by a loaded scheduler.
pub(crate) struct Supervision {
    /// The load-time facts the scheduler reported; its name stays the
    /// run's name after an ejection.
    pub(crate) load: Load,
    /// Consecutive bad decisions: idle picks with runnable, unclaimed
    /// work queued (policy), verified mispredictions (model).
    streak: u32,
    /// Set once the watchdog fires: `(when, why)`.
    ejected: Option<(Cycles, &'static str)>,
    /// The scheduler's own counters, frozen at ejection because it is
    /// gone afterwards.
    frozen: [u64; 2],
}

impl Supervision {
    /// The record for `sched`, or `None` for a native scheduler.
    pub(crate) fn of(sched: &mut dyn Scheduler) -> Option<Supervision> {
        Some(Supervision {
            load: sched.supervised()?.load(),
            streak: 0,
            ejected: None,
            frozen: [0; 2],
        })
    }

    /// Whether the scheduler still runs: until ejection.
    pub(crate) fn live(&self) -> bool {
        self.ejected.is_none()
    }

    /// Announces the load on the bus at time zero.
    pub(crate) fn announce(&self, bus: &mut EventBus) {
        let event = match self.load {
            Load::Policy {
                name,
                static_insns,
                budget,
            } => ObsEvent::PolicyLoaded {
                policy: name,
                insns: static_insns,
                budget,
            },
            Load::Learned { name, arch } => ObsEvent::LearnedLoaded { model: name, arch },
        };
        bus.emit_at(Cycles::ZERO, event);
    }

    /// The scheduler's counters: live while it runs, frozen once ejected.
    fn counters(&self, sched: &mut dyn Scheduler) -> [u64; 2] {
        match self.ejected {
            Some(_) => self.frozen,
            None => surface(sched).counters(),
        }
    }

    /// The report's policy and learned sections (at most one is `Some`).
    pub(crate) fn summaries(
        &self,
        sched: &mut dyn Scheduler,
    ) -> (Option<PolicySummary>, Option<LearnedSummary>) {
        let [a, b] = self.counters(sched);
        let ejected = self.ejected.is_some();
        let ejected_at = self.ejected.map(|(at, _)| at);
        let eject_reason = self.ejected.map(|(_, why)| why);
        match self.load {
            Load::Policy {
                name,
                static_insns,
                budget,
            } => {
                let summary = PolicySummary {
                    name,
                    static_insns,
                    budget,
                    insns_executed: a,
                    ejected,
                    ejected_at,
                    eject_reason,
                };
                (Some(summary), None)
            }
            Load::Learned { name, arch } => {
                let summary = LearnedSummary {
                    name,
                    arch,
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
    /// Pipeline step 5: reads the scheduler's verdict on the decision
    /// just made, and ejects it on a broken contract or a bad streak at
    /// its kind's limit.
    pub(crate) fn supervise(&mut self, cpu: CpuId, t_done: Cycles) {
        let Some(s) = self.supervision.as_mut().filter(|s| s.live()) else {
            return;
        };
        let reason = match surface(&mut *self.sched).take_verdict() {
            Verdict::Abstain => return,
            Verdict::Sound => {
                s.streak = 0;
                return;
            }
            Verdict::Broken(reason) => reason,
            Verdict::Bad(reason) => {
                let limit = match s.load {
                    Load::Policy { .. } => POLICY_STARVE_K,
                    Load::Learned { .. } => self.cfg.learn_eject_k,
                };
                s.streak += 1;
                if s.streak < limit {
                    return;
                }
                reason
            }
        };
        self.eject(cpu, t_done, reason);
    }

    /// Ejects the supervised scheduler at `t`: freezes its counters,
    /// emits the ejection event, and hands the run to the baseline.
    fn eject(&mut self, cpu: CpuId, t: Cycles, reason: &'static str) {
        let s = self.supervision.as_mut().expect("eject needs a record");
        s.frozen = s.counters(&mut *self.sched);
        s.ejected = Some((t, reason));
        let event = match s.load {
            Load::Policy { name, .. } => ObsEvent::PolicyEjected {
                cpu,
                policy: name,
                reason,
            },
            Load::Learned { name, .. } => ObsEvent::LearnedEjected {
                cpu,
                model: name,
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
            let queued = surface(&mut *old).drain(ctx);
            // The baseline's `add_to_runqueue` inserts at the *front*,
            // so re-adding in reverse preserves the drained order.
            for &tid in queued.iter().rev() {
                baseline.add_to_runqueue(ctx, tid);
            }
        });
    }
}
