//! Structured observability events.
//!
//! [`ObsEvent`] carries everything the old bounded `Trace` log recorded
//! (context switches, wakeups, blocks, exits, migrations) plus the events
//! the profiling work needs: recalculation-loop entry/exit, lock
//! contention, and run-queue depth samples. Every event serializes to one
//! deterministic JSON line, so same-seed runs produce byte-identical
//! trace files.

use crate::json::{into_string, push_escaped, push_u64};
use elsc_ktask::{CpuId, Tid};
use elsc_simcore::Cycles;

/// One observability event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObsEvent {
    /// `schedule()` switched `cpu` from `from` to `to`.
    Switch {
        /// The deciding CPU.
        cpu: CpuId,
        /// Outgoing task.
        from: Tid,
        /// Incoming task.
        to: Tid,
    },
    /// `wake_up_process()` made `tid` runnable.
    Wakeup {
        /// The woken task.
        tid: Tid,
        /// The CPU whose time paid for the wakeup.
        by_cpu: CpuId,
    },
    /// `tid` blocked (left the run queue voluntarily).
    Block {
        /// The blocking task.
        tid: Tid,
        /// The CPU it was running on.
        cpu: CpuId,
    },
    /// `tid` exited.
    Exit {
        /// The exiting task.
        tid: Tid,
    },
    /// A task was placed on a CPU different from its last one.
    Migrate {
        /// The migrating task.
        tid: Tid,
        /// Destination CPU.
        to_cpu: CpuId,
    },
    /// The scheduler entered its counter-recalculation loop.
    RecalcStart {
        /// The CPU running the loop.
        cpu: CpuId,
        /// Runnable tasks at loop entry.
        nr_running: u64,
    },
    /// The recalculation loop finished.
    RecalcEnd {
        /// The CPU that ran the loop.
        cpu: CpuId,
        /// Task counters it updated.
        updated: u64,
    },
    /// A CPU spun on a run-queue lock domain before acquiring it.
    LockContended {
        /// The spinning CPU.
        cpu: CpuId,
        /// The lock domain it was waiting for (always 0 under the global
        /// `runqueue_lock` plan; the queue's domain under sharded plans).
        domain: usize,
        /// Cycles lost to the spin.
        spin: u64,
    },
    /// Run-queue depth observed at a `schedule()` call.
    QueueDepthSample {
        /// The sampling CPU.
        cpu: CpuId,
        /// Runnable tasks (excluding idle).
        depth: u64,
    },
    /// The chaos fault injector perturbed the machine.
    ///
    /// `fault` is the static fault-class label ("ipi_delay", "ipi_drop",
    /// "spurious_wakeup", "tick_jitter", "lock_hold", "short_write",
    /// "peer_reset"). Emitting every injection keeps traces diffable:
    /// a fault-free and a faulted run differ exactly where the plan fired.
    FaultInjected {
        /// The CPU the fault landed on.
        cpu: CpuId,
        /// Static fault-class label.
        fault: &'static str,
    },
    /// The differential oracle saw the scheduler pick a different task
    /// than the O(n) reference scan, and classified the divergence.
    OracleDivergence {
        /// The deciding CPU.
        cpu: CpuId,
        /// What the scheduler under test picked.
        chosen: Tid,
        /// What the reference scan would have picked.
        expected: Tid,
        /// Divergence class label (`tie`, `truncation`, ...).
        class: &'static str,
    },
    /// An interpreted `.pol` policy passed load-time verification and
    /// took over scheduling (emitted once at machine boot).
    PolicyLoaded {
        /// The policy's report name (`policy:<name>`).
        policy: &'static str,
        /// Static instruction count across all hooks (verifier total).
        insns: u64,
        /// Runtime per-decision instruction budget in force.
        budget: u64,
    },
    /// An interpreted policy hook blew its per-decision instruction
    /// budget and was aborted with a safe default.
    PolicyBudget {
        /// The CPU the decision ran on.
        cpu: CpuId,
        /// Instructions executed when the budget tripped.
        insns: u64,
        /// The budget that was in force.
        budget: u64,
    },
    /// The machine's watchdog ejected an interpreted policy and swapped
    /// in the vanilla baseline scheduler mid-run.
    PolicyEjected {
        /// The CPU whose decision triggered the ejection.
        cpu: CpuId,
        /// The ejected policy's report name.
        policy: &'static str,
        /// Static violation label (`budget_exhausted`, `bad_pick`,
        /// `state_corrupt`, `starvation`).
        reason: &'static str,
    },
    /// One candidate's feature snapshot at a `schedule()` decision point,
    /// emitted under `--decision-trace` *before* the scheduler runs. A
    /// burst of these followed by one [`ObsEvent::SchedDecision`] is the
    /// supervised training row `elsc-learn` extracts: features here, the
    /// label there. Feature semantics (and scaling) are owned by
    /// `elsc-learn`; this event just records the raw integers.
    SchedCandidate {
        /// The deciding CPU.
        cpu: CpuId,
        /// The candidate task.
        tid: Tid,
        /// Remaining time-slice counter.
        counter: u64,
        /// Static priority.
        priority: u64,
        /// 1 if the candidate is realtime-class, else 0.
        rt: u64,
        /// 1 if the candidate shares the outgoing task's mm, else 0.
        mm_match: u64,
        /// Topology affinity bonus of the candidate's last CPU vs the
        /// deciding CPU (0 when cold or single-CPU).
        affinity: u64,
        /// Decisions since this candidate last won, on any CPU,
        /// saturated at 255 (255 = never).
        recency: u64,
    },
    /// The label closing a `--decision-trace` candidate burst: which task
    /// `schedule()` actually picked.
    SchedDecision {
        /// The deciding CPU.
        cpu: CpuId,
        /// The outgoing task.
        prev: Tid,
        /// The task the scheduler chose (the training label).
        chosen: Tid,
        /// Runnable tasks at the decision (excluding idle).
        depth: u64,
    },
    /// A learned scheduler (`learned:<model>`) parsed its model file and
    /// took over scheduling (emitted once at machine boot).
    LearnedLoaded {
        /// The scheduler's report name (`learned:<model>`).
        model: &'static str,
        /// Model architecture label (`logreg` or `mlp`).
        arch: &'static str,
    },
    /// The machine's watchdog ejected a learned scheduler whose rolling
    /// prediction accuracy collapsed, and swapped in the vanilla baseline
    /// scheduler mid-run.
    LearnedEjected {
        /// The CPU whose decision triggered the ejection.
        cpu: CpuId,
        /// The ejected scheduler's report name.
        model: &'static str,
        /// Static ejection label (`accuracy_collapse`).
        reason: &'static str,
    },
}

/// The trace-event table: each variant, its kind name and its fields in
/// declaration order — the one place a kind is spelled. Expands to
/// `$m! { $args; TABLE }`, so [`ObsEvent::kind`] and the trace-line
/// writer are generated from the same rows.
macro_rules! with_event_table {
    ($m:ident! { $($args:tt)* }) => {
        $m! { $($args)*;
            Switch "switch" { cpu, from, to },
            Wakeup "wakeup" { tid, by_cpu },
            Block "block" { tid, cpu },
            Exit "exit" { tid },
            Migrate "migrate" { tid, to_cpu },
            RecalcStart "recalc_start" { cpu, nr_running },
            RecalcEnd "recalc_end" { cpu, updated },
            LockContended "lock_contended" { cpu, domain, spin },
            QueueDepthSample "queue_depth" { cpu, depth },
            FaultInjected "fault" { cpu, fault },
            OracleDivergence "oracle_divergence" { cpu, chosen, expected, class },
            PolicyLoaded "policy_loaded" { policy, insns, budget },
            PolicyBudget "policy_budget" { cpu, insns, budget },
            PolicyEjected "policy_ejected" { cpu, policy, reason },
            SchedCandidate "sched_candidate" {
                cpu, tid, counter, priority, rt, mm_match, affinity, recency
            },
            SchedDecision "sched_decision" { cpu, prev, chosen, depth },
            LearnedLoaded "learned_loaded" { model, arch },
            LearnedEjected "learned_ejected" { cpu, model, reason },
        }
    };
}

/// The `match` from an event to its kind name.
macro_rules! kind_of {
    ($event:expr; $($variant:ident $kind:literal { $($key:ident),* }),* $(,)?) => {
        match $event {
            $(ObsEvent::$variant { .. } => $kind,)*
        }
    };
}

impl ObsEvent {
    /// Short kind name, used as the JSON `event` discriminant and by the
    /// trace-diff renderer.
    pub fn kind(&self) -> &'static str {
        with_event_table!(kind_of! { self })
    }
}

/// A field value of a trace line.
trait Value {
    fn put(self, out: &mut Vec<u8>);
}

impl Value for u64 {
    fn put(self, out: &mut Vec<u8>) {
        push_u64(out, self);
    }
}

impl Value for usize {
    fn put(self, out: &mut Vec<u8>) {
        push_u64(out, self as u64);
    }
}

impl Value for Tid {
    fn put(self, out: &mut Vec<u8>) {
        push_u64(out, self.index() as u64);
    }
}

impl Value for &str {
    fn put(self, out: &mut Vec<u8>) {
        push_escaped(out, self);
    }
}

/// The `match` that writes an event's part of a trace line: for each
/// variant, `,"event":"KIND"` and then `,"FIELD":VALUE` per field, in
/// declaration order. The JSON keys are the field names, so every key is a
/// fragment built at compile time; the first shares the kind's fragment.
macro_rules! write_fields {
    ($out:ident, $event:expr; $($variant:ident $kind:literal { $k0:ident $(, $key:ident)* }),* $(,)?) => {
        match $event {
            $(ObsEvent::$variant { $k0 $(, $key)* } => {
                $out.extend_from_slice(concat!(",\"event\":\"", $kind, "\",\"", stringify!($k0), "\":").as_bytes());
                Value::put($k0, $out);
                $(
                    $out.extend_from_slice(concat!(",\"", stringify!($key), "\":").as_bytes());
                    Value::put($key, $out);
                )*
            })*
        }
    };
}

/// A timestamped observability record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsRecord {
    /// Virtual time of the event.
    pub at: Cycles,
    /// The event.
    pub event: ObsEvent,
}

impl ObsRecord {
    /// Serializes the record as one JSON object (no trailing newline).
    ///
    /// Key order is fixed (`at`, `event`, then event fields in
    /// declaration order) and numbers are integers, so the encoding is
    /// byte-deterministic. Tids serialize as their slab index — the
    /// generation is a simulator-internal liveness check, not an
    /// observable property of the schedule.
    pub fn to_json_line(&self) -> String {
        let mut line = Vec::new();
        self.write_json_bytes(&mut line);
        into_string(line)
    }

    /// [`to_json_line`](ObsRecord::to_json_line)'s bytes into a
    /// caller-owned buffer: `line` is overwritten, reusing its allocation,
    /// so a warmed-up buffer serializes without allocating. This is what
    /// the trace sink hands its writer, unchecked: the bytes are UTF-8 by
    /// construction.
    ///
    /// Every key is a `'static` fragment, quoted and punctuated at compile
    /// time; only string values (policy and model names come from user
    /// file names) are escaped at run time.
    pub(crate) fn write_json_bytes(&self, line: &mut Vec<u8>) {
        line.clear();
        line.extend_from_slice(b"{\"at\":");
        push_u64(line, self.at.0);
        with_event_table!(write_fields! { line, self.event });
        line.push(b'}');
    }
}

/// The `Obj`-based encoder [`ObsRecord::write_json_bytes`] replaced: every
/// key escaped and separated at run time. Kept as the reference the
/// static-fragment encoder is compared against, byte for byte.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::json::Obj;

    pub(super) fn to_json_line(r: &ObsRecord) -> String {
        fields(r, Obj::new()).build()
    }

    /// Writes `at`, `event` and the event's fields into `o`.
    fn fields(r: &ObsRecord, o: Obj) -> Obj {
        let o = o.u64("at", r.at.0).str("event", r.event.kind());
        match r.event {
            ObsEvent::Switch { cpu, from, to } => o
                .u64("cpu", cpu as u64)
                .u64("from", from.index() as u64)
                .u64("to", to.index() as u64),
            ObsEvent::Wakeup { tid, by_cpu } => o
                .u64("tid", tid.index() as u64)
                .u64("by_cpu", by_cpu as u64),
            ObsEvent::Block { tid, cpu } => o.u64("tid", tid.index() as u64).u64("cpu", cpu as u64),
            ObsEvent::Exit { tid } => o.u64("tid", tid.index() as u64),
            ObsEvent::Migrate { tid, to_cpu } => o
                .u64("tid", tid.index() as u64)
                .u64("to_cpu", to_cpu as u64),
            ObsEvent::RecalcStart { cpu, nr_running } => {
                o.u64("cpu", cpu as u64).u64("nr_running", nr_running)
            }
            ObsEvent::RecalcEnd { cpu, updated } => {
                o.u64("cpu", cpu as u64).u64("updated", updated)
            }
            ObsEvent::LockContended { cpu, domain, spin } => o
                .u64("cpu", cpu as u64)
                .u64("domain", domain as u64)
                .u64("spin", spin),
            ObsEvent::QueueDepthSample { cpu, depth } => {
                o.u64("cpu", cpu as u64).u64("depth", depth)
            }
            ObsEvent::FaultInjected { cpu, fault } => o.u64("cpu", cpu as u64).str("fault", fault),
            ObsEvent::OracleDivergence {
                cpu,
                chosen,
                expected,
                class,
            } => o
                .u64("cpu", cpu as u64)
                .u64("chosen", chosen.index() as u64)
                .u64("expected", expected.index() as u64)
                .str("class", class),
            ObsEvent::PolicyLoaded {
                policy,
                insns,
                budget,
            } => o
                .str("policy", policy)
                .u64("insns", insns)
                .u64("budget", budget),
            ObsEvent::PolicyBudget { cpu, insns, budget } => o
                .u64("cpu", cpu as u64)
                .u64("insns", insns)
                .u64("budget", budget),
            ObsEvent::PolicyEjected {
                cpu,
                policy,
                reason,
            } => o
                .u64("cpu", cpu as u64)
                .str("policy", policy)
                .str("reason", reason),
            ObsEvent::SchedCandidate {
                cpu,
                tid,
                counter,
                priority,
                rt,
                mm_match,
                affinity,
                recency,
            } => o
                .u64("cpu", cpu as u64)
                .u64("tid", tid.index() as u64)
                .u64("counter", counter)
                .u64("priority", priority)
                .u64("rt", rt)
                .u64("mm_match", mm_match)
                .u64("affinity", affinity)
                .u64("recency", recency),
            ObsEvent::SchedDecision {
                cpu,
                prev,
                chosen,
                depth,
            } => o
                .u64("cpu", cpu as u64)
                .u64("prev", prev.index() as u64)
                .u64("chosen", chosen.index() as u64)
                .u64("depth", depth),
            ObsEvent::LearnedLoaded { model, arch } => o.str("model", model).str("arch", arch),
            ObsEvent::LearnedEjected { cpu, model, reason } => o
                .u64("cpu", cpu as u64)
                .str("model", model)
                .str("reason", reason),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(i: u32) -> Tid {
        Tid::from_raw(i, 0)
    }

    /// One event of every kind: each number `n` (CPUs and domains too),
    /// each tid `t`, each string `s`.
    fn every_event(n: u64, t: Tid, s: &'static str) -> [ObsEvent; 18] {
        let c = n as usize;
        [
            ObsEvent::Switch {
                cpu: c,
                from: t,
                to: t,
            },
            ObsEvent::Wakeup { tid: t, by_cpu: c },
            ObsEvent::Block { tid: t, cpu: c },
            ObsEvent::Exit { tid: t },
            ObsEvent::Migrate { tid: t, to_cpu: c },
            ObsEvent::RecalcStart {
                cpu: c,
                nr_running: n,
            },
            ObsEvent::RecalcEnd { cpu: c, updated: n },
            ObsEvent::LockContended {
                cpu: c,
                domain: c,
                spin: n,
            },
            ObsEvent::QueueDepthSample { cpu: c, depth: n },
            ObsEvent::FaultInjected { cpu: c, fault: s },
            ObsEvent::OracleDivergence {
                cpu: c,
                chosen: t,
                expected: t,
                class: s,
            },
            ObsEvent::PolicyLoaded {
                policy: s,
                insns: n,
                budget: n,
            },
            ObsEvent::PolicyBudget {
                cpu: c,
                insns: n,
                budget: n,
            },
            ObsEvent::PolicyEjected {
                cpu: c,
                policy: s,
                reason: s,
            },
            ObsEvent::SchedCandidate {
                cpu: c,
                tid: t,
                counter: n,
                priority: n,
                rt: n,
                mm_match: n,
                affinity: n,
                recency: n,
            },
            ObsEvent::SchedDecision {
                cpu: c,
                prev: t,
                chosen: t,
                depth: n,
            },
            ObsEvent::LearnedLoaded { model: s, arch: s },
            ObsEvent::LearnedEjected {
                cpu: c,
                model: s,
                reason: s,
            },
        ]
    }

    #[test]
    fn kinds_are_distinct() {
        let events = every_event(3, tid(1), "x");
        let mut kinds: Vec<_> = events.iter().map(|e| e.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), events.len());
    }

    #[test]
    fn static_fragments_match_the_obj_encoder() {
        let texts = [
            "",
            "policy:reg",
            "a\"b",
            "back\\slash",
            "two\nlines",
            "bell\u{7}",
        ];
        let big = Tid::from_raw(u32::MAX, u32::MAX);
        // A reused buffer holding a longer line: nothing of it may survive.
        let mut line = vec![b'x'; 512];
        for at in [0, u64::MAX] {
            for n in [0, u64::MAX] {
                for t in [tid(0), big] {
                    for s in texts {
                        for event in every_event(n, t, s) {
                            let r = ObsRecord {
                                at: Cycles(at),
                                event,
                            };
                            let want = reference::to_json_line(&r);
                            assert_eq!(r.to_json_line(), want);
                            r.write_json_bytes(&mut line);
                            assert_eq!(line, want.as_bytes());
                        }
                    }
                }
            }
        }
        let line = String::from_utf8(line).unwrap();
        assert!(line.contains("\\u0007"), "{line}");
    }

    #[test]
    fn json_lines_are_stable() {
        let r = ObsRecord {
            at: Cycles(42),
            event: ObsEvent::Switch {
                cpu: 1,
                from: tid(3),
                to: tid(4),
            },
        };
        assert_eq!(
            r.to_json_line(),
            r#"{"at":42,"event":"switch","cpu":1,"from":3,"to":4}"#
        );
        let r2 = ObsRecord {
            at: Cycles(7),
            event: ObsEvent::RecalcStart {
                cpu: 0,
                nr_running: 12,
            },
        };
        assert_eq!(
            r2.to_json_line(),
            r#"{"at":7,"event":"recalc_start","cpu":0,"nr_running":12}"#
        );
        let r3 = ObsRecord {
            at: Cycles(9),
            event: ObsEvent::LockContended {
                cpu: 2,
                domain: 1,
                spin: 350,
            },
        };
        assert_eq!(
            r3.to_json_line(),
            r#"{"at":9,"event":"lock_contended","cpu":2,"domain":1,"spin":350}"#
        );
        let r4 = ObsRecord {
            at: Cycles(11),
            event: ObsEvent::FaultInjected {
                cpu: 1,
                fault: "tick_jitter",
            },
        };
        assert_eq!(
            r4.to_json_line(),
            r#"{"at":11,"event":"fault","cpu":1,"fault":"tick_jitter"}"#
        );
        let r5 = ObsRecord {
            at: Cycles(13),
            event: ObsEvent::OracleDivergence {
                cpu: 0,
                chosen: tid(4),
                expected: tid(6),
                class: "truncation",
            },
        };
        assert_eq!(
            r5.to_json_line(),
            r#"{"at":13,"event":"oracle_divergence","cpu":0,"chosen":4,"expected":6,"class":"truncation"}"#
        );
        let r6 = ObsRecord {
            at: Cycles(0),
            event: ObsEvent::PolicyLoaded {
                policy: "policy:reg",
                insns: 64,
                budget: 65536,
            },
        };
        assert_eq!(
            r6.to_json_line(),
            r#"{"at":0,"event":"policy_loaded","policy":"policy:reg","insns":64,"budget":65536}"#
        );
        let r7 = ObsRecord {
            at: Cycles(21),
            event: ObsEvent::PolicyEjected {
                cpu: 1,
                policy: "policy:starve",
                reason: "starvation",
            },
        };
        assert_eq!(
            r7.to_json_line(),
            r#"{"at":21,"event":"policy_ejected","cpu":1,"policy":"policy:starve","reason":"starvation"}"#
        );
        let r8 = ObsRecord {
            at: Cycles(30),
            event: ObsEvent::SchedCandidate {
                cpu: 1,
                tid: tid(5),
                counter: 3,
                priority: 20,
                rt: 0,
                mm_match: 1,
                affinity: 6,
                recency: 9,
            },
        };
        assert_eq!(
            r8.to_json_line(),
            r#"{"at":30,"event":"sched_candidate","cpu":1,"tid":5,"counter":3,"priority":20,"rt":0,"mm_match":1,"affinity":6,"recency":9}"#
        );
        let r9 = ObsRecord {
            at: Cycles(31),
            event: ObsEvent::SchedDecision {
                cpu: 1,
                prev: tid(4),
                chosen: tid(5),
                depth: 2,
            },
        };
        assert_eq!(
            r9.to_json_line(),
            r#"{"at":31,"event":"sched_decision","cpu":1,"prev":4,"chosen":5,"depth":2}"#
        );
        let r10 = ObsRecord {
            at: Cycles(0),
            event: ObsEvent::LearnedLoaded {
                model: "learned:volano-logreg",
                arch: "logreg",
            },
        };
        assert_eq!(
            r10.to_json_line(),
            r#"{"at":0,"event":"learned_loaded","model":"learned:volano-logreg","arch":"logreg"}"#
        );
        let r11 = ObsRecord {
            at: Cycles(55),
            event: ObsEvent::LearnedEjected {
                cpu: 0,
                model: "learned:adversarial",
                reason: "accuracy_collapse",
            },
        };
        assert_eq!(
            r11.to_json_line(),
            r#"{"at":55,"event":"learned_ejected","cpu":0,"model":"learned:adversarial","reason":"accuracy_collapse"}"#
        );
    }

    #[test]
    fn json_lines_are_stable_for_the_remaining_kinds_and_time_extremes() {
        let line = |at: u64, event: ObsEvent| {
            ObsRecord {
                at: Cycles(at),
                event,
            }
            .to_json_line()
        };
        assert_eq!(
            line(
                3,
                ObsEvent::Wakeup {
                    tid: tid(8),
                    by_cpu: 2
                }
            ),
            r#"{"at":3,"event":"wakeup","tid":8,"by_cpu":2}"#
        );
        assert_eq!(
            line(
                4,
                ObsEvent::Block {
                    tid: tid(8),
                    cpu: 1
                }
            ),
            r#"{"at":4,"event":"block","tid":8,"cpu":1}"#
        );
        assert_eq!(
            line(
                5,
                ObsEvent::Migrate {
                    tid: tid(12),
                    to_cpu: 3
                }
            ),
            r#"{"at":5,"event":"migrate","tid":12,"to_cpu":3}"#
        );
        assert_eq!(
            line(
                1_000_000_007,
                ObsEvent::RecalcEnd {
                    cpu: 0,
                    updated: 400
                }
            ),
            r#"{"at":1000000007,"event":"recalc_end","cpu":0,"updated":400}"#
        );
        assert_eq!(
            line(
                6,
                ObsEvent::PolicyBudget {
                    cpu: 1,
                    insns: 65537,
                    budget: 65536
                }
            ),
            r#"{"at":6,"event":"policy_budget","cpu":1,"insns":65537,"budget":65536}"#
        );
        assert_eq!(
            line(u64::MAX, ObsEvent::Exit { tid: tid(1) }),
            r#"{"at":18446744073709551615,"event":"exit","tid":1}"#
        );
        assert_eq!(
            line(0, ObsEvent::QueueDepthSample { cpu: 0, depth: 0 }),
            r#"{"at":0,"event":"queue_depth","cpu":0,"depth":0}"#
        );
    }

    #[test]
    fn generation_does_not_leak_into_json() {
        let a = ObsRecord {
            at: Cycles(1),
            event: ObsEvent::Exit {
                tid: Tid::from_raw(5, 0),
            },
        };
        let b = ObsRecord {
            at: Cycles(1),
            event: ObsEvent::Exit {
                tid: Tid::from_raw(5, 9),
            },
        };
        assert_eq!(a.to_json_line(), b.to_json_line());
    }
}
