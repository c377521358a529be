//! The differential oracle: replay the baseline O(n) `goodness()` scan
//! beside the scheduler under test and classify every divergence.
//!
//! On every `schedule()` call the machine snapshots the runnable set
//! *before* handing control to the scheduler, lets the scheduler decide,
//! then asks [`Oracle::judge`] to replay Linux 2.3.99's reference
//! semantics over the frozen snapshot and compare. A divergence is only
//! acceptable when it falls into one of the documented classes below;
//! anything else increments `unexplained` — and an unexplained
//! divergence is a test failure, a lab-cell failure, and a non-zero CLI
//! exit.
//!
//! | class | meaning |
//! |---|---|
//! | `Match`       | same task selected (the §5 claim, verbatim) |
//! | `Tie`         | different task, equal reference goodness — order-of-scan freedom |
//! | `YieldRerun`  | ELSC reran a lone yielder instead of recalculating (the Figure-2 fix, §5.2) |
//! | `Truncation`  | the winning list held more eligible tasks than the bounded search examines, and the gap is within the documented slack |
//! | `Affinity`    | SMP only: the reference winner sat in a list the bounded search never reached, and the gap is within the dynamic-bonus + bucket slack |
//! | `Topology`    | multi-level trees only: the divergence is locality-motivated (the pick trades bounded goodness for topological distance) |
//! | `Design`      | relaxed-contract scheduler (§8 prototypes): decision logged, not held to §5 |
//! | `Unexplained` | none of the above — the equivalence claim is violated |

use elsc_ktask::{CpuId, MmId, Task, TaskTable, Tid};
use elsc_obs::json::Obj;
use elsc_sched_api::{
    topo_affinity_bonus, IDLE_GOODNESS, MM_BONUS, PROC_CHANGE_PENALTY, RT_GOODNESS_BASE,
};
use elsc_simcore::Topology;

use crate::plan::FaultCounts;

/// Maximum goodness gap the bounded search is documented to trade away:
/// the within-list static spread (ELSC buckets `counter + priority` by 4,
/// so ≤ 3) plus both dynamic bonuses it does not sort by.
const BOUNDED_SLACK: i32 = PROC_CHANGE_PENALTY + MM_BONUS + 3;

/// The scheduling-relevant fields of one task, frozen before the
/// scheduler under test ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskSnap {
    /// The task.
    pub tid: Tid,
    /// Remaining quantum at decision time.
    pub counter: i32,
    /// Static priority.
    pub priority: i32,
    /// Real-time class?
    pub rt: bool,
    /// `SCHED_RR` specifically (quantum-refresh semantics)?
    pub rr: bool,
    /// Real-time priority.
    pub rt_priority: i32,
    /// Address space.
    pub mm: MmId,
    /// Last processor.
    pub processor: CpuId,
    /// Executing on a CPU right now?
    pub has_cpu: bool,
    /// `SCHED_YIELD` set?
    pub yielded: bool,
}

impl TaskSnap {
    /// Freezes the scheduling-relevant fields of `t`.
    pub fn of(t: &Task) -> TaskSnap {
        TaskSnap {
            tid: t.tid,
            counter: t.counter,
            priority: t.priority,
            rt: t.policy.class.is_realtime(),
            rr: t.policy.class == elsc_ktask::SchedClass::Rr,
            rt_priority: t.rt_priority,
            mm: t.mm,
            processor: t.processor,
            has_cpu: t.has_cpu,
            yielded: t.policy.yielded,
        }
    }
}

/// `goodness()` over a snapshot with an overridden counter — mirrors
/// `elsc_sched_api::goodness_ignoring_yield_on` exactly (a unit test
/// below pins the two against each other). On a flat tree the topology
/// bonus degenerates to the classic `{+15 on same CPU, else 0}`, so the
/// reference is byte-identical to the pre-topology oracle there.
fn snap_goodness(s: &TaskSnap, counter: i32, topo: &Topology, cpu: CpuId, prev_mm: MmId) -> i32 {
    if s.rt {
        return RT_GOODNESS_BASE + s.rt_priority;
    }
    if counter == 0 {
        return 0;
    }
    let mut w = counter + s.priority;
    w += topo_affinity_bonus(topo, cpu, s.processor);
    if s.mm == prev_mm {
        w += MM_BONUS;
    }
    w
}

/// The ELSC table list a snapshot would be indexed into given `counter`
/// (mirrors `ElscTable::index_for`; used to prove search truncation).
fn snap_list(s: &TaskSnap, counter: i32) -> usize {
    if s.rt {
        (20 + (s.rt_priority / 10).clamp(0, 9)) as usize
    } else {
        (((counter + s.priority) / 4).clamp(0, 19)) as usize
    }
}

/// How strictly the oracle holds a scheduler to the §5 claim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OracleMode {
    /// `elsc` and `reg`: divergences must be explained or they count as
    /// unexplained.
    Strict,
    /// §8 prototypes (`heap`, `aheap`, `mq`): deliberately different
    /// contracts (no dynamic bonuses, per-queue visibility); divergences
    /// are logged as `Design` instead of judged.
    Relaxed,
}

impl OracleMode {
    /// The mode for a scheduler, keyed by its `Scheduler::name()`.
    ///
    /// Interpreted policies report themselves as `policy:<name>`; the
    /// prefix is stripped so `policy:reg` — the bundled `.pol` transcription
    /// of the baseline scheduler — is held to the same strict claim as the
    /// native implementation. `policy:percpu` partitions storage per CPU
    /// but still runs the full goodness scan, so it carries the strict
    /// claim too; arbitrary policies default to relaxed.
    pub fn for_scheduler(name: &str) -> OracleMode {
        let name = name.strip_prefix("policy:").unwrap_or(name);
        match name {
            "elsc" | "reg" | "percpu" => OracleMode::Strict,
            _ => OracleMode::Relaxed,
        }
    }
}

/// One `schedule()` decision, as the machine saw it.
#[derive(Debug)]
pub struct Decision<'a> {
    /// The deciding CPU.
    pub cpu: CpuId,
    /// The outgoing task.
    pub prev: Tid,
    /// This CPU's idle task.
    pub idle: Tid,
    /// `prev->mm` at decision time.
    pub prev_mm: MmId,
    /// Whether `prev` had `SCHED_YIELD` set entering the call.
    pub prev_yielded: bool,
    /// Whether `prev` was still runnable entering the call.
    pub prev_runnable: bool,
    /// The task the scheduler under test selected.
    pub chosen: Tid,
    /// Whether the scheduler took its yield-rerun path this call (ELSC's
    /// `yield_reruns` statistic advanced).
    pub yield_rerun: bool,
    /// The bounded-search examination limit in effect.
    pub search_limit: usize,
    /// SMP build?
    pub smp: bool,
    /// The declared machine topology (flat for the classic model).
    pub topology: Topology,
    /// The frozen runnable set (idle tasks excluded; `prev` included
    /// only if still runnable).
    pub snaps: &'a [TaskSnap],
}

/// Classification of one decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DivergenceClass {
    /// Same task as the reference scan.
    Match,
    /// Equal reference goodness: an order-of-scan tie.
    Tie,
    /// ELSC's documented lone-yielder rerun (§5.2, the Figure-2 fix).
    YieldRerun,
    /// The winning list was longer than the examination limit and the gap
    /// is within the documented slack.
    Truncation,
    /// SMP: the reference winner sat in a list the bounded search never
    /// reached, and the gap is within the dynamic-bonus slack it trades.
    Affinity,
    /// Multi-level trees only: a locality-motivated divergence — the pick
    /// traded a bounded goodness gap for topological distance (either
    /// direction: a topology-aware pick judged against a flat-thinking
    /// peer, or a flat-model policy missing a distance-graded bonus).
    Topology,
    /// Relaxed-contract scheduler; logged, not judged.
    Design,
    /// No documented explanation — the §5 claim is violated.
    Unexplained,
}

impl DivergenceClass {
    /// Short label (obs events, reports).
    pub fn label(self) -> &'static str {
        match self {
            DivergenceClass::Match => "match",
            DivergenceClass::Tie => "tie",
            DivergenceClass::YieldRerun => "yield_rerun",
            DivergenceClass::Truncation => "truncation",
            DivergenceClass::Affinity => "affinity",
            DivergenceClass::Topology => "topology",
            DivergenceClass::Design => "design",
            DivergenceClass::Unexplained => "unexplained",
        }
    }
}

/// A judged decision: the divergence class plus what the reference scan
/// would have picked (for divergence events and diagnostics).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// The divergence class.
    pub class: DivergenceClass,
    /// The task the reference scan picks over the frozen snapshot.
    pub expected: Tid,
}

/// Outcome of the reference replay.
struct RefOutcome {
    expected: Tid,
    expected_g: i32,
    /// Post-replay counters (after any reference recalculation), indexed
    /// like `snaps`. This is the oracle's scratch vector, on loan: the
    /// judge hands it back when it is done with the outcome.
    counters: Vec<i32>,
}

/// Aggregated oracle verdicts for one run. Plain `Send` data.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OracleReport {
    /// `schedule()` decisions judged.
    pub decisions: u64,
    /// Exact matches.
    pub matches: u64,
    /// Order-of-scan ties.
    pub ties: u64,
    /// Documented yield reruns.
    pub yield_reruns: u64,
    /// Bounded-search truncations.
    pub truncations: u64,
    /// SMP affinity-slack divergences.
    pub affinity: u64,
    /// Locality-motivated divergences on multi-level trees.
    pub topology: u64,
    /// Relaxed-contract decisions.
    pub design: u64,
    /// Divergences with no documented explanation.
    pub unexplained: u64,
    /// Run-queue invariant violations observed.
    pub invariant_violations: u64,
    /// Details of the first unexplained divergence (diagnostics).
    pub first_unexplained: Option<String>,
    /// Details of the first invariant violation (diagnostics).
    pub first_violation: Option<String>,
}

impl OracleReport {
    /// Whether every decision was explained and every invariant held.
    pub fn clean(&self) -> bool {
        self.unexplained == 0 && self.invariant_violations == 0
    }

    /// The failure sentence every front end reports for a run that is not
    /// [`clean`](OracleReport::clean) — counts plus the first offending
    /// decision — or `None` for a clean run.
    pub fn failure(&self) -> Option<String> {
        if self.clean() {
            return None;
        }
        let first = self
            .first_unexplained
            .as_ref()
            .or(self.first_violation.as_ref())
            .map(|d| format!(" (first: {d})"))
            .unwrap_or_default();
        Some(format!(
            "{} unexplained divergence(s), {} invariant violation(s){first}",
            self.unexplained, self.invariant_violations
        ))
    }

    /// Deterministic JSON rendering (fixed key order; detail strings
    /// included only when present so clean runs stay byte-stable).
    pub fn to_json(&self) -> String {
        let mut o = Obj::new()
            .u64("decisions", self.decisions)
            .u64("matches", self.matches)
            .u64("ties", self.ties)
            .u64("yield_reruns", self.yield_reruns)
            .u64("truncations", self.truncations)
            .u64("affinity", self.affinity)
            .u64("design", self.design)
            .u64("unexplained", self.unexplained)
            .u64("invariant_violations", self.invariant_violations);
        if self.topology != 0 {
            // Only multi-level trees can produce this class; emitting it
            // conditionally keeps every flat-topology report (and the
            // committed baseline manifests) byte-identical.
            o = o.u64("topology", self.topology);
        }
        if let Some(d) = &self.first_unexplained {
            o = o.str("first_unexplained", d);
        }
        if let Some(d) = &self.first_violation {
            o = o.str("first_violation", d);
        }
        o.build()
    }
}

/// The differential oracle: judges every decision and accumulates a
/// report. Pure observer — owns no task state, charges no cycles.
#[derive(Clone, Debug)]
pub struct Oracle {
    mode: OracleMode,
    report: OracleReport,
    /// The replay's per-snapshot counters, kept between decisions so a
    /// judged decision allocates nothing once this has grown to the
    /// widest runnable set.
    scratch: Vec<i32>,
}

impl Oracle {
    /// Builds an oracle in the given mode.
    pub fn new(mode: OracleMode) -> Oracle {
        Oracle {
            mode,
            report: OracleReport::default(),
            scratch: Vec::new(),
        }
    }

    /// The mode in effect.
    pub fn mode(&self) -> OracleMode {
        self.mode
    }

    /// The report so far.
    pub fn report(&self) -> &OracleReport {
        &self.report
    }

    /// Records `n` invariant violations with a detail for the first.
    pub fn record_violations(&mut self, details: &[String]) {
        self.report.invariant_violations += details.len() as u64;
        if self.report.first_violation.is_none() {
            if let Some(first) = details.first() {
                self.report.first_violation = Some(first.clone());
            }
        }
    }

    /// Replays the reference `schedule()` semantics over the frozen
    /// snapshot: previous-task-first (ties go to `prev`), strict
    /// `goodness()` maximum over every task not executing elsewhere, and
    /// the system-wide counter recalculation when the best weight is 0.
    /// `counters` is scratch: its contents are overwritten, its
    /// allocation reused, and it comes back inside the outcome.
    fn reference_pick(d: &Decision<'_>, mut counters: Vec<i32>) -> RefOutcome {
        counters.clear();
        counters.extend(d.snaps.iter().map(|s| s.counter));
        let prev_idx = d.snaps.iter().position(|s| s.tid == d.prev);
        // An exhausted SCHED_RR prev gets its quantum refreshed before
        // selection, in both the reference and ELSC.
        if let Some(i) = prev_idx {
            if d.snaps[i].rr && counters[i] == 0 {
                counters[i] = d.snaps[i].priority;
            }
        }
        let mut prev_yielded = d.prev_yielded;
        let mut recalced = false;
        loop {
            let mut c = IDLE_GOODNESS;
            let mut next = d.idle;
            if let Some(i) = prev_idx {
                // prev is considered first and therefore wins all ties.
                c = if prev_yielded {
                    prev_yielded = false; // consumed for this pass only
                    0
                } else {
                    snap_goodness(&d.snaps[i], counters[i], &d.topology, d.cpu, d.prev_mm)
                };
                next = d.prev;
            }
            for (i, s) in d.snaps.iter().enumerate() {
                // can_schedule(): skip tasks executing on a CPU (which
                // skips prev too — it was counted above).
                let skip = if d.smp { s.has_cpu } else { s.tid == d.prev };
                if skip {
                    continue;
                }
                let w = snap_goodness(s, counters[i], &d.topology, d.cpu, d.prev_mm);
                if w > c {
                    c = w;
                    next = s.tid;
                }
            }
            if c != 0 || recalced {
                return RefOutcome {
                    expected: next,
                    expected_g: c,
                    counters,
                };
            }
            // Every candidate out of quantum (or a lone yielder): the
            // reference recalculates every counter and scans again.
            for (i, s) in d.snaps.iter().enumerate() {
                counters[i] = (counters[i] >> 1) + s.priority;
            }
            recalced = true;
        }
    }

    /// Judges one decision, updates the report, and returns the class.
    pub fn judge(&mut self, d: &Decision<'_>) -> DivergenceClass {
        self.judge_full(d).class
    }

    /// Judges one decision, updates the report, and returns the full
    /// verdict (class plus the reference pick).
    pub fn judge_full(&mut self, d: &Decision<'_>) -> Verdict {
        self.report.decisions += 1;
        let r = Self::reference_pick(d, std::mem::take(&mut self.scratch));
        let class = self.classify(d, &r);
        match class {
            DivergenceClass::Match => self.report.matches += 1,
            DivergenceClass::Tie => self.report.ties += 1,
            DivergenceClass::YieldRerun => self.report.yield_reruns += 1,
            DivergenceClass::Truncation => self.report.truncations += 1,
            DivergenceClass::Affinity => self.report.affinity += 1,
            DivergenceClass::Topology => self.report.topology += 1,
            DivergenceClass::Design => self.report.design += 1,
            DivergenceClass::Unexplained => {
                self.report.unexplained += 1;
                if self.report.first_unexplained.is_none() {
                    let chosen_g = Self::eval(d, &r, d.chosen);
                    self.report.first_unexplained = Some(format!(
                        "decision {} cpu {}: chose task {} (g={}) but reference picks \
                         task {} (g={})",
                        self.report.decisions,
                        d.cpu,
                        d.chosen.index(),
                        chosen_g,
                        r.expected.index(),
                        r.expected_g,
                    ));
                }
            }
        }
        let expected = r.expected;
        self.scratch = r.counters;
        Verdict { class, expected }
    }

    /// Reference goodness of `tid` under the replay's final counters.
    fn eval(d: &Decision<'_>, r: &RefOutcome, tid: Tid) -> i32 {
        if tid == d.idle {
            return IDLE_GOODNESS;
        }
        match d.snaps.iter().position(|s| s.tid == tid) {
            Some(i) => snap_goodness(&d.snaps[i], r.counters[i], &d.topology, d.cpu, d.prev_mm),
            None => IDLE_GOODNESS, // not in the runnable set at all
        }
    }

    fn classify(&self, d: &Decision<'_>, r: &RefOutcome) -> DivergenceClass {
        if d.chosen == r.expected {
            return DivergenceClass::Match;
        }
        if d.chosen != d.idle && !d.snaps.iter().any(|s| s.tid == d.chosen) {
            // Chose a task that was not runnable when the decision began:
            // never explainable, in any mode.
            return DivergenceClass::Unexplained;
        }
        if self.mode == OracleMode::Relaxed {
            // §8 prototypes: different contracts by design (no dynamic
            // bonuses, per-queue visibility, steal thresholds). On a
            // multi-level tree, refine the log: a pick that is
            // topologically *closer* to the deciding CPU than the
            // reference winner is a locality-motivated divergence (the
            // bubble scheduler and mq's LLC-aware steal do this on
            // purpose), not a generic design gap.
            if !d.topology.is_flat() {
                let closer = |tid: Tid| {
                    d.snaps
                        .iter()
                        .find(|s| s.tid == tid)
                        .map(|s| topo_affinity_bonus(&d.topology, d.cpu, s.processor))
                };
                if let (Some(c), Some(e)) = (closer(d.chosen), closer(r.expected)) {
                    if c > e {
                        return DivergenceClass::Topology;
                    }
                }
            }
            return DivergenceClass::Design;
        }
        if d.yield_rerun && d.chosen == d.prev {
            // ELSC reran the yielder instead of recalculating — the
            // deliberate Figure-2 deviation, documented in §5.2. This must
            // be classified *before* any goodness-gap arithmetic: the
            // bounded search stops at the first list holding any candidate,
            // so a yielder in a high list can shadow a runnable task in a
            // lower one — and the rerun yielder's raw goodness (its
            // SCHED_YIELD already consumed) can even exceed the reference
            // winner's, making the gap negative.
            return DivergenceClass::YieldRerun;
        }
        let chosen_g = Self::eval(d, r, d.chosen);
        let gap = r.expected_g - chosen_g;
        if gap == 0 {
            return DivergenceClass::Tie;
        }
        if gap < 0 {
            // The scheduler found something strictly better than the
            // reference scan — the reference saw everything (and the
            // yield-rerun case was handled above), so this means the
            // oracle itself is being lied to. Never explained.
            return DivergenceClass::Unexplained;
        }
        if gap <= BOUNDED_SLACK {
            let chosen_i = d.snaps.iter().position(|s| s.tid == d.chosen);
            // Truncation: the list the reference winner lives in held
            // more eligible tasks than the bounded search examines, so
            // ELSC provably could not have seen every candidate.
            if let Some(ei) = d.snaps.iter().position(|s| s.tid == r.expected) {
                let list = snap_list(&d.snaps[ei], r.counters[ei]);
                let occupancy = d
                    .snaps
                    .iter()
                    .enumerate()
                    .filter(|(i, s)| {
                        let eligible = if d.smp {
                            !(s.has_cpu && s.processor != d.cpu)
                        } else {
                            true
                        };
                        eligible && snap_list(s, r.counters[*i]) == list
                    })
                    .count();
                if occupancy > d.search_limit {
                    return DivergenceClass::Truncation;
                }
                if let Some(ci) = chosen_i {
                    let chosen_list = snap_list(&d.snaps[ci], r.counters[ci]);
                    if !d.topology.is_flat() {
                        // Multi-level tree: the reference winner was
                        // favoured by a distance-graded bonus the chosen
                        // task did not earn. A scheduler (or interpreted
                        // policy) reasoning with the flat model loses
                        // exactly this much — a locality-motivated gap,
                        // classified, still bounded by the slack.
                        let e_near = topo_affinity_bonus(&d.topology, d.cpu, d.snaps[ei].processor);
                        let c_near = topo_affinity_bonus(&d.topology, d.cpu, d.snaps[ci].processor);
                        if e_near > c_near {
                            return DivergenceClass::Topology;
                        }
                    }
                    if d.smp && list < chosen_list {
                        // The bounded search walks lists from the highest
                        // static bucket down and stops at the first list
                        // holding any candidate, so a reference winner in
                        // a *strictly lower* list — carried above the
                        // chosen task only by dynamic affinity/mm bonuses
                        // (≤ 16) plus the bucket spread (≤ 3) — is slack
                        // it documents trading for O(1) decisions. A
                        // same-list winner within the limit was examined,
                        // and skipping it is NOT explainable: requiring
                        // the strictly-lower list is what lets the oracle
                        // reject an off-by-one comparator on SMP, not
                        // just on UP.
                        return DivergenceClass::Affinity;
                    }
                }
            }
        }
        DivergenceClass::Unexplained
    }
}

/// Checks the machine-independent run-queue invariants over every live
/// task — one [`task_invariants`] call per task, in task-table order.
/// Returns one description per violation (empty when all hold). This is
/// the reference full walk; the machine's per-decision check visits only
/// the tasks its change log names and is compared against this one in
/// debug builds.
pub fn check_task_invariants(tasks: &TaskTable) -> Vec<String> {
    let mut out = Vec::new();
    for t in tasks.iter() {
        task_invariants(t, &mut out);
    }
    out
}

/// The run-queue invariants of one task: `counter ∈ [0, 2·priority]` and
/// list-linkage coherence (`in_list() ⇒ on_runqueue()`; a zombie must
/// never stay linked). Appends one description per violation to `out`.
/// Reads nothing but `t`, so a task that passed keeps passing until it is
/// next handed out mutably.
pub fn task_invariants(t: &Task, out: &mut Vec<String>) {
    if t.counter < 0 || t.counter > 2 * t.priority {
        out.push(format!(
            "task {} '{}': counter {} outside [0, {}]",
            t.tid.index(),
            t.name,
            t.counter,
            2 * t.priority
        ));
    }
    if t.in_list() && !t.on_runqueue() {
        out.push(format!(
            "task {} '{}': linked into a run-queue list but not marked on-queue",
            t.tid.index(),
            t.name
        ));
    }
    if t.state == elsc_ktask::TaskState::Zombie && t.in_list() {
        out.push(format!(
            "task {} '{}': zombie still linked into a run-queue list",
            t.tid.index(),
            t.name
        ));
    }
}

/// Everything chaos-related a run report carries: the plan label, the
/// fault seed, per-class injection counts, and the oracle verdicts (when
/// the oracle was enabled).
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosSummary {
    /// The fault plan's label (`None` when no faults were injected).
    pub fault_plan: Option<String>,
    /// The seed the fault streams derived from.
    pub fault_seed: u64,
    /// Per-class injection counts.
    pub counts: FaultCounts,
    /// Oracle verdicts (`None` when the oracle was off).
    pub oracle: Option<OracleReport>,
}

impl ChaosSummary {
    /// Deterministic JSON rendering.
    pub fn to_json(&self) -> String {
        let mut o = Obj::new();
        o = match &self.fault_plan {
            Some(p) => o.str("fault_plan", p),
            None => o.raw("fault_plan", "null"),
        };
        o = o
            .u64("fault_seed", self.fault_seed)
            .raw("faults", self.counts.to_json());
        if let Some(r) = &self.oracle {
            o = o.raw("oracle", r.to_json());
        }
        o.build()
    }
}

// Compile-time Send audit: chaos state crosses lab worker threads inside
// `RunReport`.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ChaosSummary>();
    assert_send::<OracleReport>();
    assert_send::<FaultCounts>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use elsc_ktask::{SchedClass, TaskSpec, TaskTable};
    use elsc_sched_api::goodness_ignoring_yield;

    fn tid(i: u32) -> Tid {
        Tid::from_raw(i, 0)
    }

    fn snap(i: u32, counter: i32, priority: i32, mm: u32) -> TaskSnap {
        TaskSnap {
            tid: tid(i),
            counter,
            priority,
            rt: false,
            rr: false,
            rt_priority: 0,
            mm: MmId(mm),
            processor: 0,
            has_cpu: false,
            yielded: false,
        }
    }

    fn decision<'a>(snaps: &'a [TaskSnap], chosen: Tid) -> Decision<'a> {
        Decision {
            cpu: 0,
            prev: tid(999),
            idle: tid(0),
            prev_mm: MmId::KERNEL,
            prev_yielded: false,
            prev_runnable: false,
            chosen,
            yield_rerun: false,
            search_limit: 5,
            smp: false,
            topology: Topology::flat(1),
            snaps,
        }
    }

    #[test]
    fn oracle_mode_strips_the_policy_prefix() {
        assert_eq!(OracleMode::for_scheduler("reg"), OracleMode::Strict);
        assert_eq!(OracleMode::for_scheduler("policy:reg"), OracleMode::Strict);
        assert_eq!(OracleMode::for_scheduler("policy:elsc"), OracleMode::Strict);
        assert_eq!(
            OracleMode::for_scheduler("policy:percpu"),
            OracleMode::Strict
        );
        assert_eq!(OracleMode::for_scheduler("policy:rr"), OracleMode::Relaxed);
        assert_eq!(OracleMode::for_scheduler("mq"), OracleMode::Relaxed);
    }

    #[test]
    fn snap_goodness_matches_the_real_goodness() {
        let mut tasks = TaskTable::new();
        let a = tasks.spawn(&TaskSpec::named("a").priority(17).mm(MmId(3)));
        tasks.task_mut(a).counter = 9;
        tasks.task_mut(a).processor = 2;
        let rt = tasks.spawn(&TaskSpec::named("rt").realtime(SchedClass::Rr, 42));
        let flat = Topology::flat(3);
        for t in tasks.iter() {
            for cpu in 0..3 {
                for mm in [MmId(3), MmId(4), MmId::KERNEL] {
                    let s = TaskSnap::of(t);
                    assert_eq!(
                        snap_goodness(&s, s.counter, &flat, cpu, mm),
                        goodness_ignoring_yield(t, cpu, mm),
                        "task {} cpu {cpu} mm {mm:?}",
                        t.name
                    );
                }
            }
        }
        let _ = rt;
    }

    #[test]
    fn snap_goodness_matches_the_topo_goodness() {
        let topo: Topology = "2N4C2T".parse().unwrap();
        let mut tasks = TaskTable::new();
        let a = tasks.spawn(&TaskSpec::named("a").priority(17).mm(MmId(3)));
        tasks.task_mut(a).counter = 9;
        for last in [0, 1, 5, 9, 15] {
            tasks.task_mut(a).processor = last;
            for cpu in 0..16 {
                for mm in [MmId(3), MmId::KERNEL] {
                    let t = tasks.task(a);
                    let s = TaskSnap::of(t);
                    assert_eq!(
                        snap_goodness(&s, s.counter, &topo, cpu, mm),
                        elsc_sched_api::goodness_ignoring_yield_on(&topo, t, cpu, mm),
                        "last {last} cpu {cpu} mm {mm:?}",
                    );
                }
            }
        }
    }

    #[test]
    fn exact_match_is_match() {
        let snaps = [snap(1, 10, 20, 1), snap(2, 5, 20, 1)];
        let mut o = Oracle::new(OracleMode::Strict);
        assert_eq!(o.judge(&decision(&snaps, tid(1))), DivergenceClass::Match);
        assert!(o.report().clean());
    }

    #[test]
    fn equal_goodness_is_a_tie() {
        let snaps = [snap(1, 10, 20, 1), snap(2, 10, 20, 1)];
        let mut o = Oracle::new(OracleMode::Strict);
        // Reference picks the first maximum (task 1); choosing the equal
        // task 2 is an order-of-scan tie.
        assert_eq!(o.judge(&decision(&snaps, tid(2))), DivergenceClass::Tie);
        assert!(o.report().clean());
    }

    #[test]
    fn worse_choice_on_up_is_unexplained() {
        let snaps = [snap(1, 10, 20, 1), snap(2, 5, 20, 1)];
        let mut o = Oracle::new(OracleMode::Strict);
        assert_eq!(
            o.judge(&decision(&snaps, tid(2))),
            DivergenceClass::Unexplained
        );
        assert_eq!(o.report().unexplained, 1);
        assert!(o.report().first_unexplained.is_some());
        assert!(!o.report().clean());
    }

    #[test]
    fn idle_with_work_available_is_unexplained() {
        let snaps = [snap(1, 10, 20, 1)];
        let mut o = Oracle::new(OracleMode::Strict);
        let d = decision(&snaps, tid(0)); // chose idle
        assert_eq!(o.judge(&d), DivergenceClass::Unexplained);
    }

    #[test]
    fn truncated_list_within_slack_is_explained() {
        // Seven tasks in the same list (statics 80..83 clamp to list 19
        // — avoid that; use statics 40..43 -> list 10), limit 5.
        let mut snaps = Vec::new();
        for i in 0..7 {
            snaps.push(snap(i + 1, 20 + (i as i32 % 4), 20, 1));
        }
        // Reference best: counter 23 (say task with i%4==3). Choose a
        // counter-20 task instead: gap 3 <= slack, list holds 7 > 5.
        let best = snaps
            .iter()
            .max_by_key(|s| s.counter)
            .map(|s| s.tid)
            .unwrap();
        let worst = snaps.iter().min_by_key(|s| s.counter).unwrap().tid;
        assert_ne!(best, worst);
        let mut o = Oracle::new(OracleMode::Strict);
        assert_eq!(
            o.judge(&decision(&snaps, worst)),
            DivergenceClass::Truncation
        );
        assert!(o.report().clean());
    }

    #[test]
    fn same_gap_without_truncation_is_unexplained_on_up() {
        // Two tasks, same list, gap 3 — but the list holds only 2 ≤ limit,
        // so the bounded search must have seen both: no excuse.
        let snaps = [snap(1, 23, 20, 1), snap(2, 20, 20, 1)];
        let mut o = Oracle::new(OracleMode::Strict);
        assert_eq!(
            o.judge(&decision(&snaps, tid(2))),
            DivergenceClass::Unexplained
        );
    }

    #[test]
    fn smp_affinity_slack_is_explained() {
        let mut a = snap(1, 12, 20, 1); // static 32
        let mut b = snap(2, 10, 20, 2); // static 30
        a.processor = 1; // affinity elsewhere
        b.processor = 0;
        let snaps = [a, b];
        let mut d = decision(&snaps, tid(2));
        d.smp = true;
        // Reference on cpu 0: a -> 32, b -> 30 + 15 = 45; b wins. Flip:
        // choosing a instead has gap 13 <= 19 -> Affinity.
        let mut o = Oracle::new(OracleMode::Strict);
        d.chosen = tid(1);
        assert_eq!(o.judge(&d), DivergenceClass::Affinity);
    }

    #[test]
    fn smp_same_list_gap_is_unexplained() {
        // The off-by-one comparator the chaos self-test seeds (`w > best
        // + 1`) loses gap-1 picks *within one list*. Both tasks here sit
        // in list 7 and both were provably examined (occupancy 2 ≤ limit
        // 5), so the old blanket "SMP affinity slack" excuse must NOT
        // apply: same-list skips are rejected on SMP exactly as on UP.
        let mut a = snap(1, 11, 20, 1); // static 31 -> list 7
        let mut b = snap(2, 10, 20, 1); // static 30 -> list 7
        a.processor = 0;
        b.processor = 0;
        let snaps = [a, b];
        let mut d = decision(&snaps, tid(2));
        d.smp = true;
        d.topology = Topology::flat(2);
        let mut o = Oracle::new(OracleMode::Strict);
        assert_eq!(o.judge(&d), DivergenceClass::Unexplained);
    }

    #[test]
    fn strict_topology_gap_is_classified_on_multilevel_trees() {
        // 2N4C2T, deciding CPU 0. The reference winner last ran on CPU 1
        // (an SMT sibling: +12); the chosen task last ran on CPU 8 (the
        // other node: +0). Equal statics, so the whole gap is the
        // distance-graded bonus a flat-thinking scheduler cannot see.
        let mut near = snap(1, 10, 20, 1);
        let mut far = snap(2, 10, 20, 1);
        near.processor = 1;
        far.processor = 8;
        let snaps = [near, far];
        let mut d = decision(&snaps, tid(2));
        d.smp = true;
        d.topology = "2N4C2T".parse().unwrap();
        let mut o = Oracle::new(OracleMode::Strict);
        assert_eq!(o.judge(&d), DivergenceClass::Topology);
        assert_eq!(o.report().topology, 1);
        assert!(o.report().clean());
        // The counter serializes only when nonzero, so flat-topology
        // reports (and committed baselines) keep their exact bytes.
        assert!(o.report().to_json().contains("\"topology\":1"));
        assert!(!Oracle::new(OracleMode::Strict)
            .report()
            .to_json()
            .contains("topology"));
    }

    #[test]
    fn relaxed_mode_refines_closer_picks_into_topology() {
        // Relaxed scheduler on a multi-level tree choosing the task whose
        // last CPU is nearer the deciding CPU than the reference winner's:
        // a deliberate locality trade (mq's LLC steal, bubble), logged as
        // Topology rather than generic Design.
        let mut strong_far = snap(1, 30, 20, 1);
        let mut weak_near = snap(2, 10, 20, 1);
        strong_far.processor = 8; // other node
        weak_near.processor = 0; // the deciding CPU itself
        let snaps = [strong_far, weak_near];
        let mut d = decision(&snaps, tid(2));
        d.smp = true;
        d.topology = "2N4C2T".parse().unwrap();
        let mut o = Oracle::new(OracleMode::Relaxed);
        assert_eq!(o.judge(&d), DivergenceClass::Topology);
        // A *farther* pick stays Design.
        let mut d = decision(&snaps, tid(1));
        d.smp = true;
        d.topology = "2N4C2T".parse().unwrap();
        d.cpu = 0;
        // Make the reference prefer the near task so tid(1) diverges.
        let snaps2 = [weak_near, {
            let mut s = strong_far;
            s.counter = 1; // now weaker than near's bonused goodness
            s
        }];
        let mut d2 = decision(&snaps2, tid(2));
        d2.chosen = snaps2[1].tid;
        d2.smp = true;
        d2.topology = "2N4C2T".parse().unwrap();
        let mut o2 = Oracle::new(OracleMode::Relaxed);
        assert_eq!(o2.judge(&d2), DivergenceClass::Design);
        let _ = d;
    }

    #[test]
    fn yield_rerun_is_explained() {
        let mut y = snap(1, 10, 20, 1);
        y.yielded = true;
        let snaps = [y];
        let mut d = decision(&snaps, tid(1));
        d.prev = tid(1);
        d.prev_yielded = true;
        d.prev_runnable = true;
        d.yield_rerun = true;
        // Reference: lone yielder -> c == 0 -> recalc -> prev wins with
        // fresh goodness; expected == prev == chosen -> Match actually.
        // Force the divergent shape: another zero-counter task exists so
        // the reference recalc promotes *it* above the yielder's half
        // quantum.
        let mut parked = snap(2, 0, 40, 1);
        parked.processor = 0;
        let snaps2 = [y, parked];
        let mut d2 = decision(&snaps2, tid(1));
        d2.prev = tid(1);
        d2.prev_yielded = true;
        d2.prev_runnable = true;
        d2.yield_rerun = true;
        let mut o = Oracle::new(OracleMode::Strict);
        assert_eq!(o.judge(&d2), DivergenceClass::YieldRerun);
        let _ = d;
    }

    #[test]
    fn yield_rerun_shadowing_a_lower_list_is_explained() {
        // Regression (found by running the oracle over volano on UP): the
        // bounded search stops at the *first* list holding any candidate,
        // so a yielder in list 10 (static 40) shadows a runnable task in
        // list 9 (static 39). ELSC reruns the yielder; the reference scan
        // zeroes the yielder and picks the lower task — and the rerun
        // yielder's raw goodness (56, yield consumed) even *exceeds* the
        // reference winner's (55). The negative gap must not trip the
        // "better than the reference" rejection.
        let mut y = snap(26, 20, 20, 2); // static 40 -> list 10
        y.yielded = true;
        y.has_cpu = true;
        let other = snap(30, 19, 20, 2); // static 39 -> list 9
        let snaps = [y, other];
        let mut d = decision(&snaps, tid(26));
        d.prev = tid(26);
        d.prev_yielded = true;
        d.prev_runnable = true;
        d.yield_rerun = true;
        let mut o = Oracle::new(OracleMode::Strict);
        assert_eq!(o.judge(&d), DivergenceClass::YieldRerun);
        assert!(o.report().clean());
    }

    #[test]
    fn relaxed_mode_logs_design_divergence() {
        let snaps = [snap(1, 40, 20, 1), snap(2, 5, 20, 1)];
        let mut o = Oracle::new(OracleMode::Relaxed);
        assert_eq!(o.judge(&decision(&snaps, tid(2))), DivergenceClass::Design);
        assert!(o.report().clean());
    }

    #[test]
    fn relaxed_mode_still_rejects_nonrunnable_choices() {
        let snaps = [snap(1, 10, 20, 1)];
        let mut o = Oracle::new(OracleMode::Relaxed);
        assert_eq!(
            o.judge(&decision(&snaps, tid(77))),
            DivergenceClass::Unexplained
        );
    }

    #[test]
    fn reference_recalculates_when_all_quanta_exhausted() {
        let mut a = snap(1, 0, 20, 1);
        let mut b = snap(2, 0, 30, 1);
        a.processor = 0;
        b.processor = 0;
        let snaps = [a, b];
        // After recalc: a -> 20, b -> 30; b wins.
        let mut o = Oracle::new(OracleMode::Strict);
        assert_eq!(o.judge(&decision(&snaps, tid(2))), DivergenceClass::Match);
    }

    #[test]
    fn rt_always_beats_timesharing_in_reference() {
        let mut rt = snap(1, 0, 20, 1);
        rt.rt = true;
        rt.rt_priority = 10;
        let ts = snap(2, 40, 40, 1);
        let snaps = [ts, rt];
        let mut o = Oracle::new(OracleMode::Strict);
        assert_eq!(o.judge(&decision(&snaps, tid(1))), DivergenceClass::Match);
    }

    #[test]
    fn invariant_checker_flags_bad_counters() {
        let mut tasks = TaskTable::new();
        let a = tasks.spawn(&TaskSpec::named("a").priority(20));
        tasks.task_mut(a).counter = 41; // > 2 * 20
        let v = check_task_invariants(&tasks);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("counter 41"));
        tasks.task_mut(a).counter = 40;
        assert!(check_task_invariants(&tasks).is_empty());
    }

    #[test]
    fn oracle_report_json_is_stable() {
        let mut o = Oracle::new(OracleMode::Strict);
        let snaps = [snap(1, 10, 20, 1)];
        o.judge(&decision(&snaps, tid(1)));
        assert_eq!(
            o.report().to_json(),
            "{\"decisions\":1,\"matches\":1,\"ties\":0,\"yield_reruns\":0,\
             \"truncations\":0,\"affinity\":0,\"design\":0,\"unexplained\":0,\
             \"invariant_violations\":0}"
        );
    }

    #[test]
    fn chaos_summary_json_is_stable() {
        let s = ChaosSummary {
            fault_plan: Some("light".into()),
            fault_seed: 99,
            counts: FaultCounts::default(),
            oracle: None,
        };
        let j = s.to_json();
        assert!(j.starts_with("{\"fault_plan\":\"light\",\"fault_seed\":99,\"faults\":{"));
        let s2 = ChaosSummary {
            fault_plan: None,
            ..s
        };
        assert!(s2.to_json().starts_with("{\"fault_plan\":null,"));
    }

    #[test]
    fn judging_reuses_the_counter_scratch() {
        // 57 runnable tasks per decision is the observed volano average;
        // the first judged decision sizes the scratch, the rest reuse it —
        // including decisions that take the recalculation pass.
        let snaps: Vec<TaskSnap> = (0..57).map(|i| snap(i + 1, i as i32 % 7, 20, 1)).collect();
        let exhausted: Vec<TaskSnap> = (0..57).map(|i| snap(i + 1, 0, 20 + i as i32, 1)).collect();
        let mut o = Oracle::new(OracleMode::Strict);
        o.judge_full(&decision(&snaps, tid(7)));
        let (ptr, cap) = (o.scratch.as_ptr(), o.scratch.capacity());
        assert!(cap >= snaps.len());
        for i in 0..1000 {
            let (set, chosen) = if i % 2 == 0 {
                (&snaps, tid(7))
            } else {
                (&exhausted, tid(57))
            };
            assert_eq!(
                o.judge_full(&decision(set, chosen)).class,
                DivergenceClass::Match
            );
            assert_eq!((o.scratch.as_ptr(), o.scratch.capacity()), (ptr, cap));
        }
        assert_eq!(o.report().decisions, 1001);
        assert!(o.report().clean());
    }

    #[test]
    fn record_violations_keeps_first_detail() {
        let mut o = Oracle::new(OracleMode::Strict);
        o.record_violations(&["first".into(), "second".into()]);
        o.record_violations(&["third".into()]);
        assert_eq!(o.report().invariant_violations, 3);
        assert_eq!(o.report().first_violation.as_deref(), Some("first"));
    }
}
