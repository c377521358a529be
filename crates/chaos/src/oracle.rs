//! The differential oracle: answer what the baseline O(n) `goodness()`
//! scan would pick, beside the scheduler under test, and classify every
//! divergence.
//!
//! On every `schedule()` call the machine freezes the runnable set
//! *before* handing control to the scheduler ([`RunnableSet`]), lets the
//! scheduler decide, then asks [`Oracle::judge`] for Linux 2.3.99's
//! reference pick over the frozen set and compares. The set files its
//! members in a goodness index as they change — keyed by static goodness
//! and slot, split by last CPU, with the dynamic bonuses bounded the way
//! ELSC bounds them (paper §5) — so the reference pick's first pass and
//! the `Truncation` list count are read from the index; only the
//! recalculation pass walks the members, and a debug build walks every
//! decision to hold the index to the walk. A divergence is only
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
use elsc_sched_api::order::{rank, Member, Members};
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

/// The positions of the set bits of `word`, lowest first.
fn bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            b
        })
    })
}

/// A set of task-table slots, one bit each.
#[derive(Clone, Debug, Default)]
pub struct SlotSet(Vec<u64>);

impl SlotSet {
    /// Adds (`member`) or removes slot `idx`.
    pub fn set(&mut self, idx: usize, member: bool) {
        let (word, bit) = (idx / 64, 1u64 << (idx % 64));
        if word >= self.0.len() {
            if !member {
                return;
            }
            self.0.resize(word + 1, 0);
        }
        if member {
            self.0[word] |= bit;
        } else {
            self.0[word] &= !bit;
        }
    }

    /// Whether slot `idx` is a member.
    pub fn contains(&self, idx: usize) -> bool {
        self.0
            .get(idx / 64)
            .is_some_and(|w| w & (1u64 << (idx % 64)) != 0)
    }

    /// The members in ascending slot order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let words = self.0.iter().enumerate();
        words.flat_map(|(w, &word)| bits(word).map(move |b| w * 64 + b))
    }

    /// Visits the members in ascending slot order and drops those `keep`
    /// returns `false` for.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for (w, word) in self.0.iter_mut().enumerate() {
            for b in bits(*word) {
                if !keep(w * 64 + b) {
                    *word &= !(1u64 << b);
                }
            }
        }
    }
}

/// The ELSC table's list count: 20 time-sharing lists, 10 real-time.
const NR_LISTS: usize = 30;

/// Which set of the goodness index a member is filed in, and under what
/// static part: the split [`snap_goodness`] makes — a static part plus
/// bonuses that depend only on the deciding CPU and `prev->mm`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Filing {
    /// Real-time (`1000 + rt_priority`) or out of quantum (0): the whole
    /// goodness, in `flat`.
    Flat(i32),
    /// Anyone else: `counter + priority`, in `by_cpu[processor]`.
    Cpu(CpuId, i32),
}

impl Filing {
    fn of(s: &TaskSnap) -> Filing {
        if s.rt {
            Filing::Flat(RT_GOODNESS_BASE + s.rt_priority)
        } else if s.counter == 0 {
            Filing::Flat(0)
        } else {
            Filing::Cpu(s.processor, s.counter + s.priority)
        }
    }
}

/// The members filed by static goodness, so that a decision's first
/// pass and its `Truncation` count need not walk them. Every set is keyed
/// by (static part, slot): the slot is the tie stamp, so the lowest slot
/// wins a tie, as it does in the walk.
///
/// A member running on a CPU (`has_cpu`, *held*) stays in its set, and
/// the query steps over it on SMP: every context switch sets `has_cpu` on
/// one task and clears it on another, so a held member that left its set
/// would cost a set edit per toggle, two per switch.
#[derive(Default)]
struct GoodnessIndex {
    flat: Members,
    by_cpu: Vec<Members>,
    /// The slots of the held members, in no order.
    held: Vec<u32>,
    /// Members per ELSC list at their own counter, held ones included.
    lists: [u32; NR_LISTS],
}

impl GoodnessIndex {
    /// Moves slot `slot` from its filing as `old` to its filing as `new`
    /// (`None`: not a member), touching only what differs.
    fn refile(&mut self, slot: usize, old: Option<&TaskSnap>, new: Option<&TaskSnap>) {
        let list = |s: Option<&TaskSnap>| s.map(|s| snap_list(s, s.counter));
        if list(old) != list(new) {
            if let Some(l) = list(old) {
                self.lists[l] -= 1;
            }
            if let Some(l) = list(new) {
                self.lists[l] += 1;
            }
        }
        let held = |s: Option<&TaskSnap>| s.is_some_and(|s| s.has_cpu);
        if held(old) != held(new) {
            if held(new) {
                self.held.push(slot as u32);
            } else {
                let at = self.held.iter().position(|&h| h as usize == slot);
                self.held.swap_remove(at.expect("held slot filed"));
            }
        }
        let filing = |s: Option<&TaskSnap>| s.map(|s| (Filing::of(s), s.mm));
        if filing(old) == filing(new) {
            return;
        }
        if let Some((f, _)) = filing(old) {
            let (set, g) = self.set_mut(f);
            set.remove(rank(g, slot as i64));
        }
        if let Some((f, mm)) = filing(new) {
            let (set, g) = self.set_mut(f);
            set.insert(Member::new(g, slot as i64, slot, mm));
        }
    }

    /// The set `f` files into, and the static part it files under.
    fn set_mut(&mut self, f: Filing) -> (&mut Members, i32) {
        match f {
            Filing::Flat(g) => (&mut self.flat, g),
            Filing::Cpu(p, g) => {
                if p >= self.by_cpu.len() {
                    self.by_cpu.resize_with(p + 1, Members::default);
                }
                (&mut self.by_cpu[p], g)
            }
        }
    }
}

/// The runnable set a decision is judged against, stored by task-table
/// slot: one [`TaskSnap`] per slot that ever held a runnable task, and a
/// membership bit saying which of them are runnable now. The machine keeps
/// one current from the task table's change log, refreshing only the slots
/// it hands over, and lends it to the judge as it stood before the
/// decision; a test builds one from a list of snaps. Idle tasks are never
/// members. `insert` and `remove` also keep the members filed in a
/// goodness index, which answers the judge's first pass and list
/// occupancy.
#[derive(Default)]
pub struct RunnableSet {
    /// Indexed by slot; the entry of a non-member slot is stale.
    snaps: Vec<TaskSnap>,
    members: SlotSet,
    len: usize,
    index: GoodnessIndex,
}

impl RunnableSet {
    /// Makes `snap` the member for its task's slot.
    pub fn insert(&mut self, snap: TaskSnap) {
        let idx = snap.tid.index();
        if idx >= self.snaps.len() {
            // The filler is stale from the start: its slots are not members.
            self.snaps.resize(idx + 1, snap);
        }
        let old = self.members.contains(idx).then(|| self.snaps[idx]);
        if old == Some(snap) {
            return;
        }
        if old.is_none() {
            self.members.set(idx, true);
            self.len += 1;
        }
        self.index.refile(idx, old.as_ref(), Some(&snap));
        self.snaps[idx] = snap;
    }

    /// Drops slot `idx` from the set.
    pub fn remove(&mut self, idx: usize) {
        if self.members.contains(idx) {
            self.index.refile(idx, Some(&self.snaps[idx]), None);
            self.members.set(idx, false);
            self.len -= 1;
        }
    }

    /// `tid`'s snap, if `tid` is a member: the slot is in the set and holds
    /// this generation, so a stale handle to a reused slot finds nothing.
    pub fn get(&self, tid: Tid) -> Option<&TaskSnap> {
        let idx = tid.index();
        let s = self.members.contains(idx).then(|| &self.snaps[idx])?;
        (s.tid == tid).then_some(s)
    }

    /// The members in ascending slot order, which is task-table order.
    pub fn iter(&self) -> impl Iterator<Item = &TaskSnap> + '_ {
        self.members.iter().map(|idx| &self.snaps[idx])
    }

    /// How many members there are.
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

/// The members only: the stale slots and the goodness index would bury a
/// failed check's message.
impl std::fmt::Debug for RunnableSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
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
    /// The frozen runnable set (`prev` included only if still runnable).
    pub runnable: &'a RunnableSet,
}

impl Decision<'_> {
    /// The counter the reference replay gives `s`: an exhausted
    /// `SCHED_RR` prev has its quantum refreshed before selection, in both
    /// the reference and ELSC, and the recalculation pass halves and refills.
    fn counter(&self, s: &TaskSnap, recalced: bool) -> i32 {
        let c = if s.tid == self.prev && s.rr && s.counter == 0 {
            s.priority
        } else {
            s.counter
        };
        if recalced {
            (c >> 1) + s.priority
        } else {
            c
        }
    }

    /// Reference goodness of `s` on this decision.
    fn goodness(&self, s: &TaskSnap, recalced: bool) -> i32 {
        let counter = self.counter(s, recalced);
        snap_goodness(s, counter, &self.topology, self.cpu, self.prev_mm)
    }
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
    /// Whether the replay took the recalculation pass: every counter the
    /// classification reads is [`Decision::counter`] under this flag.
    recalced: bool,
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
    /// Snapshot members the judge walked: the recalculation passes and
    /// their occupancy counts; the index answers everything else. A host
    /// cost count, never serialized.
    pub walked: u64,
    /// The members of the frozen sets of the decisions that took the
    /// recalculation pass. Never serialized.
    pub recalc_members: u64,
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
/// report. Pure observer — owns no task state, charges no cycles, and
/// allocates nothing per decision. It reads the reference pick from the
/// frozen set's goodness index with its own query — not reg's, so one
/// wrong query cannot both make a pick and approve it — and walks the set
/// only on the recalculation pass.
#[derive(Clone, Debug)]
pub struct Oracle {
    mode: OracleMode,
    report: OracleReport,
}

impl Oracle {
    /// Builds an oracle in the given mode.
    pub fn new(mode: OracleMode) -> Oracle {
        Oracle {
            mode,
            report: OracleReport::default(),
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

    /// Where the reference scan starts a pass: `prev` if it is still
    /// runnable — considered first, so it wins all ties; its
    /// `SCHED_YIELD` counts for the first pass only — else idle.
    fn start(d: &Decision<'_>, recalced: bool) -> (i32, Tid) {
        match d.runnable.get(d.prev) {
            None => (IDLE_GOODNESS, d.idle),
            Some(_) if d.prev_yielded && !recalced => (0, d.prev),
            Some(p) => (d.goodness(p, recalced), d.prev),
        }
    }

    /// One pass of the reference scan, walked: the strict `goodness()`
    /// maximum over every member `can_schedule()` admits, from
    /// [`start`](Oracle::start). Adds the members it visits to `visited`.
    fn walk_pass(d: &Decision<'_>, recalced: bool, visited: &mut u64) -> (i32, Tid) {
        let (mut c, mut next) = Self::start(d, recalced);
        for s in d.runnable.iter() {
            *visited += 1;
            // can_schedule(): skip tasks executing on a CPU (which skips
            // prev too — it was counted above).
            let skip = if d.smp { s.has_cpu } else { s.tid == d.prev };
            if skip {
                continue;
            }
            let w = d.goodness(s, recalced);
            if w > c {
                c = w;
                next = s.tid;
            }
        }
        (c, next)
    }

    /// The first pass's best candidate other than `prev`, from the goodness
    /// index: the `flat` head against each `by_cpu[p]` head lifted by `p`'s
    /// affinity bonus — or, when [`MM_BONUS`] lifts one past the head, by
    /// the first member that shares `prev`'s address space. A set whose
    /// head cannot reach the best so far is ruled out by the head alone.
    /// Lifted members rank as the walk picks: higher goodness, then lower
    /// slot. Heads are the first members `can_schedule()` admits: on SMP
    /// none that is held, on UP anyone but `prev`.
    fn indexed_best(d: &Decision<'_>) -> Option<Member> {
        let set = d.runnable;
        let prev = set.get(d.prev).map_or(u32::MAX, |_| d.prev.index() as u32);
        let admits = |m: &&Member| match d.smp {
            true => !set.snaps[m.slot as usize].has_cpu,
            false => m.slot != prev,
        };
        let index = &set.index;
        let mut best = index.flat.0.iter().rev().find(admits).copied();
        // The deciding CPU's own set first: its bonus is the largest, so
        // the other sets can mostly be ruled out by their head.
        let own = (d.cpu < index.by_cpu.len()).then_some(d.cpu);
        let others = (0..index.by_cpu.len()).filter(|&p| p != d.cpu);
        for p in own.into_iter().chain(others) {
            let mut order = index.by_cpu[p].0.iter().rev().filter(admits);
            let Some(&head) = order.next() else {
                continue;
            };
            let bonus = topo_affinity_bonus(&d.topology, d.cpu, p);
            if best.is_some_and(|b| head.goodness() + bonus + MM_BONUS < b.goodness()) {
                continue;
            }
            let kin = if head.mm == d.prev_mm {
                head.lifted(MM_BONUS)
            } else {
                order
                    .map(|m| m.lifted(MM_BONUS))
                    .take_while(|m| m.rank() > head.rank())
                    .find(|m| m.mm == d.prev_mm)
                    .unwrap_or(head)
            };
            let g = kin.lifted(bonus);
            if best.is_none_or(|b| g.rank() > b.rank()) {
                best = Some(g);
            }
        }
        best
    }

    /// Replays the reference `schedule()` semantics over the frozen set:
    /// previous-task-first (ties go to `prev`), strict `goodness()` maximum
    /// over every task not executing elsewhere, and the system-wide
    /// counter recalculation when the best weight is 0. The first pass is
    /// answered from the set's goodness index; only the recalculation pass
    /// walks the members. Counters are derived, not copied.
    fn reference_pick(&mut self, d: &Decision<'_>) -> RefOutcome {
        let (mut c, mut next) = Self::start(d, false);
        if let Some(b) = Self::indexed_best(d).filter(|b| b.goodness() > c) {
            (c, next) = (b.goodness(), d.runnable.snaps[b.slot as usize].tid);
        }
        let recalced = c == 0;
        if recalced {
            // Every candidate out of quantum (or a lone yielder): the
            // reference recalculates every counter and scans again.
            self.report.recalc_members += d.runnable.len() as u64;
            (c, next) = Self::walk_pass(d, true, &mut self.report.walked);
        }
        RefOutcome {
            expected: next,
            expected_g: c,
            recalced,
        }
    }

    /// [`reference_pick`](Oracle::reference_pick) with both passes walked:
    /// what a debug build holds the index to on every decision.
    #[cfg(debug_assertions)]
    fn walked_pick(d: &Decision<'_>) -> RefOutcome {
        let (c, next) = Self::walk_pass(d, false, &mut 0);
        let recalced = c == 0;
        let (c, next) = if recalced {
            Self::walk_pass(d, true, &mut 0)
        } else {
            (c, next)
        };
        RefOutcome {
            expected: next,
            expected_g: c,
            recalced,
        }
    }

    /// How many members of ELSC list `list` the bounded search could
    /// examine on this decision — all but those running on another CPU —
    /// capped at one past the search limit. Read from the index's list
    /// counts; the recalculation pass moves every counter, so after it the
    /// members are walked.
    fn occupancy(&mut self, d: &Decision<'_>, r: &RefOutcome, list: usize) -> usize {
        let cap = d.search_limit + 1;
        let walk = |visited: &mut u64| {
            let eligible = d.runnable.iter().filter(|s| {
                *visited += 1;
                !(d.smp && s.has_cpu && s.processor != d.cpu)
                    && snap_list(s, d.counter(s, r.recalced)) == list
            });
            eligible.take(cap).count()
        };
        if r.recalced {
            return walk(&mut self.report.walked);
        }
        // An exhausted RR prev's quantum refresh moves neither its goodness
        // nor its list: real-time lists ignore the counter.
        let set = d.runnable;
        let elsewhere = set.index.held.iter().filter(|&&slot| {
            let s = &set.snaps[slot as usize];
            d.smp && s.processor != d.cpu && snap_list(s, s.counter) == list
        });
        let n = (set.index.lists[list] as usize - elsewhere.count()).min(cap);
        debug_assert_eq!(n, walk(&mut 0), "list occupancy index != the walk");
        n
    }

    /// Judges one decision, updates the report, and returns the class.
    pub fn judge(&mut self, d: &Decision<'_>) -> DivergenceClass {
        self.judge_full(d).class
    }

    /// Judges one decision, updates the report, and returns the full
    /// verdict (class plus the reference pick).
    pub fn judge_full(&mut self, d: &Decision<'_>) -> Verdict {
        self.report.decisions += 1;
        let r = self.reference_pick(d);
        #[cfg(debug_assertions)]
        {
            let w = Self::walked_pick(d);
            assert_eq!(
                (r.expected, r.expected_g, r.recalced),
                (w.expected, w.expected_g, w.recalced),
                "goodness index != the reference walk: {d:?}"
            );
        }
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
                    let chosen_g = Self::eval(d, &r, d.runnable.get(d.chosen));
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
        Verdict {
            class,
            expected: r.expected,
        }
    }

    /// Reference goodness, under the replay's final counters, of a task
    /// found in the runnable set — or of idle or a non-runnable task.
    fn eval(d: &Decision<'_>, r: &RefOutcome, s: Option<&TaskSnap>) -> i32 {
        s.map_or(IDLE_GOODNESS, |s| d.goodness(s, r.recalced))
    }

    fn classify(&mut self, d: &Decision<'_>, r: &RefOutcome) -> DivergenceClass {
        if d.chosen == r.expected {
            return DivergenceClass::Match;
        }
        let chosen = d.runnable.get(d.chosen);
        if d.chosen != d.idle && chosen.is_none() {
            // Chose a task that was not runnable when the decision began:
            // never explainable, in any mode.
            return DivergenceClass::Unexplained;
        }
        let expected = d.runnable.get(r.expected);
        let near = |s: &TaskSnap| topo_affinity_bonus(&d.topology, d.cpu, s.processor);
        if self.mode == OracleMode::Relaxed {
            // §8 prototypes: different contracts by design (no dynamic
            // bonuses, per-queue visibility, steal thresholds). On a
            // multi-level tree, refine the log: a pick that is
            // topologically *closer* to the deciding CPU than the
            // reference winner is a locality-motivated divergence (the
            // bubble scheduler and mq's LLC-aware steal do this on
            // purpose), not a generic design gap.
            if !d.topology.is_flat() {
                if let (Some(c), Some(e)) = (chosen, expected) {
                    if near(c) > near(e) {
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
        let gap = r.expected_g - Self::eval(d, r, chosen);
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
        let Some(e) = expected.filter(|_| gap <= BOUNDED_SLACK) else {
            return DivergenceClass::Unexplained;
        };
        let list_of = |s: &TaskSnap| snap_list(s, d.counter(s, r.recalced));
        // Truncation: the list the reference winner lives in held more
        // eligible tasks than the bounded search examines, so ELSC
        // provably could not have seen every candidate.
        let list = list_of(e);
        if self.occupancy(d, r, list) > d.search_limit {
            return DivergenceClass::Truncation;
        }
        if let Some(c) = chosen {
            if !d.topology.is_flat() && near(e) > near(c) {
                // Multi-level tree: the reference winner was favoured by a
                // distance-graded bonus the chosen task did not earn. A
                // scheduler (or interpreted policy) reasoning with the flat
                // model loses exactly this much — a locality-motivated
                // gap, classified, still bounded by the slack.
                return DivergenceClass::Topology;
            }
            if d.smp && list < list_of(c) {
                // The bounded search walks lists from the highest static
                // bucket down and stops at the first list holding any
                // candidate, so a reference winner in a *strictly lower*
                // list — carried above the chosen task only by dynamic
                // affinity/mm bonuses (≤ 16) plus the bucket spread (≤ 3)
                // — is slack it documents trading for O(1) decisions. A
                // same-list winner within the limit was examined, and
                // skipping it is NOT explainable: requiring the
                // strictly-lower list is what lets the oracle reject an
                // off-by-one comparator on SMP, not just on UP.
                return DivergenceClass::Affinity;
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
        task_invariants(tasks, t, &mut out);
    }
    out
}

/// The run-queue invariants of one task: `counter ∈ [0, 2·priority]` and
/// list-linkage coherence (`in_list() ⇒ on_runqueue()`; a zombie must
/// never stay linked). Appends one description per violation to `out`.
/// Reads nothing but `t` (and, for a violation, its name in `tasks`), so
/// a task that passed keeps passing until it is next handed out mutably.
pub fn task_invariants(tasks: &TaskTable, t: &Task, out: &mut Vec<String>) {
    if t.counter < 0 || t.counter > 2 * t.priority {
        out.push(format!(
            "task {} '{}': counter {} outside [0, {}]",
            t.tid.index(),
            tasks.name(t.tid),
            t.counter,
            2 * t.priority
        ));
    }
    if t.in_list() && !t.on_runqueue() {
        out.push(format!(
            "task {} '{}': linked into a run-queue list but not marked on-queue",
            t.tid.index(),
            tasks.name(t.tid)
        ));
    }
    if t.state == elsc_ktask::TaskState::Zombie && t.in_list() {
        out.push(format!(
            "task {} '{}': zombie still linked into a run-queue list",
            t.tid.index(),
            tasks.name(t.tid)
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

/// The judge as it was before the slot-indexed view: a dense copy of the
/// runnable set, a counter scratch vector and a search per lookup. Kept as
/// the reference the one-pass judge is compared against, verdict for
/// verdict and report for report.
#[cfg(test)]
mod reference {
    use super::*;

    struct RefOutcome {
        expected: Tid,
        expected_g: i32,
        counters: Vec<i32>,
    }

    pub(super) struct Oracle {
        pub(super) mode: OracleMode,
        pub(super) report: OracleReport,
        pub(super) scratch: Vec<i32>,
    }

    impl Oracle {
        /// Replays the reference `schedule()` semantics over the frozen
        /// snapshot: previous-task-first (ties go to `prev`), strict
        /// `goodness()` maximum over every task not executing elsewhere, and
        /// the system-wide counter recalculation when the best weight is 0.
        /// `counters` is scratch: its contents are overwritten, its
        /// allocation reused, and it comes back inside the outcome.
        fn reference_pick(
            d: &Decision<'_>,
            snaps: &[TaskSnap],
            mut counters: Vec<i32>,
        ) -> RefOutcome {
            counters.clear();
            counters.extend(snaps.iter().map(|s| s.counter));
            let prev_idx = snaps.iter().position(|s| s.tid == d.prev);
            // An exhausted SCHED_RR prev gets its quantum refreshed before
            // selection, in both the reference and ELSC.
            if let Some(i) = prev_idx {
                if snaps[i].rr && counters[i] == 0 {
                    counters[i] = snaps[i].priority;
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
                        snap_goodness(&snaps[i], counters[i], &d.topology, d.cpu, d.prev_mm)
                    };
                    next = d.prev;
                }
                for (i, s) in snaps.iter().enumerate() {
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
                for (i, s) in snaps.iter().enumerate() {
                    counters[i] = (counters[i] >> 1) + s.priority;
                }
                recalced = true;
            }
        }

        /// Judges one decision, updates the report, and returns the full
        /// verdict (class plus the reference pick).
        pub(super) fn judge_full(&mut self, d: &Decision<'_>) -> Verdict {
            self.report.decisions += 1;
            let snaps: Vec<TaskSnap> = d.runnable.iter().copied().collect();
            let r = Self::reference_pick(d, &snaps, std::mem::take(&mut self.scratch));
            let class = self.classify(d, &snaps, &r);
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
                        let chosen_g = Self::eval(d, &snaps, &r, d.chosen);
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
        fn eval(d: &Decision<'_>, snaps: &[TaskSnap], r: &RefOutcome, tid: Tid) -> i32 {
            if tid == d.idle {
                return IDLE_GOODNESS;
            }
            match snaps.iter().position(|s| s.tid == tid) {
                Some(i) => snap_goodness(&snaps[i], r.counters[i], &d.topology, d.cpu, d.prev_mm),
                None => IDLE_GOODNESS, // not in the runnable set at all
            }
        }

        fn classify(
            &self,
            d: &Decision<'_>,
            snaps: &[TaskSnap],
            r: &RefOutcome,
        ) -> DivergenceClass {
            if d.chosen == r.expected {
                return DivergenceClass::Match;
            }
            if d.chosen != d.idle && !snaps.iter().any(|s| s.tid == d.chosen) {
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
                        snaps
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
            let chosen_g = Self::eval(d, snaps, r, d.chosen);
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
                let chosen_i = snaps.iter().position(|s| s.tid == d.chosen);
                // Truncation: the list the reference winner lives in held
                // more eligible tasks than the bounded search examines, so
                // ELSC provably could not have seen every candidate.
                if let Some(ei) = snaps.iter().position(|s| s.tid == r.expected) {
                    let list = snap_list(&snaps[ei], r.counters[ei]);
                    let occupancy = snaps
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
                        let chosen_list = snap_list(&snaps[ci], r.counters[ci]);
                        if !d.topology.is_flat() {
                            // Multi-level tree: the reference winner was
                            // favoured by a distance-graded bonus the chosen
                            // task did not earn. A scheduler (or interpreted
                            // policy) reasoning with the flat model loses
                            // exactly this much — a locality-motivated gap,
                            // classified, still bounded by the slack.
                            let e_near =
                                topo_affinity_bonus(&d.topology, d.cpu, snaps[ei].processor);
                            let c_near =
                                topo_affinity_bonus(&d.topology, d.cpu, snaps[ci].processor);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsc_ktask::{SchedClass, TaskSpec, TaskTable};
    use elsc_sched_api::goodness_ignoring_yield_on;
    use elsc_simcore::SimRng;

    fn tid(i: u32) -> Tid {
        Tid::from_raw(i, 0)
    }

    /// The set holding exactly `list`, one snap per slot.
    fn runnable(list: &[TaskSnap]) -> RunnableSet {
        let mut set = RunnableSet::default();
        for &s in list {
            assert!(set.get(s.tid).is_none(), "slot {} twice", s.tid.index());
            set.insert(s);
        }
        set
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

    fn decision(runnable: &RunnableSet, chosen: Tid) -> Decision<'_> {
        Decision {
            cpu: 0,
            prev: tid(999),
            idle: tid(0),
            prev_mm: MmId::KERNEL,
            prev_yielded: false,
            chosen,
            yield_rerun: false,
            search_limit: 5,
            smp: false,
            topology: Topology::flat(1),
            runnable,
        }
    }

    #[test]
    fn a_set_prints_only_its_members() {
        let (a, b, c) = (snap(1, 5, 20, 1), snap(2, 6, 20, 1), snap(3, 7, 20, 1));
        let mut set = runnable(&[a, b, c]);
        set.remove(b.tid.index());
        assert_eq!(format!("{set:?}"), format!("{:?}", [a, c]));
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
                        goodness_ignoring_yield_on(&flat, t, cpu, mm),
                        "task {} cpu {cpu} mm {mm:?}",
                        tasks.name(t.tid)
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
        assert_eq!(
            o.judge(&decision(&runnable(&snaps), tid(1))),
            DivergenceClass::Match
        );
        assert!(o.report().clean());
    }

    #[test]
    fn equal_goodness_is_a_tie() {
        let snaps = [snap(1, 10, 20, 1), snap(2, 10, 20, 1)];
        let mut o = Oracle::new(OracleMode::Strict);
        // Reference picks the first maximum (task 1); choosing the equal
        // task 2 is an order-of-scan tie.
        assert_eq!(
            o.judge(&decision(&runnable(&snaps), tid(2))),
            DivergenceClass::Tie
        );
        assert!(o.report().clean());
    }

    #[test]
    fn worse_choice_on_up_is_unexplained() {
        let snaps = [snap(1, 10, 20, 1), snap(2, 5, 20, 1)];
        let mut o = Oracle::new(OracleMode::Strict);
        assert_eq!(
            o.judge(&decision(&runnable(&snaps), tid(2))),
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
        let set = runnable(&snaps);
        let d = decision(&set, tid(0)); // chose idle
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
            o.judge(&decision(&runnable(&snaps), worst)),
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
            o.judge(&decision(&runnable(&snaps), tid(2))),
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
        let set = runnable(&snaps);
        let mut d = decision(&set, tid(2));
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
        let set = runnable(&snaps);
        let mut d = decision(&set, tid(2));
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
        let set = runnable(&snaps);
        let mut d = decision(&set, tid(2));
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
        let set = runnable(&snaps);
        let mut d = decision(&set, tid(2));
        d.smp = true;
        d.topology = "2N4C2T".parse().unwrap();
        let mut o = Oracle::new(OracleMode::Relaxed);
        assert_eq!(o.judge(&d), DivergenceClass::Topology);
        // A *farther* pick stays Design.
        let set = runnable(&snaps);
        let mut d = decision(&set, tid(1));
        d.smp = true;
        d.topology = "2N4C2T".parse().unwrap();
        d.cpu = 0;
        // Make the reference prefer the near task so tid(1) diverges.
        let snaps2 = [weak_near, {
            let mut s = strong_far;
            s.counter = 1; // now weaker than near's bonused goodness
            s
        }];
        let set2 = runnable(&snaps2);
        let mut d2 = decision(&set2, tid(2));
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
        let set = runnable(&snaps);
        let mut d = decision(&set, tid(1));
        d.prev = tid(1);
        d.prev_yielded = true;
        d.yield_rerun = true;
        // Reference: lone yielder -> c == 0 -> recalc -> prev wins with
        // fresh goodness; expected == prev == chosen -> Match actually.
        // Force the divergent shape: another zero-counter task exists so
        // the reference recalc promotes *it* above the yielder's half
        // quantum.
        let mut parked = snap(2, 0, 40, 1);
        parked.processor = 0;
        let snaps2 = [y, parked];
        let set2 = runnable(&snaps2);
        let mut d2 = decision(&set2, tid(1));
        d2.prev = tid(1);
        d2.prev_yielded = true;
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
        let set = runnable(&snaps);
        let mut d = decision(&set, tid(26));
        d.prev = tid(26);
        d.prev_yielded = true;
        d.yield_rerun = true;
        let mut o = Oracle::new(OracleMode::Strict);
        assert_eq!(o.judge(&d), DivergenceClass::YieldRerun);
        assert!(o.report().clean());
    }

    #[test]
    fn relaxed_mode_logs_design_divergence() {
        let snaps = [snap(1, 40, 20, 1), snap(2, 5, 20, 1)];
        let mut o = Oracle::new(OracleMode::Relaxed);
        assert_eq!(
            o.judge(&decision(&runnable(&snaps), tid(2))),
            DivergenceClass::Design
        );
        assert!(o.report().clean());
    }

    #[test]
    fn relaxed_mode_still_rejects_nonrunnable_choices() {
        let snaps = [snap(1, 10, 20, 1)];
        let mut o = Oracle::new(OracleMode::Relaxed);
        assert_eq!(
            o.judge(&decision(&runnable(&snaps), tid(77))),
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
        assert_eq!(
            o.judge(&decision(&runnable(&snaps), tid(2))),
            DivergenceClass::Match
        );
    }

    #[test]
    fn rt_always_beats_timesharing_in_reference() {
        let mut rt = snap(1, 0, 20, 1);
        rt.rt = true;
        rt.rt_priority = 10;
        let ts = snap(2, 40, 40, 1);
        let snaps = [ts, rt];
        let mut o = Oracle::new(OracleMode::Strict);
        assert_eq!(
            o.judge(&decision(&runnable(&snaps), tid(1))),
            DivergenceClass::Match
        );
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
        o.judge(&decision(&runnable(&snaps), tid(1)));
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
    fn judging_keeps_the_views_buffers() {
        // 57 runnable tasks per decision is the observed volano average.
        // Between decisions the set is refreshed the way the machine's
        // change log refreshes it: members rewritten in place, one leaving
        // and coming back. The set's own buffers never move or grow; the
        // index's do only while the first two decisions file every member
        // both ways. The judge needs no buffer of its own — including on
        // the decisions that take the recalculation pass.
        let fresh: Vec<TaskSnap> = (0..57).map(|i| snap(i + 1, i as i32 % 7, 20, 1)).collect();
        let exhausted: Vec<TaskSnap> = (0..57).map(|i| snap(i + 1, 0, 20 + i as i32, 1)).collect();
        let mut set = runnable(&fresh);
        let views = |set: &RunnableSet| {
            let (snaps, members) = (&set.snaps, &set.members.0);
            (
                snaps.as_ptr(),
                snaps.capacity(),
                members.as_ptr(),
                members.capacity(),
            )
        };
        let index = |set: &RunnableSet| {
            let index = &set.index;
            let sets = std::iter::once(&index.flat.0).chain(index.by_cpu.iter().map(|m| &m.0));
            let mut all: Vec<(usize, usize)> =
                sets.map(|v| (v.as_ptr() as usize, v.capacity())).collect();
            all.extend([
                (index.by_cpu.as_ptr() as usize, index.by_cpu.capacity()),
                (index.held.as_ptr() as usize, index.held.capacity()),
            ]);
            all
        };
        let before = views(&set);
        let mut index_before = Vec::new();
        let mut o = Oracle::new(OracleMode::Strict);
        for i in 0..1000 {
            let (snaps, chosen) = if i % 2 == 0 {
                (&fresh, tid(7))
            } else {
                (&exhausted, tid(57))
            };
            set.remove(1 + i % 57);
            for &s in snaps {
                set.insert(s);
            }
            assert_eq!(
                o.judge_full(&decision(&set, chosen)).class,
                DivergenceClass::Match
            );
            assert_eq!(views(&set), before, "decision {i}");
            match (i, index(&set)) {
                (0, _) => {}
                (1, now) => index_before = now,
                (_, now) => assert_eq!(now, index_before, "decision {i}"),
            }
        }
        assert_eq!(o.report().decisions, 1000);
        assert!(o.report().clean());
        assert_eq!(o.report().recalc_members, 500 * 57);
    }

    #[test]
    fn record_violations_keeps_first_detail() {
        let mut o = Oracle::new(OracleMode::Strict);
        o.record_violations(&["first".into(), "second".into()]);
        o.record_violations(&["third".into()]);
        assert_eq!(o.report().invariant_violations, 3);
        assert_eq!(o.report().first_violation.as_deref(), Some("first"));
    }

    /// The persistent runnable set [`one_pass_judge_equals_the_dense_reference`]
    /// judges against, mutated between decisions as the machine's change
    /// log refreshes it, so the index is updated in place rather than
    /// rebuilt: members re-inserted with another counter, processor,
    /// `has_cpu`, class or address space, members removed, new members
    /// inserted — into a free slot, or over a member's slot under a new
    /// generation.
    struct Churn {
        set: RunnableSet,
        /// A crowd of near-equal tasks makes ties and long lists.
        crowd: bool,
        /// The most members a decision draws.
        most: u64,
        /// Inserts over a member's slot that changed its snap.
        refiles: u64,
        /// The last decision's `prev` as it was before it ran, if it was
        /// a member.
        last_prev: Option<TaskSnap>,
        /// Whether the last decision ran everyone out of quantum.
        exhausted: bool,
    }

    impl Churn {
        fn new() -> Churn {
            Churn {
                set: RunnableSet::default(),
                crowd: false,
                most: 6,
                refiles: 0,
                last_prev: None,
                exhausted: false,
            }
        }

        fn slots(&self) -> Vec<usize> {
            self.set.iter().map(|s| s.tid.index()).collect()
        }

        fn any_member(&self, rng: &mut SimRng) -> Option<TaskSnap> {
            let slots = self.slots();
            let i = rng.below(slots.len().max(1) as u64) as usize;
            slots.get(i).map(|&idx| self.set.snaps[idx])
        }

        /// A random counter for a task of priority `p`.
        fn counter(&self, rng: &mut SimRng, p: i32) -> i32 {
            if self.crowd {
                18 + rng.below(6) as i32
            } else {
                rng.below(2 * p as u64 + 1) as i32
            }
        }

        fn fresh(&self, rng: &mut SimRng, tid: Tid, nr_cpus: usize) -> TaskSnap {
            let priority = if self.crowd {
                20
            } else {
                [10, 20, 40][rng.below(3) as usize]
            };
            let rt = rng.chance(0.05);
            TaskSnap {
                tid,
                counter: self.counter(rng, priority),
                priority,
                rt,
                rr: rt && rng.chance(0.5),
                rt_priority: rng.below(100) as i32,
                mm: MmId(if self.crowd { 1 } else { rng.below(3) as u32 }),
                processor: if self.crowd && rng.chance(0.7) {
                    0
                } else {
                    rng.below(nr_cpus as u64) as usize
                },
                has_cpu: nr_cpus > 1 && rng.chance(0.2),
                yielded: false,
            }
        }

        /// Inserts `s`, counting it as a re-file if it replaces a
        /// member's different snap.
        fn put(&mut self, s: TaskSnap) {
            let idx = s.tid.index();
            if self.set.members.contains(idx) && self.set.snaps[idx] != s {
                self.refiles += 1;
            }
            self.set.insert(s);
        }

        /// One random change to the set.
        fn mutate(&mut self, rng: &mut SimRng, nr_cpus: usize) {
            let Some(mut s) = self.any_member(rng) else {
                return self.add(rng, nr_cpus);
            };
            match rng.below(8) {
                0 => return self.set.remove(s.tid.index()),
                1 => s.counter = self.counter(rng, s.priority),
                2 => s.processor = rng.below(nr_cpus as u64) as usize,
                3 => s.has_cpu = !s.has_cpu && rng.chance(0.3),
                4 => {
                    s.rt = !s.rt && rng.chance(0.2);
                    s.rr = s.rt && rng.chance(0.5);
                }
                5 => s.mm = MmId(rng.below(3) as u32),
                6 => {
                    // The slot was freed and taken again between two syncs.
                    let generation = s.tid.generation() + 1;
                    let tid = Tid::from_raw(s.tid.index() as u32, generation);
                    s = self.fresh(rng, tid, nr_cpus);
                }
                _ => s.counter = 0,
            }
            self.put(s);
        }

        /// Inserts a new member into a random slot (a member's slot is
        /// taken over).
        fn add(&mut self, rng: &mut SimRng, nr_cpus: usize) {
            // Slot 0 is the idle task; slots past 64 span a second word.
            let idx = 1 + rng.below(150) as u32;
            let tid = Tid::from_raw(idx, rng.below(3) as u32);
            let s = self.fresh(rng, tid, nr_cpus);
            self.put(s);
        }
    }

    /// A random decision for [`one_pass_judge_equals_the_dense_reference`]
    /// over `churn`'s set after a few random changes, with `chosen` still
    /// to be drawn.
    fn random_decision<'a>(rng: &mut SimRng, churn: &'a mut Churn) -> Decision<'a> {
        let topology: Topology = match rng.below(4) {
            0 => Topology::flat(1),
            1 => Topology::flat(2),
            2 => Topology::flat(4),
            _ => "2N2C2T".parse().unwrap(),
        };
        let nr_cpus = topology.nr_cpus();
        let smp = nr_cpus > 1;
        if rng.chance(0.05) {
            churn.crowd = !churn.crowd;
        }
        if rng.chance(0.05) {
            churn.most = if churn.most == 6 { 24 } else { 6 };
        }
        // The last prev left its CPU, or is still running there.
        if let Some(s) = churn.last_prev.take() {
            if churn.set.get(s.tid).is_some() {
                churn.put(TaskSnap {
                    has_cpu: smp && rng.chance(0.2),
                    ..s
                });
            }
        }
        let n = rng.below(churn.most) as usize;
        while churn.set.len() > n {
            let slots = churn.slots();
            churn
                .set
                .remove(slots[rng.below(slots.len() as u64) as usize]);
        }
        while churn.set.len() < n {
            churn.add(rng, nr_cpus);
        }
        for _ in 0..rng.below(4) {
            churn.mutate(rng, nr_cpus);
        }
        // Everyone out of quantum (takes the recalculation pass unless a
        // real-time member is runnable), or everyone's quantum refilled
        // after that.
        let was_exhausted = churn.exhausted;
        churn.exhausted = rng.chance(0.1);
        if churn.exhausted || was_exhausted {
            for idx in churn.slots() {
                let s = churn.set.snaps[idx];
                let counter = match churn.exhausted {
                    true => 0,
                    false => churn.counter(rng, s.priority),
                };
                churn.put(TaskSnap { counter, ..s });
            }
        }
        let mut prev_yielded = false;
        let prev = match (rng.below(4), churn.any_member(rng)) {
            (0 | 1, Some(mut p)) => {
                churn.last_prev = Some(p);
                p.has_cpu |= smp;
                if rng.chance(0.2) {
                    // An exhausted SCHED_RR prev: its quantum is refreshed.
                    (p.rt, p.rr, p.counter) = (true, true, 0);
                }
                prev_yielded = rng.chance(0.3);
                p.yielded = prev_yielded;
                churn.put(p);
                p.tid
            }
            (2, _) => tid(0),
            _ => Tid::from_raw(200 + rng.below(8) as u32, 0), // blocked
        };
        let set = &churn.set;
        let prev_mm = set.get(prev).map_or(MmId(rng.below(3) as u32), |s| s.mm);
        Decision {
            cpu: rng.below(nr_cpus as u64) as usize,
            prev,
            idle: tid(0),
            prev_mm,
            prev_yielded,
            chosen: tid(0),
            yield_rerun: rng.chance(0.2),
            search_limit: 1 + rng.below(8) as usize,
            smp,
            topology,
            runnable: set,
        }
    }

    /// The one-pass judge over the slot-indexed set, its first pass and
    /// occupancy read from the goodness index, gives the dense multi-pass
    /// judge's verdict on every decision, and the same report —
    /// `first_unexplained` text included — at the end. The set persists
    /// across decisions, so the index is re-filed, not rebuilt.
    #[test]
    fn one_pass_judge_equals_the_dense_reference() {
        let mut rng = SimRng::new(0x0_0AC1_E5EE);
        let modes = [OracleMode::Strict, OracleMode::Relaxed];
        let mut one_pass = modes.map(Oracle::new);
        let dense_oracle = |mode| reference::Oracle {
            mode,
            report: OracleReport::default(),
            scratch: Vec::new(),
        };
        let mut dense = modes.map(dense_oracle);
        let mut picker = dense_oracle(OracleMode::Strict);
        let mut churn = Churn::new();
        let mut fallbacks = 0;
        for case in 0..150_000 {
            let mut d = random_decision(&mut rng, &mut churn);
            let members: Vec<Tid> = d.runnable.iter().map(|s| s.tid).collect();
            let member = members.get(rng.below(members.len().max(1) as u64) as usize);
            d.chosen = match rng.below(8) {
                0 => picker.judge_full(&d).expected, // the reference pick
                1..=3 => member.copied().unwrap_or(d.idle),
                4 => d.idle,
                5 => Tid::from_raw(160 + rng.below(8) as u32, 0), // not runnable
                6 => member.map_or(d.idle, |t| {
                    Tid::from_raw(t.index() as u32, t.generation() + 1)
                }),
                _ => d.prev,
            };
            let m = rng.below(2) as usize;
            let walked = one_pass[m].report().walked;
            let got = one_pass[m].judge_full(&d);
            assert_eq!(got, dense[m].judge_full(&d), "case {case}: {d:?}");
            fallbacks += (one_pass[m].report().walked > walked) as u64;
        }
        for m in 0..2 {
            let counts = OracleReport {
                walked: 0,
                recalc_members: 0,
                ..one_pass[m].report().clone()
            };
            assert_eq!(counts, dense[m].report, "{:?}", modes[m]);
        }
        let (strict, relaxed) = (one_pass[0].report(), one_pass[1].report());
        for (class, n) in [
            ("match", strict.matches),
            ("tie", strict.ties),
            ("yield_rerun", strict.yield_reruns),
            ("truncation", strict.truncations),
            ("affinity", strict.affinity),
            ("topology", strict.topology),
            ("unexplained", strict.unexplained),
            ("design", relaxed.design),
            ("relaxed topology", relaxed.topology),
            ("re-file", churn.refiles),
            ("recalculation fallback", fallbacks),
        ] {
            assert!(n > 100, "{class}: only {n} decisions");
        }
        assert!(strict.first_unexplained.is_some());
    }
}
