//! Run reports and the workload metric ledger.

use std::collections::BTreeMap;
use std::fmt;

use elsc_chaos::ChaosSummary;
use elsc_obs::json::{array, num, Obj};
use elsc_obs::{stats_json, Percentiles, ProfileReport};
use elsc_sched_api::DomainStats;
use elsc_simcore::{Cycles, Histogram};
use elsc_stats::SchedStats;

/// Named counters workloads increment from inside behaviours
/// (e.g. `"messages"` for VolanoMark throughput).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    map: BTreeMap<&'static str, u64>,
}

/// Named sample distributions workloads record from inside behaviours
/// (e.g. `"response_latency"` for the httpd experiment). The machine adds
/// its own built-in distributions: `"wake_latency"` (wakeup to dispatch)
/// and `"runqueue_len"` (run-queue length sampled at every `schedule()`).
#[derive(Clone, Debug, Default)]
pub struct Distributions {
    map: BTreeMap<&'static str, Histogram>,
}

impl Distributions {
    /// Creates an empty bank.
    pub fn new() -> Distributions {
        Distributions::default()
    }

    /// Records a sample into distribution `key`.
    pub fn record(&mut self, key: &'static str, v: u64) {
        self.map.entry(key).or_default().record(v);
    }

    /// Reads a distribution; `None` if nothing was recorded under `key`.
    pub fn get(&self, key: &str) -> Option<&Histogram> {
        self.map.get(key)
    }

    /// Iterates over `(name, histogram)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.map.iter().map(|(&k, v)| (k, v))
    }

    /// Whether nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Ledger {
        Ledger::default()
    }

    /// Adds `n` to counter `key`.
    pub fn add(&mut self, key: &'static str, n: u64) {
        *self.map.entry(key).or_insert(0) += n;
    }

    /// Reads counter `key` (0 if never written).
    pub fn get(&self, key: &str) -> u64 {
        self.map.get(key).copied().unwrap_or(0)
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.map.iter().map(|(&k, &v)| (k, v))
    }

    /// Whether no counter was ever written.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Policy-runtime summary: load-time facts plus what the machine's
/// watchdog observed over the run. Present only when the run was driven
/// by a loaded `.pol` scheduler, so native runs serialize exactly
/// as they did before the policy runtime existed.
#[derive(Clone, Debug)]
pub struct PolicySummary {
    /// The policy's reported name (`policy:<name>`).
    pub name: &'static str,
    /// Verifier's static worst-case instruction bound across all hooks.
    pub static_insns: u64,
    /// The per-decision runtime instruction budget in force.
    pub budget: u64,
    /// Total policy-VM instructions executed over the run (frozen at
    /// ejection time if the watchdog fired).
    pub insns_executed: u64,
    /// Whether the watchdog ejected the policy mid-run.
    pub ejected: bool,
    /// Virtual time of the ejection, if any.
    pub ejected_at: Option<Cycles>,
    /// Why the watchdog fired (`"budget_exhausted"`, `"bad_pick"`,
    /// `"state_corrupt"`, `"starvation"`), if it did.
    pub eject_reason: Option<&'static str>,
}

impl PolicySummary {
    /// Renders the summary as a JSON object.
    pub fn to_json(&self) -> String {
        let mut obj = Obj::new()
            .str("name", self.name)
            .u64("static_insns", self.static_insns)
            .u64("budget", self.budget)
            .u64("insns_executed", self.insns_executed)
            .raw("ejected", bool_json(self.ejected));
        if let Some(at) = self.ejected_at {
            obj = obj.u64("ejected_at", at.get());
        }
        if let Some(r) = self.eject_reason {
            obj = obj.str("eject_reason", r);
        }
        obj.build()
    }
}

/// Learned-scheduler summary: model identity plus the prediction record
/// the machine's watchdog observed over the run. Present only when the
/// run was driven by a `learned:<model>` scheduler, so native and policy
/// runs serialize exactly as before the learned subsystem existed.
#[derive(Clone, Debug)]
pub struct LearnedSummary {
    /// The scheduler's reported name (`learned:<model>`).
    pub name: &'static str,
    /// Model architecture (`"logreg"` or `"mlp"`).
    pub arch: &'static str,
    /// Predictions the model made (one per non-idle decision; frozen at
    /// ejection time if the watchdog fired).
    pub predictions: u64,
    /// Predictions that survived the bounded goodness verification.
    pub hits: u64,
    /// Whether the watchdog ejected the model mid-run.
    pub ejected: bool,
    /// Virtual time of the ejection, if any.
    pub ejected_at: Option<Cycles>,
    /// Why the watchdog fired (`"accuracy_collapse"`), if it did.
    pub eject_reason: Option<&'static str>,
}

impl LearnedSummary {
    /// Verified predictions that failed (fell back to the native scan).
    pub fn mispredicts(&self) -> u64 {
        self.predictions - self.hits
    }

    /// Fraction of predictions that verified (1.0 when none were made,
    /// so an unexercised model doesn't read as broken).
    pub fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            1.0
        } else {
            self.hits as f64 / self.predictions as f64
        }
    }

    /// Renders the summary as a JSON object.
    pub fn to_json(&self) -> String {
        let mut obj = Obj::new()
            .str("name", self.name)
            .str("arch", self.arch)
            .u64("predictions", self.predictions)
            .u64("hits", self.hits)
            .u64("mispredicts", self.mispredicts())
            .f64("accuracy", self.accuracy())
            .raw("ejected", bool_json(self.ejected));
        if let Some(at) = self.ejected_at {
            obj = obj.u64("ejected_at", at.get());
        }
        if let Some(r) = self.eject_reason {
            obj = obj.str("eject_reason", r);
        }
        obj.build()
    }
}

/// The outcome of one machine run.
///
/// A `RunReport` is plain owned data and therefore `Send`: the
/// experiment orchestrator (`elsc-lab`) runs each cell's machine on a
/// worker thread and ships the report back to its coordinator. The
/// [`Machine`](crate::Machine) itself is *not* `Send` (workload
/// behaviours may hold `Rc` state), which is why cells cross threads as
/// `(config in, report out)` pairs, never as machines.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Scheduler name ("reg", "elsc", ...).
    pub scheduler: &'static str,
    /// Machine label ("UP", "2P", ...).
    pub config: String,
    /// The seed the run was driven by (all randomness derives from it).
    pub seed: u64,
    /// Virtual time at which the last user task exited.
    pub elapsed: Cycles,
    /// Clock frequency, for second conversions.
    pub cpu_hz: u64,
    /// Scheduler statistics accumulated over the run.
    pub stats: SchedStats,
    /// Workload metrics.
    pub ledger: Ledger,
    /// Cycles CPUs spent spinning on the run-queue lock domain(s)
    /// (busy-interval waits, excluding cache-line transfer costs).
    pub lock_spin: Cycles,
    /// Run-queue lock-domain acquisitions.
    pub lock_acquisitions: u64,
    /// The locking regime the run used ("global", "percpu", "pernode:K").
    pub lock_plan: String,
    /// Per-domain lock statistics, in domain order. One entry under the
    /// global plan; one per CPU (or shard) under sharded plans. Spin
    /// cycles here sum exactly to [`RunReport::lock_spin`].
    pub lock_domains: Vec<DomainStats>,
    /// Tasks created over the run.
    pub tasks_spawned: u64,
    /// Total messages delivered through pipes.
    pub messages_read: u64,
    /// Sample distributions: machine built-ins (`wake_latency`,
    /// `runqueue_len`) plus whatever the workload recorded.
    pub dists: Distributions,
    /// Trace records lost on the event bus: dropped by the bounded ring
    /// once it overflowed, or by an attached sink whose writer failed
    /// (`--trace-out` onto a full disk). 0 on a complete trace.
    pub trace_dropped: u64,
    /// Cycle-attribution profile: every metered kernel cycle broken down
    /// per CPU × scheduler phase × cost kind.
    pub profile: ProfileReport,
    /// Whether the cycle-attribution conservation invariant held at the
    /// end of the run: every kernel cycle the machine charged anywhere
    /// must appear in the profile (`kernel_cycles == profile.total()`).
    /// Debug builds assert this; release builds record it here so
    /// downstream gates (`elsc lab`) can fail runs that violate it.
    pub conservation_ok: bool,
    /// Chaos summary: fault-injection counts and oracle verdicts.
    /// `None` when neither faults nor the oracle were enabled, so clean
    /// runs serialize exactly as they did before chaos existed.
    pub chaos: Option<ChaosSummary>,
    /// Policy-runtime summary: `None` for native schedulers.
    pub policy: Option<PolicySummary>,
    /// Learned-scheduler summary: `None` unless the run was driven by a
    /// `learned:<model>` scheduler.
    pub learned: Option<LearnedSummary>,
    /// Engine-throughput summary: `None` unless the run was configured
    /// with `engine_metrics`, so pre-existing cells serialize exactly as
    /// they did before the mega-scale engine existed.
    pub engine: Option<EngineSummary>,
    /// Topology summary: `None` on flat trees (the classic model), so
    /// every pre-topology report serializes exactly as it did before.
    pub topology: Option<TopologySummary>,
}

/// The declared topology shape plus the distance breakdown of every task
/// migration the run performed. Only multi-level trees produce one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologySummary {
    /// The topology grammar string ("2N4C2T", "2P2N4C2T", ...).
    pub shape: String,
    /// NUMA nodes in the tree.
    pub nr_nodes: u64,
    /// SMT threads per core.
    pub threads_per_core: u64,
    /// Migrations between SMT siblings of one core (shared L1/L2).
    pub migrations_same_core: u64,
    /// Migrations within one NUMA node, across cores (shared LLC).
    pub migrations_same_node: u64,
    /// Migrations crossing a NUMA node boundary (the expensive kind the
    /// topology-aware schedulers exist to avoid).
    pub migrations_cross_node: u64,
}

impl TopologySummary {
    /// Renders the summary as a JSON object.
    pub fn to_json(&self) -> String {
        Obj::new()
            .str("shape", &self.shape)
            .u64("nr_nodes", self.nr_nodes)
            .u64("threads_per_core", self.threads_per_core)
            .u64("migrations_same_core", self.migrations_same_core)
            .u64("migrations_same_node", self.migrations_same_node)
            .u64("migrations_cross_node", self.migrations_cross_node)
            .build()
    }
}

/// Simulator-engine throughput for mega-scale runs.
///
/// Both values derive from deterministic counters and *virtual* time —
/// never the wall clock — so reports embedding this summary remain
/// byte-identical across machines, worker counts, and reruns. Wall-clock
/// throughput is available separately (and unserialized) via
/// `Machine::wall_seconds()`.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSummary {
    /// Discrete events the machine dispatched over the run.
    pub events_dispatched: u64,
    /// Events dispatched per elapsed *virtual* second.
    pub sim_events_per_sec: f64,
}

impl EngineSummary {
    /// Renders the summary as a JSON object.
    pub fn to_json(&self) -> String {
        Obj::new()
            .u64("events_dispatched", self.events_dispatched)
            .f64("sim_events_per_sec", self.sim_events_per_sec)
            .build()
    }
}

impl RunReport {
    /// Elapsed virtual seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed.as_secs(self.cpu_hz)
    }

    /// Throughput of a ledger counter in events per virtual second.
    pub fn per_sec(&self, key: &str) -> f64 {
        let secs = self.elapsed_secs();
        if secs == 0.0 {
            0.0
        } else {
            self.ledger.get(key) as f64 / secs
        }
    }

    /// The oracle's failure sentence, if the oracle ran and the run was
    /// not clean (see [`OracleReport::failure`](elsc_chaos::OracleReport::failure)).
    pub fn oracle_failure(&self) -> Option<String> {
        self.chaos.as_ref()?.oracle.as_ref()?.failure()
    }

    /// Wakeup-to-dispatch latency percentiles (p50/p90/p99/p999), or
    /// `None` if nothing ever woke up.
    pub fn wake_latency(&self) -> Option<Percentiles> {
        self.dists.get("wake_latency").map(Percentiles::of)
    }

    /// Renders the whole report as one machine-readable JSON object:
    /// run metadata, scheduler statistics, the cycle-attribution profile,
    /// wakeup-latency percentiles, ledger counters, and distribution
    /// summaries. Deterministic: same-seed runs serialize byte-identically.
    pub fn to_json(&self) -> String {
        let ledger = Obj::new();
        let ledger = self
            .ledger
            .iter()
            .fold(ledger, |o, (k, v)| o.u64(k, v))
            .build();
        let dists = array(self.dists.iter().map(|(k, h)| {
            Obj::new()
                .str("name", k)
                .raw("percentiles", Percentiles::of(h).to_json())
                .build()
        }));
        let mut obj = Obj::new()
            .str("scheduler", self.scheduler)
            .str("config", &self.config)
            .u64("seed", self.seed)
            .raw("conservation_ok", bool_json(self.conservation_ok))
            .u64("elapsed_cycles", self.elapsed.get())
            .u64("cpu_hz", self.cpu_hz)
            .f64("elapsed_secs", self.elapsed_secs())
            .u64("lock_spin_cycles", self.lock_spin.get())
            .u64("lock_acquisitions", self.lock_acquisitions)
            .str("lock_plan", &self.lock_plan)
            .raw(
                "lock_domains",
                array(self.lock_domains.iter().enumerate().map(|(i, d)| {
                    Obj::new()
                        .u64("domain", i as u64)
                        .u64("spin_cycles", d.spin_cycles)
                        .u64("acquisitions", d.acquisitions)
                        .u64("contended", d.contended)
                        .u64("held_cycles", d.held_cycles)
                        .build()
                })),
            )
            .u64("tasks_spawned", self.tasks_spawned)
            .u64("messages_read", self.messages_read)
            .u64("trace_dropped", self.trace_dropped)
            .raw("stats", stats_json(&self.stats))
            .raw("profile", self.profile.to_json())
            .raw("ledger", ledger)
            .raw("distributions", dists);
        if let Some(p) = self.wake_latency() {
            obj = obj.raw("wake_latency", p.to_json());
        }
        if let Some(c) = &self.chaos {
            obj = obj.raw("chaos", c.to_json());
        }
        if let Some(p) = &self.policy {
            obj = obj.raw("policy", p.to_json());
        }
        if let Some(l) = &self.learned {
            obj = obj.raw("learned", l.to_json());
        }
        if let Some(e) = &self.engine {
            obj = obj.raw("engine", e.to_json());
        }
        if let Some(t) = &self.topology {
            obj = obj.raw("topology", t.to_json());
        }
        obj.build()
    }
}

/// Renders a bool as JSON.
fn bool_json(v: bool) -> &'static str {
    if v {
        "true"
    } else {
        "false"
    }
}

// Compile-time Send audit: cell configs go *into* lab workers and
// reports come *out*, so both ends of that channel must be `Send`.
// (`Machine` deliberately is not — behaviours may hold `Rc`.)
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<RunReport>();
    assert_send::<Ledger>();
    assert_send::<Distributions>();
    assert_send::<crate::config::MachineConfig>();
};

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{} / {}] elapsed {:.3}s ({} cycles)",
            self.scheduler,
            self.config,
            self.elapsed_secs(),
            self.elapsed
        )?;
        let t = self.stats.total();
        writeln!(
            f,
            "  sched: calls={} cyc/call={:.0} examined/call={:.2} recalcs={} new_cpu={}",
            t.sched_calls,
            t.cycles_per_schedule(),
            t.tasks_examined_per_schedule(),
            t.recalc_entries,
            t.picked_new_cpu
        )?;
        writeln!(
            f,
            "  lock: plan={} spin={} acq={}  tasks={}  msgs={}",
            self.lock_plan,
            self.lock_spin,
            self.lock_acquisitions,
            self.tasks_spawned,
            self.messages_read
        )?;
        if self.lock_domains.len() > 1 {
            for (i, d) in self.lock_domains.iter().enumerate() {
                writeln!(
                    f,
                    "    domain{i}: spin={} acq={} contended={} held={}",
                    d.spin_cycles, d.acquisitions, d.contended, d.held_cycles
                )?;
            }
        }
        for (k, v) in self.ledger.iter() {
            writeln!(f, "  {k} = {v}")?;
        }
        for (k, h) in self.dists.iter() {
            writeln!(f, "  {k}: {}", h.summary())?;
        }
        if self.trace_dropped > 0 {
            writeln!(
                f,
                "  warning: the trace lost {} records (the ring filled up, or a trace \
                 file stopped taking writes); it is incomplete",
                self.trace_dropped
            )?;
        }
        if let Some(c) = &self.chaos {
            if let Some(plan) = &c.fault_plan {
                writeln!(
                    f,
                    "  chaos: plan={} fault_seed={:#x} injected={}",
                    plan,
                    c.fault_seed,
                    c.counts.total()
                )?;
            }
            if let Some(o) = &c.oracle {
                writeln!(
                    f,
                    "  oracle: decisions={} matches={} ties={} yield_reruns={} \
                     truncations={} affinity={} design={} unexplained={} violations={}",
                    o.decisions,
                    o.matches,
                    o.ties,
                    o.yield_reruns,
                    o.truncations,
                    o.affinity,
                    o.design,
                    o.unexplained,
                    o.invariant_violations
                )?;
                if o.topology > 0 {
                    writeln!(f, "    topology-motivated: {}", o.topology)?;
                }
                if let Some(d) = &o.first_unexplained {
                    writeln!(f, "    first unexplained: {d}")?;
                }
                if let Some(d) = &o.first_violation {
                    writeln!(f, "    first violation: {d}")?;
                }
            }
        }
        if let Some(p) = &self.policy {
            write!(
                f,
                "  policy: {} static_insns={} budget={} insns={}",
                p.name, p.static_insns, p.budget, p.insns_executed
            )?;
            if p.ejected {
                write!(
                    f,
                    " EJECTED at {} ({})",
                    p.ejected_at.unwrap_or(Cycles::ZERO),
                    p.eject_reason.unwrap_or("?")
                )?;
            }
            writeln!(f)?;
        }
        if let Some(l) = &self.learned {
            write!(
                f,
                "  learned: {} [{}] predictions={} hits={} mispredicts={} accuracy={:.3}",
                l.name,
                l.arch,
                l.predictions,
                l.hits,
                l.mispredicts(),
                l.accuracy()
            )?;
            if l.ejected {
                write!(
                    f,
                    " EJECTED at {} ({})",
                    l.ejected_at.unwrap_or(Cycles::ZERO),
                    l.eject_reason.unwrap_or("?")
                )?;
            }
            writeln!(f)?;
        }
        if let Some(e) = &self.engine {
            writeln!(
                f,
                "  engine: events_dispatched={} sim_events_per_sec={}",
                e.events_dispatched,
                num(e.sim_events_per_sec)
            )?;
        }
        if let Some(t) = &self.topology {
            writeln!(
                f,
                "  topology: shape={} migrations same_core={} same_node={} cross_node={}",
                t.shape, t.migrations_same_core, t.migrations_same_node, t.migrations_cross_node
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates() {
        let mut l = Ledger::new();
        assert_eq!(l.get("x"), 0);
        l.add("x", 3);
        l.add("x", 4);
        l.add("y", 1);
        assert_eq!(l.get("x"), 7);
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![("x", 7), ("y", 1)]);
        assert!(!l.is_empty());
    }

    fn report() -> RunReport {
        let mut ledger = Ledger::new();
        ledger.add("messages", 4000);
        RunReport {
            scheduler: "elsc",
            config: "2P".into(),
            seed: 7,
            elapsed: Cycles(800_000_000),
            cpu_hz: 400_000_000,
            stats: SchedStats::new(2),
            ledger,
            lock_spin: Cycles(123),
            lock_acquisitions: 9,
            lock_plan: "global".into(),
            lock_domains: vec![DomainStats {
                spin_cycles: 123,
                acquisitions: 9,
                contended: 2,
                held_cycles: 400,
            }],
            tasks_spawned: 5,
            messages_read: 4000,
            dists: Distributions::new(),
            trace_dropped: 0,
            profile: ProfileReport::empty(2),
            conservation_ok: true,
            chaos: None,
            policy: None,
            learned: None,
            engine: None,
            topology: None,
        }
    }

    #[test]
    fn throughput_math() {
        let r = report();
        assert_eq!(r.elapsed_secs(), 2.0);
        assert_eq!(r.per_sec("messages"), 2000.0);
        assert_eq!(r.per_sec("missing"), 0.0);
    }

    #[test]
    fn distributions_record_and_iterate() {
        let mut d = Distributions::new();
        assert!(d.is_empty());
        d.record("lat", 10);
        d.record("lat", 30);
        d.record("other", 1);
        assert_eq!(d.get("lat").unwrap().count(), 2);
        assert_eq!(d.get("lat").unwrap().mean(), 20.0);
        assert!(d.get("missing").is_none());
        let names: Vec<_> = d.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["lat", "other"]);
    }

    #[test]
    fn display_includes_distributions() {
        let mut r = report();
        r.dists.record("wake_latency", 500);
        let text = r.to_string();
        assert!(text.contains("wake_latency"));
        assert!(text.contains("n=1"));
    }

    #[test]
    fn display_mentions_key_facts() {
        let text = report().to_string();
        assert!(text.contains("elsc"));
        assert!(text.contains("2P"));
        assert!(text.contains("messages = 4000"));
    }

    #[test]
    fn topology_summary_json_only_when_present() {
        let r = report();
        assert!(!r.to_json().contains("\"topology\""));
        let mut r = report();
        r.topology = Some(TopologySummary {
            shape: "2N4C2T".into(),
            nr_nodes: 2,
            threads_per_core: 2,
            migrations_same_core: 10,
            migrations_same_node: 5,
            migrations_cross_node: 1,
        });
        let j = r.to_json();
        assert!(j.contains(
            "\"topology\":{\"shape\":\"2N4C2T\",\"nr_nodes\":2,\
             \"threads_per_core\":2,\"migrations_same_core\":10,\
             \"migrations_same_node\":5,\"migrations_cross_node\":1}"
        ));
        assert!(r.to_string().contains("shape=2N4C2T"));
    }

    #[test]
    fn policy_summary_json_only_when_present() {
        let r = report();
        assert!(!r.to_json().contains("\"policy\""));
        let mut r = report();
        r.policy = Some(PolicySummary {
            name: "policy:starve",
            static_insns: 12,
            budget: 65_536,
            insns_executed: 480,
            ejected: true,
            ejected_at: Some(Cycles(4_000_000)),
            eject_reason: Some("starvation"),
        });
        let j = r.to_json();
        assert!(j.contains(
            "\"policy\":{\"name\":\"policy:starve\",\"static_insns\":12,\
             \"budget\":65536,\"insns_executed\":480,\
             \"ejected\":true,\"ejected_at\":4000000,\
             \"eject_reason\":\"starvation\"}"
        ));
        let text = r.to_string();
        assert!(text.contains("EJECTED"));
        assert!(text.contains("starvation"));
    }

    #[test]
    fn learned_summary_json_only_when_present() {
        let r = report();
        assert!(!r.to_json().contains("\"learned\""));
        let mut r = report();
        r.learned = Some(LearnedSummary {
            name: "learned:volano-logreg",
            arch: "logreg",
            predictions: 100,
            hits: 80,
            ejected: false,
            ejected_at: None,
            eject_reason: None,
        });
        let j = r.to_json();
        assert!(j.contains(
            "\"learned\":{\"name\":\"learned:volano-logreg\",\
             \"arch\":\"logreg\",\"predictions\":100,\"hits\":80,\
             \"mispredicts\":20,\"accuracy\":0.8,\"ejected\":false}"
        ));
        assert!(r.to_string().contains("accuracy=0.800"));
    }

    #[test]
    fn learned_summary_accuracy_edge_cases() {
        let l = LearnedSummary {
            name: "learned:m",
            arch: "mlp",
            predictions: 0,
            hits: 0,
            ejected: true,
            ejected_at: Some(Cycles(5)),
            eject_reason: Some("accuracy_collapse"),
        };
        assert_eq!(l.accuracy(), 1.0);
        assert_eq!(l.mispredicts(), 0);
        assert!(l
            .to_json()
            .contains("\"eject_reason\":\"accuracy_collapse\""));
    }
}
