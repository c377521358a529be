//! Node-level fault classes for the cluster federation: partitions,
//! slow links, and node pauses.
//!
//! Machine-level faults ([`crate::FaultPlan`]) perturb one box from the
//! inside; cluster faults perturb the *fabric between* boxes. The
//! federation consults a [`ClusterInjector`] once per exchange epoch —
//! per link for the wire classes, per node for pauses — in a fixed
//! iteration order, so the whole fault schedule is a pure function of
//! `(plan, fault_seed)` exactly like the machine-level streams.
//!
//! Every class is completion-safe by construction: a partition *holds*
//! traffic until it heals (TCP retransmission semantics — nothing is
//! dropped), a slow link only stretches latency, and a paused node
//! resumes with its full event queue shifted. Workloads finish; they
//! just finish later and along different schedules — which is what the
//! per-node differential oracle is there to judge.

use std::fmt;
use std::str::FromStr;

use elsc_obs::json::Obj;
use elsc_simcore::SimRng;

use crate::plan::parse_rates;

/// Salt folded into the fault seed for the cluster-level streams.
/// Distinct from the machine-level `CHAOS_STREAM_SALT`, so a node's
/// internal fault schedule and the fabric's schedule never correlate
/// even when both derive from the same operator-supplied seed.
const CLUSTER_STREAM_SALT: u64 = 0x00C1_0572_FA17_u64;

/// Every class a cluster plan's `key=rate` list may name, in field order.
const CLASSES: [&str; 3] = ["partition", "slow_link", "node_pause"];

/// Injection rates for the node-level fault classes. All rates are
/// per-epoch probabilities in `[0, 1]`: the wire classes are drawn once
/// per directed link per exchange epoch, `node_pause` once per node per
/// epoch. A zero rate disables the class *and* leaves its decision
/// stream unconsulted, so enabling one class never shifts another's
/// draws.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterFaultPlan {
    /// Per-link, per-epoch probability that the link partitions. A
    /// partitioned link holds (never drops) messages until it heals a
    /// drawn number of epochs later.
    pub partition: f64,
    /// Per-link, per-epoch probability of a congestion window: the
    /// link's propagation latency is multiplied 2–8× for its duration.
    pub slow_link: f64,
    /// Per-node, per-epoch probability of a whole-node stall (an SMI or
    /// hypervisor pause): every pending event shifts later by the drawn
    /// duration.
    pub node_pause: f64,
    /// The spec string this plan was parsed from (report labelling).
    label: String,
}

impl ClusterFaultPlan {
    /// The `light` preset: occasional short partitions, congestion, and
    /// stalls. VolanoMark clusters complete under it with room to spare.
    pub fn light() -> ClusterFaultPlan {
        ClusterFaultPlan {
            partition: 0.002,
            slow_link: 0.004,
            node_pause: 0.002,
            label: "light".to_string(),
        }
    }

    /// The `heavy` preset: quadrupled `light` rates. Still
    /// completion-safe, but the fabric is genuinely bad.
    pub fn heavy() -> ClusterFaultPlan {
        ClusterFaultPlan {
            partition: 0.008,
            slow_link: 0.016,
            node_pause: 0.008,
            label: "heavy".to_string(),
        }
    }

    /// The report label: the preset name or k=v spec this plan came from.
    pub fn label(&self) -> &str {
        &self.label
    }
}

impl fmt::Display for ClusterFaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label)
    }
}

impl FromStr for ClusterFaultPlan {
    type Err = String;

    /// Parses a preset name (`light`, `heavy`) or a comma-separated
    /// `key=rate` list over the plan's field names, e.g.
    /// `partition=0.01,node_pause=0.05`, by the machine plan's rules:
    /// each class at most once, every rate in `[0, 1]`.
    fn from_str(s: &str) -> Result<ClusterFaultPlan, String> {
        let s = s.trim();
        match s {
            "light" => return Ok(ClusterFaultPlan::light()),
            "heavy" => return Ok(ClusterFaultPlan::heavy()),
            _ => {}
        }
        let [partition, slow_link, node_pause] =
            parse_rates(s, "cluster fault", "light|heavy", CLASSES)?;
        Ok(ClusterFaultPlan {
            partition,
            slow_link,
            node_pause,
            label: s.to_string(),
        })
    }
}

/// Per-class cluster fault counters, reported in the merged report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClusterFaultCounts {
    /// Link partitions opened.
    pub partitions: u64,
    /// Slow-link windows opened.
    pub slow_links: u64,
    /// Node pauses injected.
    pub node_pauses: u64,
}

impl ClusterFaultCounts {
    /// Total cluster faults injected.
    pub fn total(&self) -> u64 {
        self.partitions + self.slow_links + self.node_pauses
    }

    /// Deterministic JSON rendering (fixed key order).
    pub fn to_json(&self) -> String {
        Obj::new()
            .u64("total", self.total())
            .u64("partitions", self.partitions)
            .u64("slow_links", self.slow_links)
            .u64("node_pauses", self.node_pauses)
            .build()
    }
}

/// A drawn slow-link window: how long it lasts and how much it hurts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlowWindow {
    /// Window length in exchange epochs.
    pub epochs: u64,
    /// Latency multiplier inside the window (2–8).
    pub factor: u64,
}

/// The runtime side of a [`ClusterFaultPlan`]: one forked [`SimRng`]
/// stream per class, consulted by the federation in fixed link/node
/// order each epoch.
#[derive(Debug)]
pub struct ClusterInjector {
    plan: ClusterFaultPlan,
    seed: u64,
    part: SimRng,
    slow: SimRng,
    pause: SimRng,
    counts: ClusterFaultCounts,
}

impl ClusterInjector {
    /// Builds an injector for `plan`, seeding every class stream from
    /// `fault_seed` (shared with the per-node machine streams but salted
    /// differently, so they never correlate).
    pub fn new(plan: ClusterFaultPlan, fault_seed: u64) -> ClusterInjector {
        let mut root = SimRng::new(fault_seed ^ CLUSTER_STREAM_SALT);
        ClusterInjector {
            plan,
            seed: fault_seed,
            part: root.fork(),
            slow: root.fork(),
            pause: root.fork(),
            counts: ClusterFaultCounts::default(),
        }
    }

    /// The plan in effect.
    pub fn plan(&self) -> &ClusterFaultPlan {
        &self.plan
    }

    /// The fault seed the streams derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-class injection counters so far.
    pub fn counts(&self) -> &ClusterFaultCounts {
        &self.counts
    }

    /// Per-link, per-epoch partition decision: `Some(epochs)` opens a
    /// partition lasting 2–20 exchange epochs.
    pub fn partition(&mut self) -> Option<u64> {
        if self.plan.partition <= 0.0 || !self.part.chance(self.plan.partition) {
            return None;
        }
        self.counts.partitions += 1;
        Some(self.part.range(2, 21))
    }

    /// Per-link, per-epoch congestion decision: `Some(window)` degrades
    /// the link for 2–20 epochs at 2–8× latency.
    pub fn slow_link(&mut self) -> Option<SlowWindow> {
        if self.plan.slow_link <= 0.0 || !self.slow.chance(self.plan.slow_link) {
            return None;
        }
        self.counts.slow_links += 1;
        Some(SlowWindow {
            epochs: self.slow.range(2, 21),
            factor: self.slow.range(2, 9),
        })
    }

    /// Per-node, per-epoch stall decision: `Some(cycles)` freezes the
    /// node for roughly 2 M cycles (5 ms at 400 MHz), ±50 %.
    pub fn node_pause(&mut self) -> Option<u64> {
        if self.plan.node_pause <= 0.0 || !self.pause.chance(self.plan.node_pause) {
            return None;
        }
        self.counts.node_pauses += 1;
        Some(self.pause.jitter(2_000_000, 0.5).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_parse() {
        assert_eq!(
            "light".parse::<ClusterFaultPlan>().unwrap(),
            ClusterFaultPlan::light()
        );
        assert_eq!(
            "heavy".parse::<ClusterFaultPlan>().unwrap(),
            ClusterFaultPlan::heavy()
        );
        assert_eq!(ClusterFaultPlan::light().label(), "light");
    }

    #[test]
    fn key_value_specs_parse() {
        let p: ClusterFaultPlan = "partition=0.25,node_pause=0.5".parse().unwrap();
        assert_eq!(p.partition, 0.25);
        assert_eq!(p.node_pause, 0.5);
        assert_eq!(p.slow_link, 0.0);
        assert_eq!(p.label(), "partition=0.25,node_pause=0.5");
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!("bogus".parse::<ClusterFaultPlan>().is_err());
        assert!("partition=2.0".parse::<ClusterFaultPlan>().is_err());
        assert!("partition=x".parse::<ClusterFaultPlan>().is_err());
        assert!("none".parse::<ClusterFaultPlan>().is_err());
        assert!("warp_core=0.1".parse::<ClusterFaultPlan>().is_err());
    }

    /// A class given twice was accepted silently, last rate winning:
    /// `cluster --faults partition=0.5,partition=0.0` ran with no
    /// partitions. The machine plan's rules hold here too.
    #[test]
    fn a_plan_that_repeats_a_class_is_rejected() {
        for spec in [
            "partition=0.5,partition=0.0",
            "node_pause=0, node_pause=0",
            "slow_link=0.1,partition=0.2,slow_link=0.1",
        ] {
            let err = spec.parse::<ClusterFaultPlan>().unwrap_err();
            assert!(
                err.contains("given twice") && !err.contains('\n'),
                "{spec}: {err}"
            );
        }
        for class in CLASSES {
            assert!(format!("{class}=1").parse::<ClusterFaultPlan>().is_ok());
            assert!(format!("{class}=1.5").parse::<ClusterFaultPlan>().is_err());
        }
    }

    /// The presets and valid key=rate lists, mutated the way the machine
    /// plan's fuzz mutates them, parse to a plan inside the rules or are
    /// an error — never a panic.
    #[test]
    fn mutated_cluster_plans_never_panic() {
        let mut accepted = 0;
        for text in crate::plan::mutated_plans(0xC1_0572, &["light", "heavy", "none"], &CLASSES) {
            let Ok(plan) = text.parse::<ClusterFaultPlan>() else {
                continue;
            };
            accepted += 1;
            let rates = [plan.partition, plan.slow_link, plan.node_pause];
            assert!(
                rates.iter().all(|r| (0.0..=1.0).contains(r)),
                "{text}: {plan:?}"
            );
            assert_eq!(plan.label(), text.trim(), "the label is the spec");
            let keys: Vec<&str> = text
                .split(',')
                .filter_map(|p| p.split_once('='))
                .map(|(k, _)| k.trim())
                .collect();
            assert!(
                (0..keys.len()).all(|i| !keys[..i].contains(&keys[i])),
                "{text}: a class given twice"
            );
        }
        assert!(
            accepted > 1_000,
            "the fuzz reaches valid plans ({accepted})"
        );
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed| {
            let mut inj = ClusterInjector::new(ClusterFaultPlan::heavy(), seed);
            let log: Vec<String> = (0..500)
                .map(|_| {
                    format!(
                        "{:?}/{:?}/{:?}",
                        inj.partition(),
                        inj.slow_link(),
                        inj.node_pause()
                    )
                })
                .collect();
            (log, *inj.counts())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0, "different seeds must differ");
    }

    #[test]
    fn class_streams_are_independent() {
        // Disabling the partition class must not shift pause decisions.
        let pauses = |plan: ClusterFaultPlan| {
            let mut inj = ClusterInjector::new(plan, 42);
            (0..200).map(|_| inj.node_pause()).collect::<Vec<_>>()
        };
        let with_partitions = pauses("partition=0.002,node_pause=0.002".parse().unwrap());
        let without = pauses("node_pause=0.002".parse().unwrap());
        assert_eq!(with_partitions, without);
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let mut inj = ClusterInjector::new("partition=0".parse().unwrap(), 1);
        for _ in 0..200 {
            assert_eq!(inj.partition(), None);
            assert_eq!(inj.slow_link(), None);
            assert_eq!(inj.node_pause(), None);
        }
        assert_eq!(inj.counts().total(), 0);
    }

    #[test]
    fn drawn_windows_are_in_range() {
        let mut inj = ClusterInjector::new(
            "partition=1.0,slow_link=1.0,node_pause=1.0"
                .parse()
                .unwrap(),
            9,
        );
        for _ in 0..200 {
            let p = inj.partition().unwrap();
            assert!((2..=20).contains(&p), "partition epochs {p}");
            let s = inj.slow_link().unwrap();
            assert!((2..=20).contains(&s.epochs));
            assert!((2..=8).contains(&s.factor));
            let n = inj.node_pause().unwrap();
            assert!((1_000_000..=3_000_000).contains(&n), "pause cycles {n}");
        }
        assert_eq!(inj.counts().total(), 600);
    }

    #[test]
    fn counts_json_is_stable() {
        let c = ClusterFaultCounts {
            partitions: 1,
            slow_links: 2,
            node_pauses: 3,
        };
        assert_eq!(
            c.to_json(),
            "{\"total\":6,\"partitions\":1,\"slow_links\":2,\"node_pauses\":3}"
        );
    }
}
