//! The deterministic fault plan: what to inject, how often, and the
//! seeded decision streams that make every run reproducible.

use std::fmt;
use std::str::FromStr;

use elsc_obs::json::Obj;
use elsc_simcore::SimRng;

/// Salt folded into the fault seed so the fault streams never collide
/// with the workload's own `MachineConfig::seed` streams even when the
/// operator passes the same number for both.
const CHAOS_STREAM_SALT: u64 = 0x00C4_A05F_4A17_u64;

/// Injection rates for every machine-level fault class.
///
/// All rates are probabilities in `[0, 1]` except [`FaultPlan::tick_jitter`],
/// which is the maximum *fractional* perturbation applied to every timer
/// tick period (`0.1` = ±10 %). A rate of zero disables the class and —
/// importantly for determinism — means its decision stream is never
/// consulted, so enabling one class cannot shift another class's draws.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Probability that a reschedule IPI is delivered late (its latency
    /// inflated 2–10×).
    pub ipi_delay: f64,
    /// Probability that a reschedule IPI is dropped outright. The lost
    /// interrupt is *recovered* by the target CPU's next timer tick
    /// (`need_resched` stays set), modelling the kernel's own safety net.
    pub ipi_drop: f64,
    /// Per-tick probability of a spurious `wake_up_process()` aimed at a
    /// deterministically chosen task. Waking a non-blocked task must be a
    /// no-op; waking a blocked one early is legal but hostile.
    pub spurious_wakeup: f64,
    /// Maximum fractional jitter on the timer-tick period (0 disables).
    pub tick_jitter: f64,
    /// Probability that a `schedule()` call holds its run-queue lock
    /// domain 1–4× longer than the work it did (a delayed lock holder;
    /// SMP builds only).
    pub lock_hold: f64,
    /// Probability that a pipe write is cut short: the syscall is charged
    /// but the message is not enqueued, and the writer retries.
    pub short_write: f64,
    /// Probability that a pipe write instead observes the peer resetting
    /// the connection: the pipe is closed, waking every parked reader and
    /// writer. Hostile — most workloads will not complete under this.
    pub peer_reset: f64,
    /// The spec string this plan was parsed from (report labelling).
    label: String,
}

impl FaultPlan {
    /// The `light` preset: every completion-safe fault class at low
    /// rates. Workloads still finish; the scheduler just lives in a
    /// noisier machine. No peer resets.
    pub fn light() -> FaultPlan {
        FaultPlan {
            ipi_delay: 0.05,
            ipi_drop: 0.02,
            spurious_wakeup: 0.05,
            tick_jitter: 0.10,
            lock_hold: 0.05,
            short_write: 0.05,
            peer_reset: 0.0,
            label: "light".to_string(),
        }
    }

    /// The `heavy` preset: doubled `light` rates. Still completion-safe
    /// (no peer resets), but the machine is genuinely hostile.
    pub fn heavy() -> FaultPlan {
        FaultPlan {
            ipi_delay: 0.10,
            ipi_drop: 0.05,
            spurious_wakeup: 0.10,
            tick_jitter: 0.20,
            lock_hold: 0.10,
            short_write: 0.10,
            peer_reset: 0.0,
            label: "heavy".to_string(),
        }
    }

    /// The `net` preset: `light` plus peer resets. Workloads whose
    /// conversations die mid-stream may never complete — use with a small
    /// watchdog and expect failures; that is the point.
    pub fn net() -> FaultPlan {
        FaultPlan {
            peer_reset: 0.01,
            label: "net".to_string(),
            ..FaultPlan::light()
        }
    }

    /// The report label: the preset name or k=v spec this plan came from.
    pub fn label(&self) -> &str {
        &self.label
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label)
    }
}

/// Every class a machine plan's `key=rate` list may name, in field order.
const CLASSES: [&str; 7] = [
    "ipi_delay",
    "ipi_drop",
    "spurious_wakeup",
    "tick_jitter",
    "lock_hold",
    "short_write",
    "peer_reset",
];

/// Parses the `key=rate[,key=rate]` list `s` of a `what` plan (`fault`,
/// `cluster fault`) over `classes`, into the rates in `classes` order.
/// Each class is named at most once and every rate is in `[0, 1]`; a
/// class left out is 0. `presets` is what the errors offer instead —
/// callers match their preset names before this.
pub(crate) fn parse_rates<const N: usize>(
    s: &str,
    what: &str,
    presets: &str,
    classes: [&str; N],
) -> Result<[f64; N], String> {
    if s.is_empty() || s == "none" {
        return Err(format!("empty {what} plan (use a preset or key=rate list)"));
    }
    let mut rates: [Option<f64>; N] = [None; N];
    for part in s.split(',') {
        let Some((key, val)) = part.split_once('=') else {
            return Err(format!(
                "bad {what} spec '{part}': expected key=rate (or a preset: {presets})"
            ));
        };
        let rate: f64 = val
            .trim()
            .parse()
            .map_err(|_| format!("bad fault rate '{val}' for '{key}'"))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!(
                "fault rate for '{key}' must be in [0,1], got {rate}"
            ));
        }
        let key = key.trim();
        let slot = match classes.iter().position(|&c| c == key) {
            Some(i) => &mut rates[i],
            None => return Err(format!("unknown {what} class '{key}'")),
        };
        if slot.replace(rate).is_some() {
            return Err(format!("{what} class '{key}' given twice"));
        }
    }
    Ok(rates.map(|r| r.unwrap_or(0.0)))
}

impl FromStr for FaultPlan {
    type Err = String;

    /// Parses a preset name (`light`, `heavy`, `net`) or a comma-separated
    /// `key=rate` list over the plan's field names, e.g.
    /// `ipi_drop=0.1,tick_jitter=0.2`. Every rate is in `[0, 1]`, each
    /// class is named at most once, and `short_write` stays below 1: a
    /// writer whose every attempt is cut short never makes progress.
    fn from_str(s: &str) -> Result<FaultPlan, String> {
        let s = s.trim();
        match s {
            "light" => return Ok(FaultPlan::light()),
            "heavy" => return Ok(FaultPlan::heavy()),
            "net" => return Ok(FaultPlan::net()),
            _ => {}
        }
        let [ipi_delay, ipi_drop, spurious_wakeup, tick_jitter, lock_hold, short_write, peer_reset] =
            parse_rates(s, "fault", "light|heavy|net", CLASSES)?;
        if short_write >= 1.0 {
            return Err(format!(
                "fault rate for 'short_write' must be below 1 (every write retried, none lands), got {short_write}"
            ));
        }
        Ok(FaultPlan {
            ipi_delay,
            ipi_drop,
            spurious_wakeup,
            tick_jitter,
            lock_hold,
            short_write,
            peer_reset,
            label: s.to_string(),
        })
    }
}

/// What the injector decided to do with one reschedule IPI.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IpiFault {
    /// Deliver normally.
    None,
    /// Deliver with this many *extra* cycles of latency.
    Delay(u64),
    /// Do not deliver. The target's `need_resched` flag stays set, so its
    /// next timer tick performs the reschedule — the kernel's own lost-IPI
    /// recovery path, which the machine model shares.
    Drop,
}

/// Per-class fault counters, reported at the end of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// IPIs delivered late.
    pub ipi_delayed: u64,
    /// IPIs dropped (recovered by the next tick).
    pub ipi_dropped: u64,
    /// Spurious `wake_up_process()` calls issued.
    pub spurious_wakeups: u64,
    /// Timer ticks whose period was jittered.
    pub ticks_jittered: u64,
    /// `schedule()` calls whose lock domain was held late.
    pub lock_holds: u64,
    /// Pipe writes cut short (retried by the writer).
    pub short_writes: u64,
    /// Pipes closed under a parked conversation (peer resets).
    pub peer_resets: u64,
}

impl FaultCounts {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.ipi_delayed
            + self.ipi_dropped
            + self.spurious_wakeups
            + self.ticks_jittered
            + self.lock_holds
            + self.short_writes
            + self.peer_resets
    }

    /// Deterministic JSON rendering (fixed key order).
    pub fn to_json(&self) -> String {
        Obj::new()
            .u64("total", self.total())
            .u64("ipi_delayed", self.ipi_delayed)
            .u64("ipi_dropped", self.ipi_dropped)
            .u64("spurious_wakeups", self.spurious_wakeups)
            .u64("ticks_jittered", self.ticks_jittered)
            .u64("lock_holds", self.lock_holds)
            .u64("short_writes", self.short_writes)
            .u64("peer_resets", self.peer_resets)
            .build()
    }
}

/// The runtime side of a [`FaultPlan`]: one forked [`SimRng`] stream per
/// fault class, so classes draw independently — changing the IPI rate
/// can never shift the wakeup stream's decisions — plus the per-class
/// injection counters.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    seed: u64,
    ipi: SimRng,
    wake: SimRng,
    tick: SimRng,
    lock: SimRng,
    net: SimRng,
    counts: FaultCounts,
}

impl FaultInjector {
    /// Builds an injector for `plan`, seeding every class stream from
    /// `fault_seed` (independent of the workload seed).
    pub fn new(plan: FaultPlan, fault_seed: u64) -> FaultInjector {
        let mut root = SimRng::new(fault_seed ^ CHAOS_STREAM_SALT);
        FaultInjector {
            plan,
            seed: fault_seed,
            ipi: root.fork(),
            wake: root.fork(),
            tick: root.fork(),
            lock: root.fork(),
            net: root.fork(),
            counts: FaultCounts::default(),
        }
    }

    /// The plan in effect.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The fault seed the streams derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The per-class injection counters so far.
    pub fn counts(&self) -> &FaultCounts {
        &self.counts
    }

    /// Decides the fate of one reschedule IPI with base latency
    /// `base_latency` cycles.
    pub fn ipi_fault(&mut self, base_latency: u64) -> IpiFault {
        if self.plan.ipi_drop > 0.0 && self.ipi.chance(self.plan.ipi_drop) {
            self.counts.ipi_dropped += 1;
            return IpiFault::Drop;
        }
        if self.plan.ipi_delay > 0.0 && self.ipi.chance(self.plan.ipi_delay) {
            // 1–9 extra base latencies: total delivery 2–10x nominal.
            let extra = base_latency.max(1) * (1 + self.ipi.below(9));
            self.counts.ipi_delayed += 1;
            return IpiFault::Delay(extra);
        }
        IpiFault::None
    }

    /// Returns the (possibly jittered) period for the next timer tick and
    /// whether jitter was applied.
    pub fn tick_period(&mut self, nominal: u64) -> (u64, bool) {
        if self.plan.tick_jitter <= 0.0 {
            return (nominal, false);
        }
        let jittered = self.tick.jitter(nominal, self.plan.tick_jitter).max(1);
        if jittered != nominal {
            self.counts.ticks_jittered += 1;
            (jittered, true)
        } else {
            (nominal, false)
        }
    }

    /// Per-tick spurious-wakeup decision: `Some(i)` names the victim by
    /// index into the caller's deterministic candidate list of length
    /// `candidates`.
    pub fn spurious_wakeup(&mut self, candidates: usize) -> Option<usize> {
        if candidates == 0 || self.plan.spurious_wakeup <= 0.0 {
            return None;
        }
        if !self.wake.chance(self.plan.spurious_wakeup) {
            return None;
        }
        self.counts.spurious_wakeups += 1;
        Some(self.wake.below(candidates as u64) as usize)
    }

    /// Lock-holder delay: `Some(extra)` stretches the held interval of a
    /// `schedule()` call whose metered work was `held` cycles by 1–4× of
    /// that work.
    pub fn lock_hold(&mut self, held: u64) -> Option<u64> {
        if self.plan.lock_hold <= 0.0 || !self.lock.chance(self.plan.lock_hold) {
            return None;
        }
        self.counts.lock_holds += 1;
        Some(held.max(1) * (1 + self.lock.below(4)))
    }

    /// Whether this pipe write is cut short (charged but not delivered;
    /// the writer retries at an advanced time, so progress is preserved
    /// with probability one for any rate < 1).
    pub fn short_write(&mut self) -> bool {
        if self.plan.short_write > 0.0 && self.net.chance(self.plan.short_write) {
            self.counts.short_writes += 1;
            true
        } else {
            false
        }
    }

    /// Whether this pipe write instead observes a peer reset (the pipe is
    /// closed under the conversation).
    pub fn peer_reset(&mut self) -> bool {
        if self.plan.peer_reset > 0.0 && self.net.chance(self.plan.peer_reset) {
            self.counts.peer_resets += 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
/// 20 000 plan texts for a parser fuzz: the `presets`, or up to four
/// `class=rate` pairs over `classes`, each mutated byte by byte and
/// spliced with class names and odd rates.
pub(crate) fn mutated_plans(seed: u64, presets: &[&str], classes: &[&str]) -> Vec<String> {
    const ALPHABET: &[u8] = b"0123456789.,=-e _lightnoz";
    const SPLICES: [&[u8]; 6] = [b"=1", b"=0.5", b",", b"NaN", b"inf", b"1e-9"];
    let mut rng = SimRng::new(seed);
    let mut pick = |n: usize| rng.below(n as u64) as usize;
    (0..20_000)
        .map(|_| {
            let base = if pick(4) == 0 {
                presets[pick(presets.len())].to_string()
            } else {
                (0..=pick(3))
                    .map(|_| format!("{}=0.{}", classes[pick(classes.len())], pick(100)))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let mut s: Vec<u8> = base.into_bytes();
            for _ in 0..pick(4) {
                let i = pick(s.len() + 1);
                match pick(5) {
                    0 if i < s.len() => {
                        s.remove(i);
                    }
                    1 if i < s.len() => s[i] = ALPHABET[pick(ALPHABET.len())],
                    2 => drop(s.splice(i..i, SPLICES[pick(SPLICES.len())].iter().copied())),
                    3 => drop(s.splice(i..i, classes[pick(classes.len())].bytes())),
                    _ => s.insert(i, ALPHABET[pick(ALPHABET.len())]),
                }
            }
            String::from_utf8(s).expect("ASCII")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_parse() {
        assert_eq!("light".parse::<FaultPlan>().unwrap(), FaultPlan::light());
        assert_eq!("heavy".parse::<FaultPlan>().unwrap(), FaultPlan::heavy());
        assert_eq!("net".parse::<FaultPlan>().unwrap(), FaultPlan::net());
        assert_eq!(FaultPlan::light().label(), "light");
    }

    #[test]
    fn key_value_specs_parse() {
        let p: FaultPlan = "ipi_drop=0.25,tick_jitter=0.5".parse().unwrap();
        assert_eq!(p.ipi_drop, 0.25);
        assert_eq!(p.tick_jitter, 0.5);
        assert_eq!(p.ipi_delay, 0.0);
        assert_eq!(p.label(), "ipi_drop=0.25,tick_jitter=0.5");
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!("bogus".parse::<FaultPlan>().is_err());
        assert!("ipi_drop=2.0".parse::<FaultPlan>().is_err());
        assert!("ipi_drop=x".parse::<FaultPlan>().is_err());
        assert!("none".parse::<FaultPlan>().is_err());
        assert!("warp_core=0.1".parse::<FaultPlan>().is_err());
    }

    #[test]
    fn a_plan_that_cannot_finish_or_repeats_a_class_is_rejected() {
        // Every write cut short and retried: no write ever lands, so
        // `volano --faults short_write=1` ran until it was killed.
        for spec in [
            "short_write=1",
            "short_write=1.0",
            "ipi_drop=0.1,short_write=1",
        ] {
            let err = spec.parse::<FaultPlan>().unwrap_err();
            assert!(
                err.contains("short_write") && err.contains("below 1"),
                "{spec}: {err}"
            );
        }
        assert_eq!(
            "short_write=0.99".parse::<FaultPlan>().unwrap().short_write,
            0.99
        );
        // Each of the other classes may run at 1: all of them finish.
        for class in CLASSES.iter().filter(|&&c| c != "short_write") {
            assert!(format!("{class}=1").parse::<FaultPlan>().is_ok(), "{class}");
        }
        // A class named twice was accepted silently, last rate winning.
        for spec in [
            "lock_hold=0.5,lock_hold=0.9",
            "ipi_drop=0, ipi_drop=0",
            "tick_jitter=0.1,short_write=0.2,tick_jitter=0.1",
        ] {
            let err = spec.parse::<FaultPlan>().unwrap_err();
            assert!(
                err.contains("given twice") && !err.contains('\n'),
                "{spec}: {err}"
            );
        }
    }

    /// The presets and valid key=rate lists, mutated byte by byte and
    /// spliced with class names and odd rates, parse to a plan that keeps
    /// the range rules or are an error — never a panic.
    #[test]
    fn mutated_fault_plans_never_panic() {
        let mut accepted = 0;
        for text in mutated_plans(0xFA_0175, &["light", "heavy", "net", "none"], &CLASSES) {
            let Ok(plan) = text.parse::<FaultPlan>() else {
                continue;
            };
            accepted += 1;
            let rates = [
                plan.ipi_delay,
                plan.ipi_drop,
                plan.spurious_wakeup,
                plan.tick_jitter,
                plan.lock_hold,
                plan.short_write,
                plan.peer_reset,
            ];
            assert!(
                rates.iter().all(|r| (0.0..=1.0).contains(r)),
                "{text}: {plan:?}"
            );
            assert!(plan.short_write < 1.0, "{text}: {plan:?}");
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
    fn same_seed_same_decisions() {
        let run = |seed| {
            let mut inj = FaultInjector::new(FaultPlan::heavy(), seed);
            let mut log = Vec::new();
            for i in 0..200u64 {
                log.push(format!(
                    "{:?}/{:?}/{:?}/{:?}/{}/{}",
                    inj.ipi_fault(100),
                    inj.tick_period(4_000_000),
                    inj.spurious_wakeup(8),
                    inj.lock_hold(500 + i),
                    inj.short_write(),
                    inj.peer_reset()
                ));
            }
            (log, *inj.counts())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0, "different seeds must differ");
    }

    #[test]
    fn class_streams_are_independent() {
        // Turning one class off must not shift another class's stream.
        let wake_draws = |plan: FaultPlan| {
            let mut inj = FaultInjector::new(plan, 42);
            (0..100)
                .map(|_| inj.spurious_wakeup(16))
                .collect::<Vec<_>>()
        };
        let with_ipi = wake_draws(FaultPlan::light());
        let without_ipi = wake_draws("spurious_wakeup=0.05".parse().unwrap());
        assert_eq!(with_ipi, without_ipi);
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let mut inj = FaultInjector::new("ipi_drop=0".parse().unwrap(), 1);
        for _ in 0..100 {
            assert_eq!(inj.ipi_fault(100), IpiFault::None);
            assert_eq!(inj.tick_period(1000), (1000, false));
            assert_eq!(inj.spurious_wakeup(4), None);
            assert_eq!(inj.lock_hold(100), None);
            assert!(!inj.short_write());
            assert!(!inj.peer_reset());
        }
        assert_eq!(inj.counts().total(), 0);
    }

    #[test]
    fn counts_track_injections() {
        // A rate of 1 is refused by the parser but not by the injector.
        let plan = FaultPlan {
            short_write: 1.0,
            .."short_write=0".parse::<FaultPlan>().unwrap()
        };
        let mut inj = FaultInjector::new(plan, 3);
        for _ in 0..5 {
            assert!(inj.short_write());
        }
        assert_eq!(inj.counts().short_writes, 5);
        assert_eq!(inj.counts().total(), 5);
    }

    #[test]
    fn counts_json_is_stable() {
        let c = FaultCounts {
            ipi_delayed: 1,
            ipi_dropped: 2,
            spurious_wakeups: 3,
            ticks_jittered: 4,
            lock_holds: 5,
            short_writes: 6,
            peer_resets: 7,
        };
        assert_eq!(
            c.to_json(),
            "{\"total\":28,\"ipi_delayed\":1,\"ipi_dropped\":2,\"spurious_wakeups\":3,\
             \"ticks_jittered\":4,\"lock_holds\":5,\"short_writes\":6,\"peer_resets\":7}"
        );
    }
}
