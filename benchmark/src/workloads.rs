//! The six workloads: names, inputs, and why each exists.
//!
//! All are closed and batch: a fixed input run to completion, no arrival
//! rate. Sizes are the ones ISSUE 11 measured (≈1–3 s per rep on two
//! cores), chosen so each stresses a different layer.

/// The policy program `policy-table-10r` runs, embedded at build time so
/// the child never reads a file while it is being timed.
pub const TABLE_POL: &str = include_str!("../../policies/table.pol");

/// Default seed: the lab's `BASE_SEED`, so `lab-figure4` at the default
/// seed is the `figure4` builtin byte for byte.
pub const DEFAULT_SEED: u64 = elsc_lab::spec::BASE_SEED;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// 1250 rooms × 20 users × 4 threads = 100 000 tasks, 1 msg/user, `elsc`, 2P.
    MegaElsc100k,
    /// 20 rooms × 20 users, 100 msgs/user, `reg`, 4P.
    VolanoReg20r,
    /// 10 rooms × 20 × 20 msgs, `elsc`, 2P, oracle + JSON-lines trace.
    VolanoElscObserved,
    /// 10 rooms × 20 × 100 msgs, `policy:table` on the VM, 2P.
    PolicyTable10r,
    /// 4 nodes × 2P `elsc`, least-loaded, 40 rooms × 20 × 40 msgs.
    Cluster4n,
    /// Builtin `figure4` (16 cells): cold sweep on 2 workers + 50 warm.
    LabFigure4,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 6] = [
        Workload::MegaElsc100k,
        Workload::VolanoReg20r,
        Workload::VolanoElscObserved,
        Workload::PolicyTable10r,
        Workload::Cluster4n,
        Workload::LabFigure4,
    ];

    /// The name used on the command line, in `BENCHMARK.json` and in
    /// `expected.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MegaElsc100k => "mega-elsc-100k",
            Workload::VolanoReg20r => "volano-reg-20r",
            Workload::VolanoElscObserved => "volano-elsc-observed",
            Workload::PolicyTable10r => "policy-table-10r",
            Workload::Cluster4n => "cluster-4n",
            Workload::LabFigure4 => "lab-figure4",
        }
    }

    /// One line on why the workload exists (mirrored in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::MegaElsc100k => {
                "engine-bound: calendar queue at 100k tasks, dispatch, pipes, task table; elsc examines few tasks per call, so scheduler changes should not move it"
            }
            Workload::VolanoReg20r => {
                "the paper's headline load (Figure 3 worst cell): about half of host time is reg's O(n) goodness scan and recalc, so scan and recalc changes show here"
            }
            Workload::VolanoElscObserved => {
                "oracle plus JSON-lines trace on every decision: observer cost dominates, so a gain for the plain path that costs observers moves it the other way"
            }
            Workload::PolicyTable10r => {
                "policy-VM-bound: native elsc on the same cell takes about half the time, the rest is crates/policy"
            }
            Workload::Cluster4n => {
                "federation barrier loop, link transmit, step_until/inject/drain on 4 nodes; bypasses lab and policy"
            }
            Workload::LabFigure4 => {
                "what users run: a cold 16-cell sweep on the 2-worker pool, then 50 warm sweeps through cache, jsonv and manifest"
            }
        }
    }

    /// Simulated `schedule()` decisions of the workload at the default
    /// seed (`sched_calls` in `expected.json`; a unit test keeps the two
    /// equal). Other seeds simulate 5-8% more or less work; `wall_s` is
    /// scaled to this count so that a seed with more work does not read
    /// as a slower simulator.
    pub fn nominal_decisions(self) -> u64 {
        match self {
            Workload::MegaElsc100k => 2_436_733,
            Workload::VolanoReg20r => 2_440_509,
            Workload::VolanoElscObserved => 310_507,
            Workload::PolicyTable10r => 1_154_370,
            Workload::Cluster4n => 2_429_967,
            Workload::LabFigure4 => 7_581_439,
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether the workload is one `Machine` (stepped in slices when traced).
    pub fn is_machine(self) -> bool {
        !matches!(self, Workload::Cluster4n | Workload::LabFigure4)
    }

    /// The twin runs the traced pass adds for this workload.
    pub fn twins(self) -> &'static [Variant] {
        match self {
            Workload::VolanoElscObserved => {
                &[Variant::Plain, Variant::OracleOnly, Variant::TraceOnly]
            }
            Workload::PolicyTable10r => &[Variant::Native],
            _ => &[],
        }
    }
}

/// A twin of a workload: the same input with one observer or backend
/// taken away, run in the traced pass to price that layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Variant {
    /// The workload as defined.
    Default,
    /// `volano-elsc-observed` without oracle and without trace.
    Plain,
    /// `volano-elsc-observed` with the oracle only.
    OracleOnly,
    /// `volano-elsc-observed` with the trace only.
    TraceOnly,
    /// `policy-table-10r` under native `elsc`.
    Native,
}

impl Variant {
    /// Command-line spelling.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Default => "default",
            Variant::Plain => "plain",
            Variant::OracleOnly => "oracle",
            Variant::TraceOnly => "trace",
            Variant::Native => "native",
        }
    }

    /// Whether the twin only adds or removes observers, so that its run
    /// must be the workload's own, decision for decision.
    pub fn same_schedule(self) -> bool {
        matches!(
            self,
            Variant::Plain | Variant::OracleOnly | Variant::TraceOnly
        )
    }

    /// Parses a variant name.
    pub fn parse(s: &str) -> Option<Variant> {
        [
            Variant::Default,
            Variant::Plain,
            Variant::OracleOnly,
            Variant::TraceOnly,
            Variant::Native,
        ]
        .into_iter()
        .find(|v| v.name() == s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsc_lab::jsonv::Value;

    #[test]
    fn nominal_decisions_are_the_pinned_sched_calls() {
        let expected = Value::parse(include_str!("../expected.json")).unwrap();
        assert_eq!(
            expected.get("seed").and_then(Value::as_f64),
            Some(DEFAULT_SEED as f64)
        );
        for w in Workload::ALL {
            let pinned = expected
                .get("workloads")
                .and_then(|m| m.get(w.name()))
                .and_then(|r| r.get("sched_calls"))
                .and_then(Value::as_f64);
            assert_eq!(pinned, Some(w.nominal_decisions() as f64), "{}", w.name());
        }
    }
}
