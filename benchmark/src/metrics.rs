//! Every metric the benchmark prints, by name, with its unit.
//!
//! Three tables. [`END_TO_END`] and [`PER_LAYER`] are `BENCHMARK.json`'s
//! `end_to_end` and `per_layer` lists (a unit test keeps the file and
//! these tables equal). [`REPORT_ONLY`] holds the numbers the suite
//! prints for the workloads that have them but that cannot be in
//! `PER_LAYER`, because a traced pass must print *every* per-layer metric
//! for *every* workload: a time that exists on some workloads only (a
//! cluster epoch, a machine slice) would read a constant 0 on the rest.
//! Counts and ratios may read 0 — "this workload never enters the layer".

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric: name, unit, direction, and what it measures.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// `<layer>.<what>` (end-to-end metrics have no layer prefix).
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before it counts as a regression (0 for per-layer metrics,
    /// which have no bound).
    pub bound: f64,
    /// One-line definition (the README glossary is generated from these).
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        what,
    }
}

const fn lower(name: &'static str, unit: &'static str, what: &'static str) -> Metric {
    e2e(name, unit, Better::Lower, 0.0, what)
}

const fn higher(name: &'static str, unit: &'static str, what: &'static str) -> Metric {
    e2e(name, unit, Better::Higher, 0.0, what)
}

/// Host-clock metrics a user of the simulator sees; one value per
/// workload, the median over the reps of a run.
pub const END_TO_END: [Metric; 4] = [
    e2e("wall_s", "s", Better::Lower, 0.25, "set-up + run + report inside the child process, scaled by (decisions at the default seed / decisions at this seed): exactly the wall seconds at the default seed"),
    e2e("decisions_per_s", "1/s", Better::Higher, 0.25, "simulated schedule() decisions (sum of sched_calls, exact) per host second of the run phase; lab-figure4: sum over cells / cold-sweep seconds"),
    e2e("setup_s", "s", Better::Lower, 0.25, "scheduler load + Machine::new/Cluster::new + workload build (lab: spec parse + cells() + Cache::new); median of the 3 to 31 set-ups a rep times"),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25, "child VmHWM from /proc/self/status at exit"),
];

/// Metrics of single layers, measured in the traced pass.
pub const PER_LAYER: [Metric; 48] = [
    // The rep's own phases (spans of the traced rep; every workload has them).
    lower("phase.setup_ms", "ms", "the traced rep's set-up span"),
    lower("phase.run_s", "s", "the traced rep's run span (256 step_until slices on machine workloads; Cluster::run; cold sweep)"),
    lower("phase.report_ms", "ms", "the traced rep's report span (finish + to_json; lab: manifest + 50 warm sweeps)"),
    lower("phase.verify_ms", "ms", "the traced rep's verify span (conservation, oracle verdict, virtual record)"),
    lower("run.ns_per_decision", "ns", "run span / simulated schedule() decisions"),
    // machine
    lower("machine.events", "count", "events dispatched (exact; cluster: sum over nodes; 0 for lab-figure4)"),
    lower("machine.step_p95_over_p50", "ratio", "p95 / p50 of ns-per-event over the 256 slices: how much slower the slow phases (recalc storms) run than the typical one; 0 where the run cannot be stepped"),
    lower("machine.report_bytes", "bytes", "size of the report JSON (0 for lab-figure4)"),
    // sched-linux / core, through the machine
    lower("sched.calls", "count", "schedule() calls (exact)"),
    lower("sched.tasks_examined_per_call", "tasks", "mean candidates examined per schedule() call (exact)"),
    lower("sched.recalc_entries", "count", "entries into the counter-recalculation loop (exact)"),
    lower("sched.recalc_tasks", "count", "tasks recalculated (exact)"),
    lower("sched.host_share_est", "ratio", "calls x probe ns/schedule at the nearer probed queue length / run span: the scheduler's estimated share of host run time (0 for lab-figure4)"),
    // netsim
    higher("netsim.msgs_read", "count", "messages delivered through pipes (exact; 0 for lab-figure4)"),
    // policy
    lower("policy.insns_executed", "count", "VM instructions executed over the run (exact; policy-table-10r only)"),
    lower("policy.overhead_ratio", "ratio", "run span / run span of the native-elsc twin (base: the twin; policy-table-10r only)"),
    // chaos / obs
    lower("chaos.oracle_overhead_ratio", "ratio", "oracle-only twin run / plain twin run (base: plain; volano-elsc-observed only)"),
    lower("obs.trace_overhead_ratio", "ratio", "trace-only twin run / plain twin run (base: plain; volano-elsc-observed only)"),
    lower("obs.trace_events", "count", "JSON lines the trace sink received (exact)"),
    lower("obs.trace_bytes", "bytes", "bytes of JSON-lines trace (exact)"),
    lower("obs.trace_dropped", "count", "trace records dropped; must be 0"),
    // cluster
    lower("cluster.epochs", "count", "exchange epochs: makespan / epoch_cycles, rounded up (exact; cluster-4n only)"),
    lower("cluster.fabric_msgs", "count", "messages carried by inter-node links (exact; cluster-4n only)"),
    // lab
    higher("lab.pool_efficiency", "ratio", "cells run serially / (2 workers x cold sweep) (lab-figure4 only)"),
    higher("lab.cache_hit_ratio", "ratio", "warm cache hits / lookups; must be 1 (lab-figure4 only)"),
    lower("lab.manifest_bytes", "bytes", "size of the figure4 manifest (lab-figure4 only)"),
    // harness
    lower("harness.trace_overhead_pct", "%", "traced rep wall_s over untraced rep wall_s, minus 1, in percent"),
    lower("harness.child_spawn_ms", "ms", "spawn + wait of a child that exits at once"),
    // probes: workload-independent, run in every traced pass
    lower("simcore.evq_hold_ns_d1k", "ns", "CalendarEventQueue pop+push at depth 1 000"),
    lower("simcore.evq_hold_ns_d100k", "ns", "CalendarEventQueue pop+push at depth 100 000"),
    lower("simcore.evq_fill_ns_per_push", "ns", "CalendarEventQueue push while filling to 100 000"),
    lower("ktask.spawn_ns_per_task", "ns", "TaskTable::spawn x 100 000"),
    lower("ktask.recalc_ns_per_task", "ns", "recalculate_counters over 100 000 tasks"),
    lower("sched-linux.schedule_ns_n64", "ns", "reg schedule() with 64 runnable (elsc_bench::rig::Rig)"),
    lower("sched-linux.schedule_ns_n1k", "ns", "reg schedule() with 1 000 runnable"),
    lower("core.schedule_ns_n64", "ns", "elsc schedule() with 64 runnable"),
    lower("core.schedule_ns_n1k", "ns", "elsc schedule() with 1 000 runnable"),
    lower("policy.load_us", "us", "PolicyScheduler::load_str of policies/table.pol (lex, parse, verify, compile)"),
    lower("policy.schedule_ns_n64", "ns", "policy:table schedule() on the VM with 64 runnable"),
    lower("policy.ns_per_insn", "ns", "policy:table schedule() time / VM instructions executed"),
    lower("netsim.pipe_rw_ns", "ns", "Pipe::try_write + try_read"),
    lower("netsim.link_transmit_ns", "ns", "Link::transmit"),
    lower("obs.emit_nosink_ns", "ns", "EventBus::emit with nothing attached (instrumentation cost when off)"),
    lower("obs.jsonl_ns_per_event", "ns", "EventBus::emit into a JsonLinesSink over a digest-only writer"),
    higher("lab.jsonv_parse_mb_per_s", "MB/s", "jsonv::Value::parse of a smoke manifest"),
    lower("lab.compare_ms", "ms", "compare::compare of a smoke manifest with itself"),
    lower("lab.warm_sweep_us_per_cell", "us", "run_sweep of the smoke spec against a warm cache, per cell"),
    lower("lab.calib_ref_ms", "ms", "lab::calibrate::reference_secs, the host-speed reference"),
];

/// Printed by the suite for the workloads that have them; in the span
/// files; not in `BENCHMARK.json` (see the module comment).
pub const REPORT_ONLY: [Metric; 14] = [
    lower("failed_share", "ratio", "failed reps / attempted reps (0 on a correct run, so not an end-to-end metric of BENCHMARK.json; its `failed`/`attempted` carry it)"),
    lower("machine.new_build_ms", "ms", "machine.new + workloads.build spans"),
    lower("machine.run_s", "s", "run span of a machine workload"),
    lower("machine.ns_per_event", "ns", "run span / events"),
    lower("machine.ns_per_event_p50", "ns", "median over the 256 slices"),
    lower("machine.ns_per_event_p95", "ns", "p95 over the 256 slices (12 samples beyond)"),
    lower("machine.finish_ms", "ms", "machine.finish span"),
    lower("machine.report_json_us", "us", "report.to_json span"),
    lower("obs.profile_json_us", "us", "ProfileReport::to_json span"),
    lower("cluster.build_ms", "ms", "cluster.new + cluster.build_sharded spans"),
    lower("cluster.us_per_epoch", "us", "cluster.run span / epochs"),
    lower("lab.spec_cells_us", "us", "lab.spec_parse + lab.spec_cells spans"),
    lower("lab.cold_sweep_s", "s", "lab.cold_sweep span"),
    lower("lab.warm_sweep_ms", "ms", "median of the 50 warm sweeps"),
];

/// Markdown tables of every workload and metric — `run.sh --glossary`;
/// the README's glossary is this output.
pub fn glossary() -> String {
    use crate::workloads::Workload;
    let mut out = String::from("| workload | why |\n|---|---|\n");
    for w in Workload::ALL {
        out += &format!("| `{}` | {} |\n", w.name(), w.why());
    }
    for (title, table) in [
        ("end to end", &END_TO_END[..]),
        ("per layer (traced pass; in BENCHMARK.json)", &PER_LAYER[..]),
        (
            "printed for the workloads that have them; not in BENCHMARK.json",
            &REPORT_ONLY[..],
        ),
    ] {
        out += &format!("\n**{title}**\n\n| name | unit | better | bound | definition |\n|---|---|---|---|---|\n");
        for m in table {
            let bound = if m.bound > 0.0 {
                format!("{:.0}%", m.bound * 100.0)
            } else {
                "–".to_string()
            };
            out += &format!(
                "| `{}` | {} | {} | {bound} | {} |\n",
                m.name,
                m.unit,
                m.better.label(),
                m.what
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use elsc_lab::jsonv::Value;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        (1..=16).contains(&s.len())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_name_is_well_formed_unique_and_has_a_unit() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER).chain(&REPORT_ONLY) {
            assert!(name_ok(m.name), "bad metric name {:?}", m.name);
            assert!(unit_ok(m.unit), "{}: bad unit {:?}", m.name, m.unit);
            assert!(!m.what.is_empty() && !m.what.contains('\n'), "{}", m.name);
            assert!(seen.insert(m.name), "{} appears twice", m.name);
        }
        for w in Workload::ALL {
            assert!(name_ok(w.name()), "bad workload name {:?}", w.name());
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
            assert!(seen.insert(w.name()), "{} appears twice", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` and these tables say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = Value::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let Value::Obj(top) = &doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let strs = |k: &str| -> Vec<String> {
            doc.get(k)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|v| v.as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(strs("command"), ["bash", "benchmark/run.sh"]);
        assert_eq!(strs("paths"), ["benchmark"]);
        let secs = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);

        let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();
        let workloads = doc.get("workloads").and_then(Value::as_arr).unwrap();
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (v, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(
                (field(v, "name"), field(v, "why")),
                (w.name().into(), w.why().into())
            );
        }
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).and_then(Value::as_arr).unwrap();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (v, m) in listed.iter().zip(table) {
                assert_eq!(field(v, "name"), m.name);
                assert_eq!(field(v, "unit"), m.unit, "{}", m.name);
                assert_eq!(field(v, "better"), m.better.label(), "{}", m.name);
                let bound = v.get("bound").and_then(Value::as_f64);
                assert_eq!(
                    bound,
                    (key == "end_to_end").then_some(m.bound),
                    "{}",
                    m.name
                );
            }
        }
    }

    /// The README's glossary is `glossary()`, to the byte.
    #[test]
    fn readme_glossary_is_generated() {
        let readme = include_str!("../README.md");
        assert!(
            readme.contains(&glossary()),
            "README.md glossary is stale: paste the output of run.sh --glossary"
        );
        for m in END_TO_END.iter().chain(&PER_LAYER).chain(&REPORT_ONLY) {
            assert!(
                glossary().contains(&format!("| `{}` |", m.name)),
                "{}",
                m.name
            );
        }
    }
}
