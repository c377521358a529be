//! Machine-readable exporters for scheduler statistics.
//!
//! The figure binaries and CI want `BENCH_*.json`-style artifacts, not
//! just pretty-printed tables. [`stats_json`] renders [`SchedStats`]
//! deterministically as JSON; `RunReport` (in `elsc-machine`) composes
//! it with the profiler and latency exports into one `--report-json`
//! document.

use crate::json::{array, Obj};
use elsc_stats::{CpuStats, SchedStats};

fn cpu_obj(c: &CpuStats) -> String {
    let mut o = Obj::new();
    for (name, get) in CpuStats::COUNTERS {
        o = o.u64(name, get(c));
    }
    o.build()
}

/// Renders per-CPU and total counters as one JSON object.
pub fn stats_json(stats: &SchedStats) -> String {
    let total = stats.total();
    Obj::new()
        .u64("nr_cpus", stats.nr_cpus() as u64)
        .raw("total", cpu_obj(&total))
        .f64("sched_time_share", total.sched_time_share())
        .raw("cpus", array(stats.per_cpu().iter().map(cpu_obj)))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SchedStats {
        let mut s = SchedStats::new(2);
        s.cpu_mut(0).sched_calls = 10;
        s.cpu_mut(0).sched_cycles = 500;
        s.cpu_mut(0).work_cycles = 1_500;
        s.cpu_mut(1).sched_calls = 4;
        s.cpu_mut(1).wakeups = 3;
        s
    }

    #[test]
    fn json_includes_totals_and_cpus() {
        let j = stats_json(&sample());
        assert!(j.contains("\"nr_cpus\":2"));
        assert!(j.contains("\"sched_calls\":14"), "total row sums: {j}");
        assert!(j.contains("\"sched_time_share\":0.25"));
        assert!(j.contains("\"cpus\":["));
    }

    #[test]
    fn exports_are_deterministic() {
        let s = sample();
        assert_eq!(stats_json(&s), stats_json(&s));
    }
}
