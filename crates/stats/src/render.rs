//! Text rendering of scheduler statistics, in the spirit of the paper's
//! proc-file export.

use core::fmt::Write as _;

use crate::percpu::{CpuStats, SchedStats};

/// Renders statistics as a `/proc/elscstat`-style table: one column per
/// CPU plus a total column.
///
/// # Examples
///
/// ```
/// use elsc_stats::{render::render_proc, SchedStats};
///
/// let mut s = SchedStats::new(2);
/// s.cpu_mut(0).sched_calls = 3;
/// let text = render_proc(&s);
/// assert!(text.contains("sched_calls"));
/// assert!(text.contains("cpu0"));
/// assert!(text.contains("total"));
/// ```
pub fn render_proc(stats: &SchedStats) -> String {
    let mut out = String::new();
    let total = stats.total();
    let _ = write!(out, "{:<18}", "counter");
    for cpu in 0..stats.nr_cpus() {
        let _ = write!(out, "{:>14}", format!("cpu{cpu}"));
    }
    let _ = writeln!(out, "{:>16}", "total");
    for (label, get) in CpuStats::COUNTERS {
        let _ = write!(out, "{label:<18}");
        for cpu in stats.per_cpu() {
            let _ = write!(out, "{:>14}", get(cpu));
        }
        let _ = writeln!(out, "{:>16}", get(&total));
    }
    let _ = writeln!(
        out,
        "{:<18}{:>16.1}",
        "cyc/sched",
        total.cycles_per_schedule()
    );
    let _ = writeln!(
        out,
        "{:<18}{:>16.2}",
        "examined/sched",
        total.tasks_examined_per_schedule()
    );
    let _ = writeln!(
        out,
        "{:<18}{:>15.1}%",
        "sched_time_share",
        total.sched_time_share() * 100.0
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SchedStats {
        let mut s = SchedStats::new(2);
        let c0 = s.cpu_mut(0);
        c0.sched_calls = 10;
        c0.sched_cycles = 5000;
        c0.tasks_examined = 55;
        c0.recalc_entries = 2;
        let c1 = s.cpu_mut(1);
        c1.sched_calls = 4;
        c1.picked_new_cpu = 3;
        s
    }

    #[test]
    fn proc_render_contains_all_rows() {
        let text = render_proc(&sample());
        for (label, _) in CpuStats::COUNTERS {
            assert!(text.contains(label), "missing row {label}");
        }
    }

    #[test]
    fn proc_render_has_column_per_cpu() {
        let text = render_proc(&sample());
        assert!(text.contains("cpu0"));
        assert!(text.contains("cpu1"));
        assert!(!text.contains("cpu2"));
    }

    #[test]
    fn proc_render_totals_are_sums() {
        let text = render_proc(&sample());
        let line = text.lines().find(|l| l.starts_with("sched_calls")).unwrap();
        // Columns: cpu0=10, cpu1=4, total=14.
        let nums: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .map(|w| w.parse().unwrap())
            .collect();
        assert_eq!(nums, vec![10, 4, 14]);
    }
}
