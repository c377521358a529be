//! The cycle-attribution profiler.
//!
//! The paper's core evidence is a *profile*: 37–55 % of kernel time spent
//! in `schedule()` under VolanoMark (§4). This module makes that
//! measurement first-class: every simulated kernel cycle the machine
//! charges is attributed to a (CPU, [`Phase`], [`CostKind`]) cell, so a
//! run can always answer "where did kernel time go?" — per primitive
//! (goodness scans vs list ops vs recalc loops), per scheduler phase, and
//! per CPU — without re-running a special-purpose binary.
//!
//! Attribution is *conservative by construction*: [`CycleProfiler::total`]
//! equals the sum over all cells plus unattributed raw cycles, and the
//! machine charges the profiler from the same helper that advances its
//! clocks, so the profile always sums exactly to total metered kernel
//! time (the conservation tests pin this).

use crate::json::{array, Obj};
use elsc_simcore::{CostKind, CycleMeter, COST_KINDS};
use std::fmt;

/// Scheduler phases kernel cycles are attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Inside `schedule()` proper: the candidate scan, recalc loop, and
    /// bookkeeping (exactly the cycles `CpuStats::sched_cycles` counts).
    Schedule,
    /// Spinning on the run-queue lock (exactly
    /// `CpuStats::lock_spin_cycles`).
    LockSpin,
    /// Context and address-space switch costs after a decision.
    Switch,
    /// Wakeup-side work: `add_to_runqueue` plus `reschedule_idle()`
    /// placement, performed under the run-queue lock.
    Wakeup,
    /// Syscall entry/exit and in-kernel I/O work (pipe copies, fork,
    /// exit teardown).
    Syscall,
}

/// Number of phases (size of the attribution table).
pub const PHASES: usize = 5;

const ALL_PHASES: [Phase; PHASES] = [
    Phase::Schedule,
    Phase::LockSpin,
    Phase::Switch,
    Phase::Wakeup,
    Phase::Syscall,
];

impl Phase {
    /// All phases, in table order.
    pub fn all() -> &'static [Phase; PHASES] {
        &ALL_PHASES
    }

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Schedule => "schedule",
            Phase::LockSpin => "lock_spin",
            Phase::Switch => "switch",
            Phase::Wakeup => "wakeup",
            Phase::Syscall => "syscall",
        }
    }
}

/// Accumulates per-(CPU, phase, kind) kernel cycle attribution.
#[derive(Clone, Debug)]
pub struct CycleProfiler {
    /// `cells[cpu][phase][kind]` — cycles charged via a [`CostKind`].
    cells: Vec<[[u64; COST_KINDS]; PHASES]>,
    /// `raw[cpu][phase]` — cycles with no kind (e.g. lock spin time).
    raw: Vec<[u64; PHASES]>,
    total: u64,
}

impl CycleProfiler {
    /// Creates a zeroed profiler covering `nr_cpus` processors.
    ///
    /// # Panics
    ///
    /// Panics if `nr_cpus == 0`.
    pub fn new(nr_cpus: usize) -> CycleProfiler {
        assert!(nr_cpus > 0, "a machine has at least one CPU");
        CycleProfiler {
            cells: vec![[[0; COST_KINDS]; PHASES]; nr_cpus],
            raw: vec![[0; PHASES]; nr_cpus],
            total: 0,
        }
    }

    /// Number of CPUs covered.
    pub fn nr_cpus(&self) -> usize {
        self.cells.len()
    }

    /// Attributes `cycles` of one cost kind.
    #[inline]
    pub fn attribute_kind(&mut self, cpu: usize, phase: Phase, kind: CostKind, cycles: u64) {
        self.cells[cpu][phase as usize][kind as usize] += cycles;
        self.total += cycles;
    }

    /// Attributes `cycles` with no kind breakdown (spin time).
    #[inline]
    pub fn attribute_raw(&mut self, cpu: usize, phase: Phase, cycles: u64) {
        self.raw[cpu][phase as usize] += cycles;
        self.total += cycles;
    }

    /// Attributes everything a [`CycleMeter`] accumulated, preserving its
    /// per-kind breakdown. Call *before* `meter.take()` resets it.
    pub fn attribute_meter(&mut self, cpu: usize, phase: Phase, meter: &CycleMeter) {
        let kinds = meter.kind_cycles();
        let cell = &mut self.cells[cpu][phase as usize];
        let mut sum = 0;
        for (c, &k) in cell.iter_mut().zip(kinds.iter()) {
            *c += k;
            sum += k;
        }
        let raw = meter.raw_cycles();
        self.raw[cpu][phase as usize] += raw;
        self.total += sum + raw;
    }

    /// Total kernel cycles attributed so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Freezes the profile into a report, pairing it with the run's
    /// workload (`work_cycles`) and idle time so shares can be computed.
    pub fn report(&self, work_cycles: u64, idle_cycles: u64) -> ProfileReport {
        ProfileReport {
            cells: self.cells.clone(),
            raw: self.raw.clone(),
            total: self.total,
            work_cycles,
            idle_cycles,
        }
    }
}

/// A frozen cycle-attribution profile plus run context.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    cells: Vec<[[u64; COST_KINDS]; PHASES]>,
    raw: Vec<[u64; PHASES]>,
    total: u64,
    work_cycles: u64,
    idle_cycles: u64,
}

impl ProfileReport {
    /// An empty report for `nr_cpus` CPUs (used before a run happens).
    pub fn empty(nr_cpus: usize) -> ProfileReport {
        CycleProfiler::new(nr_cpus.max(1)).report(0, 0)
    }

    /// Number of CPUs covered.
    pub fn nr_cpus(&self) -> usize {
        self.cells.len()
    }

    /// Total attributed kernel cycles.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Task (non-kernel) cycles of the run.
    pub fn work_cycles(&self) -> u64 {
        self.work_cycles
    }

    /// Idle cycles of the run.
    pub fn idle_cycles(&self) -> u64 {
        self.idle_cycles
    }

    /// One attribution cell.
    pub fn cell(&self, cpu: usize, phase: Phase, kind: CostKind) -> u64 {
        self.cells[cpu][phase as usize][kind as usize]
    }

    /// Kind-less cycles of one (CPU, phase).
    pub fn raw_of(&self, cpu: usize, phase: Phase) -> u64 {
        self.raw[cpu][phase as usize]
    }

    /// All cycles of one (CPU, phase), kinds plus raw.
    pub fn cpu_phase_total(&self, cpu: usize, phase: Phase) -> u64 {
        self.cells[cpu][phase as usize].iter().sum::<u64>() + self.raw[cpu][phase as usize]
    }

    /// All cycles of one phase across CPUs.
    pub fn phase_total(&self, phase: Phase) -> u64 {
        (0..self.nr_cpus())
            .map(|c| self.cpu_phase_total(c, phase))
            .sum()
    }

    /// All cycles of one kind across CPUs and phases.
    pub fn kind_total(&self, kind: CostKind) -> u64 {
        self.cells
            .iter()
            .map(|per_cpu| {
                per_cpu
                    .iter()
                    .map(|per_phase| per_phase[kind as usize])
                    .sum::<u64>()
            })
            .sum()
    }

    /// All kernel cycles charged on one CPU.
    pub fn cpu_total(&self, cpu: usize) -> u64 {
        Phase::all()
            .iter()
            .map(|&p| self.cpu_phase_total(cpu, p))
            .sum()
    }

    /// The paper's §4 figure: fraction of busy (non-idle) time spent in
    /// the scheduler.
    ///
    /// Counts exactly what `CpuStats::sched_time_share` counts — the
    /// [`Phase::Schedule`] and [`Phase::LockSpin`] cycles against the
    /// same plus workload cycles — so the profiler's share agrees with
    /// the counter-based measurement to the cycle.
    pub fn sched_share(&self) -> f64 {
        let sched = self.phase_total(Phase::Schedule) + self.phase_total(Phase::LockSpin);
        let busy = sched + self.work_cycles;
        if busy == 0 {
            0.0
        } else {
            sched as f64 / busy as f64
        }
    }

    /// Renders the profile as a deterministic JSON object.
    pub fn to_json(&self) -> String {
        let phases = array(Phase::all().iter().map(|&p| {
            let kinds = array(CostKind::all().iter().filter_map(|&k| {
                let cycles: u64 = self
                    .cells
                    .iter()
                    .map(|per_cpu| per_cpu[p as usize][k as usize])
                    .sum();
                (cycles > 0).then(|| {
                    Obj::new()
                        .str("kind", k.name())
                        .u64("cycles", cycles)
                        .build()
                })
            }));
            let raw: u64 = self.raw.iter().map(|r| r[p as usize]).sum();
            Obj::new()
                .str("phase", p.name())
                .u64("cycles", self.phase_total(p))
                .u64("raw", raw)
                .raw("kinds", kinds)
                .build()
        }));
        let cpus = array((0..self.nr_cpus()).map(|c| {
            let per_phase = array(Phase::all().iter().map(|&p| {
                Obj::new()
                    .str("phase", p.name())
                    .u64("cycles", self.cpu_phase_total(c, p))
                    .build()
            }));
            Obj::new()
                .u64("cpu", c as u64)
                .u64("kernel_cycles", self.cpu_total(c))
                .raw("phases", per_phase)
                .build()
        }));
        Obj::new()
            .u64("kernel_cycles", self.total)
            .u64("work_cycles", self.work_cycles)
            .u64("idle_cycles", self.idle_cycles)
            .f64("sched_share", self.sched_share())
            .raw("phases", phases)
            .raw("cpus", cpus)
            .build()
    }
}

impl fmt::Display for ProfileReport {
    /// Human-readable profile: phase table, top kinds, per-CPU totals,
    /// and the §4 scheduler share.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total.max(1);
        writeln!(f, "cycle attribution profile")?;
        writeln!(
            f,
            "  kernel {} cycles · work {} · idle {}",
            self.total, self.work_cycles, self.idle_cycles
        )?;
        writeln!(f, "  phase breakdown:")?;
        for &p in Phase::all() {
            let v = self.phase_total(p);
            if v == 0 {
                continue;
            }
            writeln!(
                f,
                "    {:<10} {:>14}  ({:5.1} % of kernel)",
                p.name(),
                v,
                100.0 * v as f64 / total as f64
            )?;
        }
        writeln!(f, "  cost-kind breakdown:")?;
        let mut kinds: Vec<(CostKind, u64)> = CostKind::all()
            .iter()
            .map(|&k| (k, self.kind_total(k)))
            .filter(|&(_, v)| v > 0)
            .collect();
        kinds.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| (a.0 as usize).cmp(&(b.0 as usize)))
        });
        for (k, v) in kinds {
            writeln!(
                f,
                "    {:<18} {:>14}  ({:5.1} % of kernel)",
                k.name(),
                v,
                100.0 * v as f64 / total as f64
            )?;
        }
        if self.nr_cpus() > 1 {
            writeln!(f, "  per-CPU kernel cycles:")?;
            for cpu in 0..self.nr_cpus() {
                writeln!(f, "    cpu{cpu:<2} {:>14}", self.cpu_total(cpu))?;
            }
        }
        writeln!(
            f,
            "  scheduler share of busy time: {:.1} %  (paper §4: 37-55 % under load)",
            self.sched_share() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsc_simcore::CostModel;

    #[test]
    fn phases_have_unique_indices_and_names() {
        let mut seen = [false; PHASES];
        let mut names: Vec<_> = Phase::all().iter().map(|p| p.name()).collect();
        for &p in Phase::all() {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PHASES);
    }

    #[test]
    fn attribution_is_conservative() {
        let mut p = CycleProfiler::new(2);
        p.attribute_kind(0, Phase::Schedule, CostKind::GoodnessEval, 600);
        p.attribute_kind(1, Phase::Schedule, CostKind::SchedBase, 1_200);
        p.attribute_raw(0, Phase::LockSpin, 300);
        p.attribute_kind(1, Phase::Syscall, CostKind::PipeOp, 250);
        assert_eq!(p.total(), 2_350);
        let r = p.report(10_000, 5_000);
        // Marginal sums all equal the total.
        let by_phase: u64 = Phase::all().iter().map(|&ph| r.phase_total(ph)).sum();
        let by_cpu: u64 = (0..2).map(|c| r.cpu_total(c)).sum();
        let by_kind: u64 = CostKind::all()
            .iter()
            .map(|&k| r.kind_total(k))
            .sum::<u64>()
            + Phase::all()
                .iter()
                .map(|&ph| (0..2).map(|c| r.raw_of(c, ph)).sum::<u64>())
                .sum::<u64>();
        assert_eq!(by_phase, r.total());
        assert_eq!(by_cpu, r.total());
        assert_eq!(by_kind, r.total());
    }

    #[test]
    fn meter_attribution_preserves_kind_breakdown() {
        let model = CostModel::default();
        let mut meter = CycleMeter::new();
        meter.charge(&model, CostKind::SchedBase);
        meter.charge_n(&model, CostKind::GoodnessEval, 10);
        meter.charge_raw(7);
        let mut p = CycleProfiler::new(1);
        p.attribute_meter(0, Phase::Schedule, &meter);
        assert_eq!(p.total(), meter.cycles());
        let r = p.report(0, 0);
        assert_eq!(r.cell(0, Phase::Schedule, CostKind::SchedBase), 1_200);
        assert_eq!(r.cell(0, Phase::Schedule, CostKind::GoodnessEval), 600);
        assert_eq!(r.raw_of(0, Phase::Schedule), 7);
    }

    #[test]
    fn sched_share_matches_stats_formula() {
        let mut p = CycleProfiler::new(1);
        p.attribute_kind(0, Phase::Schedule, CostKind::SchedBase, 20);
        p.attribute_raw(0, Phase::LockSpin, 10);
        p.attribute_kind(0, Phase::Switch, CostKind::CtxSwitch, 1_000_000);
        let r = p.report(70, 0);
        // (20 + 10) / (20 + 10 + 70): Switch cycles are excluded, exactly
        // as CpuStats::sched_time_share excludes them.
        assert!((r.sched_share() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_zero_share() {
        let r = ProfileReport::empty(2);
        assert_eq!(r.total(), 0);
        assert_eq!(r.sched_share(), 0.0);
    }

    #[test]
    fn json_and_csv_render() {
        let mut p = CycleProfiler::new(1);
        p.attribute_kind(0, Phase::Schedule, CostKind::GoodnessEval, 120);
        p.attribute_raw(0, Phase::LockSpin, 30);
        let r = p.report(850, 0);
        let j = r.to_json();
        assert!(j.contains("\"kernel_cycles\":150"));
        assert!(j.contains("\"sched_share\":"));
        assert!(j.contains("\"goodness_eval\""));
        // Display renders the share.
        let text = r.to_string();
        assert!(text.contains("scheduler share"));
    }

    #[test]
    #[should_panic(expected = "at least one CPU")]
    fn zero_cpus_panics() {
        CycleProfiler::new(0);
    }
}
