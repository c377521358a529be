//! Integration tests asserting the paper's qualitative claims end-to-end.
//!
//! These are *shape* tests: who wins, in which direction the curves bend.
//! Absolute numbers belong to the lab sweeps and `EXPERIMENTS.md`.

use elsc::ElscScheduler;
use elsc_machine::MachineConfig;
use elsc_sched_api::Scheduler;
use elsc_sched_linux::LinuxScheduler;
use elsc_simcore::CostKind;
use elsc_workloads::stress::{self, StressConfig};
use elsc_workloads::volanomark::{self, VolanoConfig};

fn reg() -> Box<dyn Scheduler> {
    Box::new(LinuxScheduler::new())
}

fn elsc() -> Box<dyn Scheduler> {
    Box::new(ElscScheduler::new())
}

/// A small but representative VolanoMark (240 threads).
fn volano(rooms: usize) -> VolanoConfig {
    VolanoConfig {
        rooms,
        users_per_room: 12,
        messages_per_user: 4,
        ..VolanoConfig::default()
    }
}

#[test]
fn elsc_examines_bounded_tasks_reg_scans_queue() {
    // Figure 5's second chart, as an invariant.
    let cfg = volano(5);
    let machine = || MachineConfig::up().with_max_secs(2_000.0);
    let r_reg = volanomark::run(machine(), reg(), &cfg);
    let r_elsc = volanomark::run(machine(), elsc(), &cfg);
    let reg_examined = r_reg.stats.total().tasks_examined_per_schedule();
    let elsc_examined = r_elsc.stats.total().tasks_examined_per_schedule();
    assert!(
        reg_examined > 8.0,
        "the baseline should scan many tasks, got {reg_examined:.2}"
    );
    assert!(
        elsc_examined <= 5.0,
        "ELSC must stay within its search limit, got {elsc_examined:.2}"
    );
}

#[test]
fn elsc_schedule_is_cheaper_under_load() {
    // Figure 5's first chart.
    let cfg = volano(5);
    let machine = || MachineConfig::up().with_max_secs(2_000.0);
    let r_reg = volanomark::run(machine(), reg(), &cfg);
    let r_elsc = volanomark::run(machine(), elsc(), &cfg);
    let c_reg = r_reg.stats.total().cycles_per_schedule();
    let c_elsc = r_elsc.stats.total().cycles_per_schedule();
    assert!(
        c_elsc < c_reg / 1.5,
        "ELSC ({c_elsc:.0}) should be well below the baseline ({c_reg:.0})"
    );
}

#[test]
fn elsc_throughput_at_least_matches_reg() {
    // Figure 3: elsc is never below reg.
    let cfg = volano(6);
    let machine = || MachineConfig::up().with_max_secs(2_000.0);
    let t_reg = volanomark::throughput(&volanomark::run(machine(), reg(), &cfg));
    let t_elsc = volanomark::throughput(&volanomark::run(machine(), elsc(), &cfg));
    assert!(
        t_elsc >= t_reg * 0.97,
        "elsc {t_elsc:.0} must not lose to reg {t_reg:.0}"
    );
}

#[test]
fn reg_scales_worse_with_rooms() {
    // Figure 4: the 3x-room/1x-room throughput ratio favours ELSC.
    let machine = || MachineConfig::up().with_max_secs(4_000.0);
    let factor = |s: fn() -> Box<dyn Scheduler>| {
        let lo = volanomark::throughput(&volanomark::run(machine(), s(), &volano(2)));
        let hi = volanomark::throughput(&volanomark::run(machine(), s(), &volano(6)));
        hi / lo
    };
    let f_reg = factor(reg);
    let f_elsc = factor(elsc);
    assert!(
        f_elsc > f_reg,
        "elsc scaling {f_elsc:.3} must beat reg {f_reg:.3}"
    );
}

#[test]
fn yield_storm_recalcs_hit_reg_not_elsc() {
    // Figure 2, via the synthetic stress workload: spinners that yield
    // constantly. On the baseline a lone yielder forces system-wide
    // recalculation; ELSC re-runs it.
    let cfg = StressConfig {
        tasks: 2,
        burst: 5_000,
        rounds: 400,
        shared_mm: true,
    };
    let machine = || MachineConfig::up().with_max_secs(2_000.0);
    let r_reg = stress::run(machine(), reg(), &cfg);
    let r_elsc = stress::run(machine(), elsc(), &cfg);
    // With two alternating spinners the baseline recalculates rarely;
    // what must hold is the ordering.
    assert!(
        r_elsc.stats.total().recalc_entries <= r_reg.stats.total().recalc_entries,
        "ELSC must never recalculate more than the baseline"
    );
    assert!(r_elsc.stats.total().yield_reruns <= r_elsc.stats.total().yields);
}

#[test]
fn lone_spinner_storms_are_reg_only() {
    // The sharpest version: one spinner, nothing else. Every yield makes
    // the baseline walk all tasks; ELSC never recalculates.
    let cfg = StressConfig {
        tasks: 1,
        burst: 5_000,
        rounds: 300,
        shared_mm: true,
    };
    let machine = || MachineConfig::up().with_max_secs(2_000.0);
    let r_reg = stress::run(machine(), reg(), &cfg);
    let r_elsc = stress::run(machine(), elsc(), &cfg);
    assert!(
        r_reg.stats.total().recalc_entries >= 250,
        "baseline should storm, got {}",
        r_reg.stats.total().recalc_entries
    );
    assert_eq!(
        r_elsc.stats.total().recalc_entries,
        0,
        "ELSC re-runs the yielder instead"
    );
    assert!(r_elsc.stats.total().yield_reruns >= 250);
}

#[test]
fn elsc_places_more_tasks_on_new_cpus_smp() {
    // Figure 6's second chart: the cost of bounded search.
    let cfg = volano(4);
    let machine = || MachineConfig::smp(2).with_max_secs(2_000.0);
    let r_reg = volanomark::run(machine(), reg(), &cfg);
    let r_elsc = volanomark::run(machine(), elsc(), &cfg);
    assert!(
        r_elsc.stats.total().picked_new_cpu > r_reg.stats.total().picked_new_cpu,
        "elsc {} should migrate more than reg {}",
        r_elsc.stats.total().picked_new_cpu,
        r_reg.stats.total().picked_new_cpu
    );
}

#[test]
fn kbuild_is_a_tie() {
    // Table 2: light load, the schedulers within a whisker.
    let cfg = elsc_workloads::kbuild::KbuildConfig {
        jobs: 4,
        translation_units: 24,
        compile_cycles: 3_000_000,
        io_blocks_per_unit: 2,
        io_block_cycles: 300_000,
        link_cycles: 5_000_000,
        jitter: 0.2,
    };
    for cpus in [1, 2] {
        let machine = || MachineConfig::smp(cpus).with_max_secs(2_000.0);
        let t_reg = elsc_workloads::kbuild::run(machine(), reg(), &cfg).elapsed_secs();
        let t_elsc = elsc_workloads::kbuild::run(machine(), elsc(), &cfg).elapsed_secs();
        let ratio = t_elsc / t_reg;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "{cpus}P: elsc/reg wall-time ratio {ratio:.4} should be ~1"
        );
    }
}

#[test]
fn smp_helps_both_schedulers() {
    // Sanity: 2 CPUs beat 1 for a *saturated* parallel workload under
    // both designs. (Under light load the baseline can actually get
    // slower on SMP — its recalculation storms fire in the lulls — so
    // think times are disabled here.)
    let mut cfg = volano(4);
    cfg.think_cycles = 0;
    for make in [reg as fn() -> Box<dyn Scheduler>, elsc] {
        let one = volanomark::run(MachineConfig::smp(1).with_max_secs(4_000.0), make(), &cfg);
        let two = volanomark::run(MachineConfig::smp(2).with_max_secs(4_000.0), make(), &cfg);
        assert!(
            two.elapsed < one.elapsed,
            "{}: 2P {:?} should beat 1P {:?}",
            one.scheduler,
            two.elapsed,
            one.elapsed
        );
    }
}

#[test]
fn elsc_advantage_survives_cost_model_recalibration() {
    // Not a paper artifact: the reproduction's absolute numbers rest on a
    // calibrated cost model, so its two most influential knobs — the
    // per-task `goodness()` evaluation and the run-queue lock's cache-line
    // transfer — are swept over a 4x range each around the calibration
    // point (60 and 600 cycles), on a think-bound and a saturated load.
    // The win is structural (O(n) scan against bounded search): it grows
    // with the evaluation cost and no point turns into a loss. The bound
    // is 0.99, not 1: where the scan is cheap or the clients mostly think,
    // the designs tie to within a fraction of a per cent either way.
    for think in [VolanoConfig::default().think_cycles, 0] {
        let mut cfg = volano(10);
        cfg.think_cycles = think;
        for (shape, base) in [("UP", MachineConfig::up()), ("4P", MachineConfig::smp(4))] {
            for goodness in [30u64, 60, 120] {
                // The transfer cost only matters with a second processor.
                for transfer in [300u64, 600, 1200] {
                    if shape == "UP" && transfer != 600 {
                        continue;
                    }
                    let throughput = |sched: Box<dyn Scheduler>| {
                        let mut machine = base.clone().with_max_secs(2_000.0);
                        machine.costs.set(CostKind::GoodnessEval, goodness);
                        machine.costs.set(CostKind::LockTransfer, transfer);
                        volanomark::throughput(&volanomark::run(machine, sched, &cfg))
                    };
                    let ratio = throughput(elsc()) / throughput(reg());
                    let at =
                        format!("think {think}, {shape}, {goodness}/eval, {transfer}/transfer");
                    assert!(ratio >= 0.99, "{at}: elsc/reg {ratio:.4}");
                    if think == 0 && goodness == 120 {
                        assert!(ratio >= 1.3, "{at}: elsc/reg {ratio:.4}");
                    }
                }
            }
        }
    }
}
