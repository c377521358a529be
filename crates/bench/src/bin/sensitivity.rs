//! Sensitivity analysis: does the paper's conclusion depend on our cost
//! calibration?
//!
//! The reproduction's absolute numbers come from a calibrated cost model
//! (see `EXPERIMENTS.md`). This binary sweeps the two most influential
//! knobs — the per-task `goodness()` evaluation cost and the run-queue
//! lock cache-line transfer cost — over a 4× range each and reports the
//! elsc/reg throughput ratio at 10 rooms. The claim is robust if the
//! ratio stays above 1 across the sweep.

use elsc_bench::{header, volano_cfg, SchedKind, Shape};
use elsc_simcore::CostKind;
use elsc_workloads::volanomark;

fn ratio_with(goodness: u64, transfer: u64, shape: Shape) -> (f64, f64, f64) {
    let mut t = [0.0f64; 2];
    for (i, kind) in [SchedKind::Elsc, SchedKind::Reg].into_iter().enumerate() {
        let mut machine = shape.machine();
        machine.costs.set(CostKind::GoodnessEval, goodness);
        machine.costs.set(CostKind::LockTransfer, transfer);
        let cfg = volano_cfg(10);
        let report = volanomark::run(machine, kind.build(shape.topology()), &cfg);
        t[i] = volanomark::throughput(&report);
    }
    (t[0], t[1], t[0] / t[1])
}

fn main() {
    header(
        "Sensitivity: elsc/reg throughput ratio vs cost-model calibration",
        "robustness check for the reproduction (not a paper artifact)",
    );
    println!(
        "{:<10} {:>9} {:>9} {:>10} {:>10} {:>9}",
        "config", "goodness", "transfer", "elsc", "reg", "ratio"
    );
    let mut min_ratio = f64::INFINITY;
    for shape in [Shape::Up, Shape::Smp(4)] {
        for goodness in [30u64, 60, 120] {
            for transfer in [300u64, 600, 1200] {
                // The transfer cost only matters on SMP; skip the
                // redundant UP rows.
                if shape == Shape::Up && transfer != 600 {
                    continue;
                }
                let (elsc, reg, ratio) = ratio_with(goodness, transfer, shape);
                min_ratio = min_ratio.min(ratio);
                println!(
                    "{:<10} {:>9} {:>9} {:>10.0} {:>10.0} {:>9.3}",
                    shape.label(),
                    goodness,
                    transfer,
                    elsc,
                    reg,
                    ratio
                );
            }
        }
    }
    println!("\nminimum elsc/reg ratio across the sweep: {min_ratio:.3}");
    println!("conclusion holds iff every ratio >= 1: the win is structural (O(n)");
    println!("scan vs bounded search), not an artifact of one calibration point.");
}
