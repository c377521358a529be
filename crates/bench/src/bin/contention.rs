//! Lock-contention ablation: the same scheduler under different
//! run-queue locking regimes.
//!
//! The paper attributes much of the stock scheduler's SMP cost to a
//! single global `runqueue_lock` every processor fights over (§4, §7).
//! The multi-queue design (§8) splits the run queue per processor so
//! the *lock* splits too. This binary separates the two effects: it
//! runs each scheduler under its declared lock plan **and** under a
//! forced override, so the scan-cost benefit (shorter queues) and the
//! contention benefit (more lock domains) can be read independently.
//!
//! Columns: total lock spin cycles, lock acquisitions, mean spin per
//! acquisition, and VolanoMark throughput.

use elsc_bench::{header, row, volano_cfg, SchedKind, Shape};
use elsc_sched_api::LockPlan;
use elsc_workloads::volanomark;

/// Which plans to force for a given scheduler. `None` means "whatever
/// the scheduler declares" (reg/elsc declare Global, mq declares PerCpu).
const PLANS: [Option<LockPlan>; 3] = [None, Some(LockPlan::Global), Some(LockPlan::PerCpu)];

fn main() {
    header(
        "Run-queue lock contention vs locking regime — VolanoMark, 20 rooms",
        "Molloy & Honeyman 2001, §7/§8 (runqueue_lock contention)",
    );
    let cfg = volano_cfg(20);
    let widths = [6usize, 6, 10, 12, 12, 10, 10];
    println!(
        "{}",
        row(
            &[
                "config".into(),
                "sched".into(),
                "plan".into(),
                "spin_cyc".into(),
                "lock_acq".into(),
                "spin/acq".into(),
                "msgs/s".into(),
            ],
            &widths,
        )
    );
    for shape in [Shape::Smp(1), Shape::Smp(2), Shape::Smp(4)] {
        for kind in [SchedKind::Reg, SchedKind::Elsc, SchedKind::Mq] {
            for plan in PLANS {
                let machine = shape.machine().with_seed(0x5EED_CAFE).with_lock_plan(plan);
                let report = volanomark::run(machine, kind.build(shape.topology()), &cfg);
                let spin = report.lock_spin.get();
                let acq = report.lock_acquisitions;
                let per = if acq == 0 {
                    0.0
                } else {
                    spin as f64 / acq as f64
                };
                println!(
                    "{}",
                    row(
                        &[
                            shape.label(),
                            kind.label().into(),
                            match plan {
                                None => format!("({})", report.lock_plan),
                                Some(_) => report.lock_plan.clone(),
                            },
                            format!("{spin}"),
                            format!("{acq}"),
                            format!("{per:.1}"),
                            format!("{:.0}", volanomark::throughput(&report)),
                        ],
                        &widths,
                    )
                );
            }
        }
    }
    println!("\nplan names in parentheses are the scheduler's own declaration.");
    println!("expected shape: with one CPU every plan is identical (a single");
    println!("processor never contends with itself); at 2P/4P the percpu plan");
    println!("cuts mq's spin cycles sharply versus a forced global plan. The");
    println!("percpu rows for reg/elsc are a what-if — a real kernel could not");
    println!("split the lock over their one shared list without also splitting");
    println!("the list, which is exactly what mq does.");
}
