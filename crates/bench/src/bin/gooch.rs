//! Richard Gooch's "Linux Scheduler Benchmark" (the paper's reference
//! \[5\]): measure the cost of a `sched_yield()` round trip as a function
//! of the number of runnable background processes.
//!
//! Gooch's original ran two yielding processes against N low-priority
//! spinners and reported the per-yield overhead growing linearly with N
//! on the stock scheduler — the same O(n) scan the paper attacks. This
//! binary reproduces that sweep inside the simulator for all five
//! scheduler designs.

use elsc_bench::{header, SchedKind};
use elsc_machine::MachineConfig;
use elsc_simcore::Topology;
use elsc_workloads::stress::{self, StressConfig};

/// Average simulated scheduler cost per yield, with `n` spinners.
fn cost_per_yield(kind: &SchedKind, n: usize) -> f64 {
    let cfg = StressConfig {
        tasks: n,
        burst: 2_000,
        rounds: 40,
        shared_mm: true,
    };
    let machine = MachineConfig::up().with_max_secs(4_000.0);
    let report = stress::run(machine, kind.build(Topology::flat(1)), &cfg);
    let t = report.stats.total();
    (t.sched_cycles + t.lock_spin_cycles) as f64 / t.yields.max(1) as f64
}

fn main() {
    header(
        "Gooch scheduler benchmark — yield cost vs runnable processes",
        "Molloy & Honeyman 2001, reference [5] (Gooch 1998)",
    );
    let sweep = [2usize, 8, 32, 128, 512];
    print!("{:<8}", "sched");
    for n in sweep {
        print!("{:>10}", format!("n={n}"));
    }
    println!("{:>10}", "512/2");
    for kind in SchedKind::ALL {
        let costs: Vec<f64> = sweep.iter().map(|&n| cost_per_yield(&kind, n)).collect();
        print!("{:<8}", kind.label());
        for c in &costs {
            print!("{:>10.0}", c);
        }
        println!("{:>10.1}", costs[costs.len() - 1] / costs[0]);
    }
    println!("\nexpected: reg's per-yield scheduler cost grows linearly with the");
    println!("number of runnable processes (Gooch's original finding); the");
    println!("bounded-search designs stay flat. (mq tracks reg here: on a");
    println!("single CPU its one queue degenerates to the same full scan.)");
}
