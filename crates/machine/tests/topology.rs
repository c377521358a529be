//! Topology integration tests: the bubble scheduler re-homing whole
//! address-space groups across NUMA nodes must conserve every kernel
//! cycle in the profiler ledger and stay deterministic.

use elsc_ktask::{MmId, TaskSpec};
use elsc_machine::behavior::Script;
use elsc_machine::{Machine, MachineConfig, Op, StepStatus, Syscall};
use elsc_sched_ext::BubbleScheduler;
use elsc_simcore::{Cycles, Topology};

/// A workload that forces cross-node traffic: a few large address-space
/// groups with more runnable tasks than one node can hold, plus sleep
/// phases so nodes go idle and steal (which re-homes whole groups).
fn spawn_groups(m: &mut Machine, groups: u32, tasks_per_group: u32) {
    for mm in 1..=groups {
        for _ in 0..tasks_per_group {
            m.spawn(
                &TaskSpec::named("member").mm(MmId(mm)),
                Box::new(Script::new(
                    (0..6)
                        .map(|_| Op::compute(400_000, Syscall::Nop))
                        .flat_map(|c| [c, Op::sleep_after(50_000, 300_000)])
                        .collect(),
                )),
            );
        }
    }
}

#[test]
fn bubble_rehoming_under_stepped_barriers_conserves_cycles() {
    // Step the machine in small barriers, so re-homes, steals and exits
    // land on both sides of a `step_until` boundary.
    let topo: Topology = "2N2C1T".parse().unwrap();
    let cfg = MachineConfig::topo(topo).with_max_secs(200.0);
    let mut m = Machine::new(cfg, Box::new(BubbleScheduler::new(topo)));
    spawn_groups(&mut m, 3, 4);
    m.start();
    let mut barrier = 0u64;
    let report = loop {
        barrier += 2_000_000;
        let status = m.step_until(Cycles(barrier)).expect("no watchdog");
        if status == StepStatus::Done {
            break m.finish();
        }
    };
    assert!(report.conservation_ok, "kernel cycles must be conserved");
    let topo_sum = report.topology.expect("multi-level run reports topology");
    assert_eq!(topo_sum.shape, "2N2C1T");
    // The scenario must actually have moved work between nodes —
    // otherwise the run above never exercised a re-home.
    assert!(
        topo_sum.migrations_cross_node > 0,
        "expected cross-node migrations, got same_core={} same_node={} cross_node={}",
        topo_sum.migrations_same_core,
        topo_sum.migrations_same_node,
        topo_sum.migrations_cross_node
    );
}

#[test]
fn bubble_run_is_deterministic_on_smt_topology() {
    // Same spawn order, same topology -> byte-identical reports. The
    // bubble scheduler's BTreeMap home table and lowest-index
    // tie-breaks must not leak any iteration-order nondeterminism.
    let run = || {
        let topo: Topology = "2N4C2T".parse().unwrap();
        let cfg = MachineConfig::topo(topo).with_max_secs(200.0);
        let mut m = Machine::new(cfg, Box::new(BubbleScheduler::new(topo)));
        spawn_groups(&mut m, 4, 4);
        m.run().expect("run completes").to_json()
    };
    let a = run();
    assert_eq!(a, run(), "bubble runs must be reproducible");
    assert!(a.contains("\"shape\":\"2N4C2T\""));
}
