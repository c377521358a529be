//! Chaos integration: deterministic fault injection and the differential
//! scheduler oracle, exercised end-to-end through real workloads.
//!
//! Three claims are pinned here:
//!
//! 1. **Determinism** — a faulted run is a pure function of
//!    `(seed, fault_seed, plan, config, scheduler)`: identical inputs give
//!    a byte-identical report, and the fault seed is an independent axis
//!    (changing it changes the injections, not the workload's structure).
//! 2. **Equivalence** — the strict oracle reports zero unexplained
//!    divergences for `elsc` and `reg` across seeds and workload shapes
//!    (the §5 claim the oracle exists to check).
//! 3. **Coverage** — every fault class a plan enables is actually
//!    injected and counted, and injected faults never break the machine's
//!    cycle-conservation invariant.

use elsc::ElscScheduler;
use elsc_lab::{SchedId, Shape};
use elsc_machine::{FaultPlan, Machine, MachineConfig, RunReport};
use elsc_sched_api::Scheduler;
use elsc_sched_linux::LinuxScheduler;
use elsc_workloads::httpd::{self, HttpdConfig};
use elsc_workloads::stress::{self, StressConfig};
use elsc_workloads::volanomark::{self, VolanoConfig};

fn volano(cfg: MachineConfig, sched: Box<dyn Scheduler>, rooms: usize, users: usize) -> RunReport {
    let w = VolanoConfig {
        rooms,
        users_per_room: users,
        messages_per_user: 3,
        think_cycles: 0,
        ..VolanoConfig::default()
    };
    volanomark::run(cfg.with_max_secs(2_000.0), sched, &w)
}

// ---------------------------------------------------------------- claim 1

#[test]
fn identical_fault_seeds_give_byte_identical_reports() {
    let run = |fault_seed: u64| {
        let cfg = MachineConfig::smp(2)
            .with_seed(7)
            .with_faults(Some(FaultPlan::heavy()))
            .with_fault_seed(fault_seed)
            .with_oracle(true);
        volano(cfg, Box::new(ElscScheduler::new()), 2, 4)
    };
    let a = run(42);
    let b = run(42);
    assert_eq!(a.to_json(), b.to_json(), "same fault seed, same bytes");

    // The fault seed is a real axis: a different stream draws different
    // injections. (Everything else — workload, seed, plan — held fixed.)
    let c = run(43);
    assert_ne!(
        a.chaos.as_ref().unwrap().to_json(),
        c.chaos.as_ref().unwrap().to_json(),
        "different fault seed, different injections"
    );
}

#[test]
fn fault_free_oracle_runs_are_also_deterministic() {
    let run = || {
        let cfg = MachineConfig::up().with_seed(3).with_oracle(true);
        volano(cfg, Box::new(ElscScheduler::new()), 1, 4)
    };
    assert_eq!(run().to_json(), run().to_json());
}

// ---------------------------------------------------------------- claim 2

/// The property sweep the issue asks for: for every (seed, shape) in a
/// small deterministic grid, `elsc` under the strict oracle reports zero
/// unexplained divergences and zero invariant violations on UP. Shapes
/// cover saturated fan-in (one big room), many small rooms, and a
/// yield-heavy stress mix — the three regimes that exercise the bounded
/// search, the recalculation loop, and the yield-rerun path.
#[test]
fn elsc_oracle_is_clean_on_up_across_seeds_and_shapes() {
    for seed in [1u64, 2, 5, 11, 23] {
        for (rooms, users) in [(1usize, 8usize), (3, 3), (2, 5)] {
            let cfg = MachineConfig::up().with_seed(seed).with_oracle(true);
            let r = volano(cfg, Box::new(ElscScheduler::new()), rooms, users);
            let o = r.chaos.as_ref().unwrap().oracle.as_ref().unwrap();
            assert!(
                o.clean(),
                "seed {seed} rooms {rooms} users {users}: {} unexplained, {} violations ({:?})",
                o.unexplained,
                o.invariant_violations,
                o.first_unexplained.as_ref().or(o.first_violation.as_ref()),
            );
            assert!(o.decisions > 0, "the oracle actually judged decisions");
        }
        // Yield-heavy: every round ends in sched_yield(), so the lone and
        // shadowed yield-rerun paths both fire.
        let cfg = MachineConfig::up().with_seed(seed).with_oracle(true);
        let w = StressConfig {
            tasks: 6,
            rounds: 4,
            burst: 30_000,
            ..StressConfig::default()
        };
        let r = stress::run(
            cfg.with_max_secs(2_000.0),
            Box::new(ElscScheduler::new()),
            &w,
        );
        let o = r.chaos.as_ref().unwrap().oracle.as_ref().unwrap();
        assert!(o.clean(), "stress seed {seed}: {:?}", o.first_unexplained);
    }
}

/// The baseline scheduler *is* the reference algorithm, so it is held to
/// the same strict standard — a divergence there would mean the oracle's
/// replay itself drifted from `sched-linux`.
#[test]
fn reg_oracle_is_clean_on_up() {
    for seed in [1u64, 9] {
        let cfg = MachineConfig::up().with_seed(seed).with_oracle(true);
        let r = volano(cfg, Box::new(LinuxScheduler::new()), 2, 4);
        let o = r.chaos.as_ref().unwrap().oracle.as_ref().unwrap();
        assert!(o.clean(), "reg seed {seed}: {:?}", o.first_unexplained);
    }
}

/// Faults perturb *when* decisions happen, never *what* the scheduler may
/// legally decide: the oracle must stay clean under heavy injection.
#[test]
fn elsc_oracle_stays_clean_under_faults_on_up() {
    let cfg = MachineConfig::up()
        .with_seed(4)
        .with_faults(Some(FaultPlan::heavy()))
        .with_fault_seed(99)
        .with_oracle(true);
    let r = volano(cfg, Box::new(ElscScheduler::new()), 2, 4);
    let c = r.chaos.as_ref().unwrap();
    assert!(c.counts.total() > 0, "heavy plan injected something");
    let o = c.oracle.as_ref().unwrap();
    assert!(o.clean(), "{:?}", o.first_unexplained);
}

// ---------------------------------------------------------------- claim 3

#[test]
fn heavy_plan_exercises_every_smp_fault_class() {
    let cfg = MachineConfig::smp(2)
        .with_seed(8)
        .with_faults(Some(FaultPlan::heavy()))
        .with_fault_seed(1);
    let r = volano(cfg, Box::new(ElscScheduler::new()), 3, 5);
    let c = r.chaos.as_ref().unwrap();
    assert_eq!(c.fault_plan.as_deref(), Some("heavy"));
    // The heavy preset enables the scheduler-side classes; each must have
    // fired at least once on a run of this size.
    assert!(c.counts.ticks_jittered > 0, "tick jitter: {:?}", c.counts);
    assert!(
        c.counts.spurious_wakeups > 0,
        "spurious wakeups: {:?}",
        c.counts
    );
    assert!(
        c.counts.ipi_delayed + c.counts.ipi_dropped > 0,
        "ipi faults: {:?}",
        c.counts
    );
    assert!(c.counts.lock_holds > 0, "lock holds: {:?}", c.counts);
    assert!(
        r.conservation_ok,
        "faults must not break cycle conservation"
    );
}

#[test]
fn net_plan_exercises_the_pipe_fault_classes() {
    let cfg = MachineConfig::up()
        .with_seed(8)
        .with_faults(Some(FaultPlan::net()))
        .with_fault_seed(2);
    let r = volano(cfg, Box::new(ElscScheduler::new()), 3, 5);
    let c = r.chaos.as_ref().unwrap();
    assert!(c.counts.short_writes > 0, "short writes: {:?}", c.counts);
    assert!(r.conservation_ok);
}

/// A reset connection ends an `httpd` conversation, it does not wedge
/// it: whichever pipe dies — the accept queue, one client's response
/// socket or the completion channel — every task sees EOF and exits, so
/// the run finishes long before the watchdog with a clean ledger.
#[test]
fn httpd_finishes_cleanly_when_peers_reset() {
    let w = HttpdConfig {
        workers: 3,
        clients: 12,
        requests_per_client: 6,
        handle_work: 50_000,
        client_work: 10_000,
        think_cycles: 100_000,
        backlog: 4,
        jitter: 0.2,
    };
    for plan in ["peer_reset=0.01", "net"] {
        let mut resets = 0;
        for sched in [SchedId::Reg, SchedId::Elsc, SchedId::Mq] {
            for shape in [Shape::Up, Shape::Smp(2)] {
                for fault_seed in [1u64, 2, 7] {
                    let cfg = shape
                        .machine()
                        .with_faults(Some(plan.parse().unwrap()))
                        .with_fault_seed(fault_seed)
                        .with_max_secs(2.0);
                    let mut m = Machine::new(cfg, sched.build(shape.topology()));
                    httpd::build(&mut m, &w);
                    let what = format!(
                        "{plan} {} {} seed {fault_seed}",
                        sched.label(),
                        shape.label()
                    );
                    let r = m.run().unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert!(r.conservation_ok, "{what}: conservation");
                    assert_eq!(r.tasks_spawned as usize, w.workers + w.clients + 1);
                    assert!(
                        r.ledger.get("responses") <= r.ledger.get("requests_served"),
                        "{what}: a response nobody served"
                    );
                    resets += r.chaos.as_ref().unwrap().counts.peer_resets;
                }
            }
        }
        assert!(resets > 0, "{plan}: the grid injected no reset");
    }
}

#[test]
fn no_plan_means_no_injections() {
    let cfg = MachineConfig::up().with_seed(8).with_oracle(true);
    let r = volano(cfg, Box::new(ElscScheduler::new()), 1, 4);
    let c = r.chaos.as_ref().unwrap();
    assert_eq!(c.fault_plan, None);
    assert_eq!(c.counts.total(), 0);
}
