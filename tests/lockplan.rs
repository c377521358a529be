//! Lock-domain model: plan equivalences and conservation laws.
//!
//! The key behavioural guarantees of the lock-plan refactor:
//!
//! 1. On one processor every plan collapses to the same single domain,
//!    so Global and PerCpu runs are bit-identical (seed-sweep check —
//!    the offline stand-in for a proptest property).
//! 2. Per-domain spin cycles sum exactly to the machine's lock-spin
//!    total, whatever the plan.
//! 3. Splitting the lock pays: mq under its PerCpu plan spins less
//!    than mq forced onto one global lock at 4 processors.
//! 4. Schedulers that never opted in (reg, elsc) still run under one
//!    global domain, exactly as before the refactor.

use elsc_lab::SchedId;
use elsc_machine::{MachineConfig, RunReport};
use elsc_sched_api::{LockPlan, Scheduler};
use elsc_simcore::Topology;
use elsc_workloads::volanomark::{self, VolanoConfig};

fn build(name: &str, nr_cpus: usize) -> Box<dyn Scheduler> {
    name.parse::<SchedId>()
        .expect("known scheduler")
        .build(Topology::flat(nr_cpus))
}

/// Everything observable that could differ between two runs.
fn fingerprint(r: &RunReport) -> (u64, u64, u64, u64, u64, u64, u64) {
    let t = r.stats.total();
    (
        r.elapsed.get(),
        t.sched_calls,
        t.tasks_examined,
        t.ctx_switches,
        t.wakeups,
        t.lock_spin_cycles,
        t.lock_acquisitions,
    )
}

fn run_with(
    seed: u64,
    cpus: usize,
    plan: Option<LockPlan>,
    sched: Box<dyn Scheduler>,
) -> RunReport {
    let cfg = VolanoConfig {
        rooms: 2,
        users_per_room: 5,
        messages_per_user: 3,
        ..VolanoConfig::default()
    };
    volanomark::run(
        MachineConfig::smp(cpus)
            .with_seed(seed)
            .with_lock_plan(plan)
            .with_max_secs(2_000.0),
        sched,
        &cfg,
    )
}

/// Property (hand-rolled seed sweep — proptest is unavailable offline):
/// with a single processor, every plan maps every queue to the one
/// domain, so Global and PerCpu runs are indistinguishable for every
/// scheduler.
#[test]
fn global_and_percpu_agree_on_one_cpu() {
    for seed in [1, 7, 23_062, 0x5EED] {
        for id in SchedId::NATIVE {
            let name = id.label();
            let g = run_with(seed, 1, Some(LockPlan::Global), build(name, 1));
            let p = run_with(seed, 1, Some(LockPlan::PerCpu), build(name, 1));
            assert_eq!(
                fingerprint(&g),
                fingerprint(&p),
                "{name} seed {seed}: plans must agree on one CPU"
            );
            assert_eq!(g.lock_domains.len(), 1);
            assert_eq!(p.lock_domains.len(), 1);
        }
    }
}

/// Conservation: the per-domain spin cycles always sum exactly to the
/// machine's reported lock-spin total, for every plan shape.
#[test]
fn per_domain_spin_sums_to_total() {
    for (name, plan) in [
        ("reg", None),
        ("elsc", None),
        ("mq", None),                         // percpu by declaration
        ("mq", Some(LockPlan::Global)),       // forced back to one lock
        ("elsc", Some(LockPlan::PerNode(3))), // uneven nodes: 3 + 1 CPUs
    ] {
        let r = run_with(11, 4, plan, build(name, 4));
        let by_domain: u64 = r.lock_domains.iter().map(|d| d.spin_cycles).sum();
        assert_eq!(
            by_domain,
            r.lock_spin.get(),
            "{name}/{}: domain spin must sum to the total",
            r.lock_plan
        );
        let by_domain_acq: u64 = r.lock_domains.iter().map(|d| d.acquisitions).sum();
        assert_eq!(by_domain_acq, r.lock_acquisitions);
        assert!(r.lock_acquisitions > 0, "{name}: SMP runs take the lock");
    }
}

/// The per-CPU statistics see the same acquisitions the lock model does.
#[test]
fn stats_acquisitions_match_the_model() {
    let r = run_with(11, 4, None, build("mq", 4));
    assert_eq!(r.stats.total().lock_acquisitions, r.lock_acquisitions);
    let per_cpu: u64 = (0..4).map(|c| r.stats.cpu(c).lock_acquisitions).sum();
    assert_eq!(per_cpu, r.lock_acquisitions);
}

/// The point of the refactor: per-CPU lock domains cut contention.
/// mq's declared PerCpu plan must spin less than the same scheduler
/// forced onto the old global lock, on a contended 4P machine.
#[test]
fn percpu_plan_beats_global_for_mq_on_4p() {
    let cfg = VolanoConfig {
        rooms: 4,
        users_per_room: 10,
        messages_per_user: 4,
        ..VolanoConfig::default()
    };
    let run = |plan| {
        volanomark::run(
            MachineConfig::smp(4)
                .with_seed(23_062)
                .with_lock_plan(plan)
                .with_max_secs(2_000.0),
            build("mq", 4),
            &cfg,
        )
    };
    let percpu = run(None); // mq declares PerCpu itself
    let global = run(Some(LockPlan::Global));
    assert_eq!(percpu.lock_plan, "percpu");
    assert_eq!(global.lock_plan, "global");
    assert_eq!(percpu.lock_domains.len(), 4);
    assert_eq!(global.lock_domains.len(), 1);
    assert!(
        percpu.lock_spin.get() < global.lock_spin.get(),
        "splitting the lock must cut spin: percpu {} !< global {}",
        percpu.lock_spin.get(),
        global.lock_spin.get()
    );
    // Both plans still deliver every message.
    assert_eq!(percpu.ledger.get("messages"), global.ledger.get("messages"));
}

/// Schedulers that never opted in keep the pre-refactor regime — one
/// global domain, machine behaviour unchanged; the two sharded designs
/// declare their own.
#[test]
fn baseline_schedulers_keep_the_global_plan() {
    for id in SchedId::NATIVE {
        let name = id.label();
        let r = run_with(11, 2, None, build(name, 2));
        let declared = match id {
            SchedId::Mq => "percpu",
            // One lock domain per NUMA node; a flat 2P box is one node.
            SchedId::Bubble => "pernode:2",
            _ => "global",
        };
        assert_eq!(r.lock_plan, declared, "{name}");
        assert_eq!(
            r.lock_domains.len(),
            if declared == "percpu" { 2 } else { 1 },
            "{name}"
        );
    }
}

/// A UP kernel build compiles the locks out entirely.
#[test]
fn up_builds_never_touch_a_lock() {
    let cfg = VolanoConfig {
        rooms: 1,
        users_per_room: 4,
        messages_per_user: 2,
        ..VolanoConfig::default()
    };
    for plan in [None, Some(LockPlan::PerCpu)] {
        let r = volanomark::run(
            MachineConfig::up()
                .with_seed(3)
                .with_lock_plan(plan)
                .with_max_secs(2_000.0),
            build("elsc", 1),
            &cfg,
        );
        assert_eq!(r.lock_acquisitions, 0);
        assert_eq!(r.lock_spin.get(), 0);
    }
}
