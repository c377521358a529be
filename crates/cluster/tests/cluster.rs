//! Integration tests for the federated cluster: the headline
//! determinism invariant, the dispatcher tier's observable properties,
//! fault completion-safety, and per-node oracle cleanliness.

use elsc::ElscScheduler;
use elsc_chaos::ClusterFaultPlan;
use elsc_cluster::{volano, Cluster, ClusterConfig, ClusterError, DispatcherId};
use elsc_machine::{MachineConfig, RunError};
use elsc_sched_api::Scheduler;
use elsc_sched_linux::LinuxScheduler;
use elsc_workloads::volanomark::{self, VolanoConfig};

fn tiny() -> VolanoConfig {
    VolanoConfig {
        rooms: 4,
        users_per_room: 4,
        messages_per_user: 3,
        ..VolanoConfig::default()
    }
}

fn node_cfg(seed: u64) -> MachineConfig {
    MachineConfig::smp(2).with_seed(seed).with_max_secs(200.0)
}

fn elsc_sched(_node: usize) -> Box<dyn Scheduler> {
    Box::new(ElscScheduler::new())
}

fn linux_sched(_node: usize) -> Box<dyn Scheduler> {
    Box::new(LinuxScheduler::new())
}

#[test]
fn merged_report_is_byte_identical_across_runs() {
    let run = || {
        let cfg = ClusterConfig::new(4, DispatcherId::LeastLoaded, node_cfg(11))
            .with_faults(Some(ClusterFaultPlan::light()))
            .with_fault_seed(7);
        volano::run(cfg, elsc_sched, &tiny()).expect("cluster completes")
    };
    assert_eq!(run().to_json(), run().to_json());
}

#[test]
fn different_seeds_produce_different_reports() {
    let run = |seed| {
        let cfg = ClusterConfig::new(2, DispatcherId::RoundRobin, node_cfg(seed));
        volano::run(cfg, elsc_sched, &tiny()).expect("cluster completes")
    };
    assert_ne!(run(1).to_json(), run(2).to_json());
}

#[test]
fn single_node_cluster_matches_standalone_run_byte_for_byte() {
    // The degenerate federation: same pipes, same spawn order, same RNG
    // draws, stepped instead of free-run — the node report must equal
    // the standalone machine's bytes exactly.
    let cluster = {
        let cfg = ClusterConfig::new(1, DispatcherId::LeastLoaded, node_cfg(42));
        volano::run(cfg, linux_sched, &tiny()).expect("cluster completes")
    };
    let standalone = volanomark::run(node_cfg(42), Box::new(LinuxScheduler::new()), &tiny());
    assert_eq!(cluster.nodes.len(), 1);
    assert_eq!(cluster.nodes[0].to_json(), standalone.to_json());
}

#[test]
fn all_messages_are_delivered_across_nodes() {
    let wl = tiny();
    for dispatcher in DispatcherId::ALL {
        let cfg = ClusterConfig::new(3, dispatcher, node_cfg(5));
        let r = volano::run(cfg, elsc_sched, &wl).expect("cluster completes");
        assert_eq!(
            r.ledger_total("messages"),
            wl.total_deliveries(),
            "{dispatcher}: every broadcast must arrive"
        );
        assert!(r.conservation_ok(), "{dispatcher}: per-node cycle ledgers");
        assert!(volano::throughput(&r) > 0.0);
    }
}

#[test]
fn locality_dispatcher_moves_zero_fabric_traffic() {
    let cfg = ClusterConfig::new(4, DispatcherId::Locality, node_cfg(9));
    let r = volano::run(cfg, elsc_sched, &tiny()).expect("cluster completes");
    assert_eq!(r.fabric_msgs(), 0, "co-located rooms need no links");
    assert_eq!(r.links.len(), 0, "no bridges at all");
    assert_eq!(r.bridge_drains, 0, "nothing for the exchange to visit");
    // Load still spreads: rooms rotate across nodes.
    assert!(r.node_tasks().iter().all(|&t| t > 0));
}

#[test]
fn least_loaded_spreads_wider_than_consistent_hash() {
    // The acceptance criterion: measurably different load spread. With
    // thread-count balancing the max/min gap across nodes must be no
    // worse than the hash ring's (and strictly better in imbalance).
    let wl = tiny();
    let spread = |dispatcher| {
        let cfg = ClusterConfig::new(4, dispatcher, node_cfg(13));
        let r = volano::run(cfg, elsc_sched, &wl).expect("cluster completes");
        let tasks = r.node_tasks();
        (
            *tasks.iter().max().unwrap() - *tasks.iter().min().unwrap(),
            tasks,
        )
    };
    let (ll_gap, ll_tasks) = spread(DispatcherId::LeastLoaded);
    let (ch_gap, ch_tasks) = spread(DispatcherId::ConsistentHash);
    assert!(
        ll_gap < ch_gap,
        "least-loaded {ll_tasks:?} (gap {ll_gap}) must balance tighter than \
         consistent-hash {ch_tasks:?} (gap {ch_gap})"
    );
}

#[test]
fn four_node_oracle_is_clean_under_no_faults_and_light_faults() {
    let wl = tiny();
    for faults in [None, Some(ClusterFaultPlan::light())] {
        let label = faults.as_ref().map_or("none", |f| f.label()).to_string();
        let cfg = ClusterConfig::new(4, DispatcherId::LeastLoaded, node_cfg(3).with_oracle(true))
            .with_faults(faults)
            .with_fault_seed(21);
        let r = volano::run(cfg, elsc_sched, &wl).expect("cluster completes");
        assert_eq!(r.ledger_total("messages"), wl.total_deliveries(), "{label}");
        for node in &r.nodes {
            let oracle = node
                .chaos
                .as_ref()
                .and_then(|c| c.oracle.as_ref())
                .expect("oracle was enabled");
            assert!(oracle.decisions > 0, "{label}: oracle judged decisions");
            assert_eq!(
                oracle.unexplained, 0,
                "{label}: node {} diverged: {:?}",
                node.config, oracle.first_unexplained
            );
            assert_eq!(oracle.invariant_violations, 0, "{label}");
        }
    }
}

#[test]
fn partitions_heal_and_the_run_still_completes() {
    // Aggressive partition rates: traffic stalls repeatedly but nothing
    // is dropped, so the benchmark still finishes with full delivery.
    let wl = tiny();
    let cfg = ClusterConfig::new(2, DispatcherId::RoundRobin, node_cfg(17))
        .with_faults(Some("partition=0.05,node_pause=0.01".parse().unwrap()))
        .with_fault_seed(99);
    let r = volano::run(cfg, elsc_sched, &wl).expect("cluster completes despite partitions");
    assert_eq!(r.ledger_total("messages"), wl.total_deliveries());
    assert!(
        r.fault_counts.partitions > 0,
        "the plan must actually have fired: {:?}",
        r.fault_counts
    );
    let held: u64 = r.links.iter().map(|l| l.stats.held).sum();
    assert!(held > 0, "some segment must have waited out a partition");
}

#[test]
fn cross_node_wiring_is_what_the_report_says() {
    // Round-robin on 2 nodes with 4-user rooms: every room splits, so
    // both directions of fabric must carry traffic.
    let wl = tiny();
    let cfg = ClusterConfig::new(2, DispatcherId::RoundRobin, node_cfg(8));
    let mut cluster = Cluster::new(cfg, elsc_sched);
    let homes = volano::build_sharded(&mut cluster, &wl);
    assert_eq!(homes, vec![0, 1, 0, 1], "rotation interleaves placements");
    let r = cluster.run().expect("cluster completes");
    assert!(r.fabric_msgs() > 0);
    for l in &r.links {
        assert!(l.stats.msgs > 0, "link {}->{} idle", l.from, l.to);
        assert!(l.stats.bytes > 0);
    }
    assert_eq!(r.ledger_total("messages"), wl.total_deliveries());
}

#[test]
fn the_exchange_drains_only_bridges_with_traffic() {
    let cfg = ClusterConfig::new(4, DispatcherId::LeastLoaded, node_cfg(13));
    let r = volano::run(cfg, elsc_sched, &tiny()).expect("cluster completes");
    // Every drain moves a segment or a FIN (both count as link messages):
    // a bridge is visited only after a write or a close reached it.
    assert!(r.bridge_drains > 0, "split rooms must drain");
    assert!(
        r.bridge_drains <= r.fabric_msgs(),
        "{} drains for {} segments and FINs",
        r.bridge_drains,
        r.fabric_msgs()
    );
}

#[test]
fn four_node_exchange_matches_the_full_walk_under_faults() {
    // Debug builds check after every exchange that no bridge, skipped or
    // drained, holds a segment or an unsent close; these runs drive that
    // check through partitions, congestion and node pauses.
    let wl = VolanoConfig {
        messages_per_user: 12,
        ..tiny()
    };
    let plans = [
        None,
        Some(ClusterFaultPlan::light()),
        Some(ClusterFaultPlan::heavy()),
    ];
    for faults in plans {
        for seed in [4, 19] {
            let label = faults.as_ref().map_or("none", |f| f.label()).to_string();
            let cfg = ClusterConfig::new(
                4,
                DispatcherId::LeastLoaded,
                node_cfg(seed).with_oracle(true),
            )
            .with_faults(faults.clone())
            .with_fault_seed(seed);
            let r = volano::run(cfg, elsc_sched, &wl).expect("cluster completes");
            assert_eq!(r.ledger_total("messages"), wl.total_deliveries(), "{label}");
            assert!(r.bridge_drains <= r.fabric_msgs(), "{label}/{seed}");
            for node in &r.nodes {
                let oracle = node
                    .chaos
                    .as_ref()
                    .and_then(|c| c.oracle.as_ref())
                    .expect("oracle was enabled");
                assert_eq!(oracle.unexplained, 0, "{label}/{seed}");
                assert_eq!(oracle.invariant_violations, 0, "{label}/{seed}");
            }
        }
    }
}

#[test]
fn a_node_frozen_past_every_barrier_trips_the_watchdog() {
    // Pausing every node every epoch pushes each pending event past the
    // next barrier, so no node ever dispatches and the per-node watchdog,
    // which runs at dispatch, never fires. The barrier check must.
    let node = MachineConfig::smp(2).with_seed(1).with_max_secs(2.0);
    let max = node.max_cycles;
    let wl = VolanoConfig {
        rooms: 1,
        users_per_room: 2,
        messages_per_user: 1,
        ..VolanoConfig::default()
    };
    let cfg = ClusterConfig::new(2, DispatcherId::RoundRobin, node)
        .with_faults(Some("node_pause=1".parse().unwrap()));
    let epoch = cfg.epoch_cycles;
    match volano::run(cfg, elsc_sched, &wl) {
        Err(ClusterError::Node {
            node: 0,
            err: RunError::Watchdog { at },
        }) => assert_eq!(
            at.get(),
            max.div_ceil(epoch) * epoch,
            "first barrier past it"
        ),
        other => panic!("want node 0's watchdog, got {other:?}"),
    }
}
