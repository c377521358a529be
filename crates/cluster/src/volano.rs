//! Sharding VolanoMark across a cluster.
//!
//! The single-machine builder ([`elsc_workloads::volanomark::build`])
//! wires every room and connection onto one pipe table. This module
//! makes the same topology decisions one level up: the dispatcher
//! places each room's server side on a *home* node and each client
//! connection on some node; co-located endpoints share a plain local
//! pipe, split endpoints get an egress/ingress pipe pair bridged
//! through the federation's links.
//!
//! Under a 1-node cluster every placement collapses to node 0 and the
//! build degenerates to the single-machine builder — same pipes, same
//! spawn order, same RNG draws — which is what makes a 1-node cluster
//! cell byte-identical to the standalone cell (pinned by test).

use std::sync::Arc;

use elsc_sched_api::Scheduler;
use elsc_workloads::volanomark::{
    new_room_monitor, spawn_client_pair, spawn_server_pair, VolanoConfig, PIPE_CAPACITY,
};

use crate::dispatch::Dispatcher;
use crate::federation::{Cluster, ClusterConfig, ClusterError};
use crate::report::ClusterReport;

/// Shards the VolanoMark topology across the cluster's nodes using the
/// configured dispatcher. Returns each room's home node.
pub fn build_sharded(cluster: &mut Cluster, cfg: &VolanoConfig) -> Vec<usize> {
    assert!(cfg.rooms > 0 && cfg.users_per_room > 0 && cfg.messages_per_user > 0);
    let mut dispatcher = Dispatcher::new(cluster.config().dispatcher, cluster.nodes());
    let users = cfg.users_per_room;
    // Placement weights are thread counts: the server side of a room is
    // two threads per member, a client connection is two threads.
    let room_weight = 2 * users as u64;
    let mut homes = Vec::with_capacity(cfg.rooms);
    for room in 0..cfg.rooms {
        let home = dispatcher.place_room(room, room_weight);
        homes.push(home);
        let outboxes: Arc<[_]> = (0..users)
            .map(|_| cluster.machine(home).create_pipe(PIPE_CAPACITY))
            .collect();
        let monitor = new_room_monitor();
        for user in 0..users {
            let node = dispatcher.place_client(room, user, home, 2);
            let tag = (room * users + user) as u64;
            if node == home {
                // Co-located: one local pipe per direction, exactly the
                // single-machine wiring.
                let c2s = cluster.machine(home).create_pipe(PIPE_CAPACITY);
                let s2c = cluster.machine(home).create_pipe(PIPE_CAPACITY);
                spawn_client_pair(cluster.machine(home), cfg, c2s, s2c, tag);
                spawn_server_pair(
                    cluster.machine(home),
                    cfg,
                    c2s,
                    s2c,
                    outboxes[user],
                    &outboxes,
                    &monitor,
                );
            } else {
                // Split: each direction is an egress pipe on the writer's
                // node bridged to an ingress pipe on the reader's node.
                let c2s_egress = cluster.machine(node).create_pipe(PIPE_CAPACITY);
                let s2c_ingress = cluster.machine(node).create_pipe(PIPE_CAPACITY);
                let c2s_ingress = cluster.machine(home).create_pipe(PIPE_CAPACITY);
                let s2c_egress = cluster.machine(home).create_pipe(PIPE_CAPACITY);
                cluster.bridge(node, c2s_egress, home, c2s_ingress);
                cluster.bridge(home, s2c_egress, node, s2c_ingress);
                spawn_client_pair(cluster.machine(node), cfg, c2s_egress, s2c_ingress, tag);
                spawn_server_pair(
                    cluster.machine(home),
                    cfg,
                    c2s_ingress,
                    s2c_egress,
                    outboxes[user],
                    &outboxes,
                    &monitor,
                );
            }
        }
    }
    homes
}

/// Builds and runs a sharded VolanoMark cluster.
pub fn run(
    cluster_cfg: ClusterConfig,
    mk_sched: impl FnMut(usize) -> Box<dyn Scheduler>,
    cfg: &VolanoConfig,
) -> Result<ClusterReport, ClusterError> {
    let mut cluster = Cluster::new(cluster_cfg, mk_sched);
    build_sharded(&mut cluster, cfg);
    cluster.run()
}

/// The benchmark metric: cluster-wide delivered messages per simulated
/// second (against the makespan).
pub fn throughput(report: &ClusterReport) -> f64 {
    report.per_sec("messages")
}

/// Total deliveries a clean run must produce (same formula as the
/// single-machine benchmark — sharding changes placement, not volume).
pub fn total_deliveries(cfg: &VolanoConfig) -> u64 {
    cfg.total_deliveries()
}
