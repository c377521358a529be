//! The conservative time-stepped federation.
//!
//! N [`Machine`]s advance in lock-step *exchange epochs*: every node
//! simulates up to the epoch barrier, then the federation drains each
//! bridged egress pipe the epoch touched (the nodes' pipe change logs
//! name them, so an idle bridge costs nothing), runs the segments
//! through the connecting [`Link`]'s delay model, and injects the
//! arrivals into the destination node's event queue. Every node has
//! already simulated up to the barrier when the exchange runs, and
//! every arrival lands strictly *after* it (the link adds propagation
//! latency), so no message can
//! affect an instant a node has already passed — the conservative
//! synchronisation argument — and the merged result is a pure function
//! of `(seed, fault_seed, plan, cluster config)` no matter how the
//! surrounding lab schedules cells onto worker threads.
//!
//! Cluster-level faults (partitions, slow links, node pauses) are drawn
//! once per epoch from [`ClusterInjector`] streams in fixed link/node
//! order, so the fault schedule is part of the same determinism
//! contract.

use elsc_chaos::{ClusterFaultPlan, ClusterInjector};
use elsc_machine::{Machine, MachineConfig, RunError, StepStatus};
use elsc_netsim::{Link, LinkConfig, Msg, PipeId};
use elsc_sched_api::Scheduler;
use elsc_simcore::Cycles;

use crate::dispatch::DispatcherId;
use crate::report::{ClusterReport, LinkReport};

/// Cluster-wide configuration: the node template plus the fabric's
/// epoch and faults. Every inter-node link runs [`LinkConfig::default`].
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of federated machines.
    pub nodes: usize,
    /// Placement policy for the dispatcher tier.
    pub dispatcher: DispatcherId,
    /// Per-node machine template. Each node runs a copy with its seed,
    /// fault seed, and node id derived per [`node_seed`]; everything
    /// else (CPU count, costs, tick, watchdog, oracle) is shared.
    pub node_cfg: MachineConfig,
    /// Exchange-epoch length in cycles (default 400 000 = 1 ms at
    /// 400 MHz). Egress traffic is only drained at epoch barriers, so
    /// the effective cross-node latency is quantised up by at most one
    /// epoch; smaller epochs trade federation overhead for fidelity.
    pub epoch_cycles: u64,
    /// Cluster-level fault plan (`None` runs a clean fabric).
    pub faults: Option<ClusterFaultPlan>,
    /// Seed for the cluster-level fault streams.
    pub fault_seed: u64,
}

impl ClusterConfig {
    /// A cluster of `nodes` copies of `node_cfg` with default fabric:
    /// 1 ms epochs, 100 µs / ~100 Mbit/s links, no faults.
    pub fn new(nodes: usize, dispatcher: DispatcherId, node_cfg: MachineConfig) -> ClusterConfig {
        ClusterConfig {
            nodes,
            dispatcher,
            fault_seed: node_cfg.fault_seed,
            node_cfg,
            epoch_cycles: 400_000,
            faults: None,
        }
    }

    /// Builder-style cluster fault plan.
    pub fn with_faults(mut self, plan: Option<ClusterFaultPlan>) -> ClusterConfig {
        self.faults = plan;
        self
    }

    /// Builder-style cluster fault seed.
    pub fn with_fault_seed(mut self, seed: u64) -> ClusterConfig {
        self.fault_seed = seed;
        self
    }
}

/// Derives node `n`'s seed from the cluster seed. Node 0 keeps the
/// cluster seed unchanged, so a 1-node cluster is byte-identical to the
/// equivalent standalone machine run.
pub fn node_seed(cluster_seed: u64, node: usize) -> u64 {
    cluster_seed ^ 0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(node as u64)
}

/// A failed cluster run.
#[derive(Debug)]
pub enum ClusterError {
    /// A node aborted (watchdog).
    Node {
        /// Which node.
        node: usize,
        /// Its machine-level error.
        err: RunError,
    },
    /// Every live node is wedged and no segment moved in an epoch: a
    /// cross-node deadlock (a bridge or teardown bug, not a result).
    Deadlock {
        /// The barrier (cycles) at which the cluster stalled.
        at: u64,
        /// Users still alive across all nodes.
        live_users: usize,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Node { node, err } => write!(f, "node {node}: {err}"),
            ClusterError::Deadlock { at, live_users } => write!(
                f,
                "cluster deadlock at {at} cycles: {live_users} users live, all nodes idle, no traffic moving"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

/// One direction of a bridged connection: segments written into
/// `egress` on node `from` are drained each epoch, delayed by the
/// shared link, and injected into `ingress` on node `to`.
#[derive(Debug)]
struct Bridge {
    from: usize,
    egress: PipeId,
    to: usize,
    ingress: PipeId,
    /// Index into [`Cluster::links`].
    link: usize,
    /// Arrival time of the latest segment, for in-order (TCP-like)
    /// delivery and for sequencing the FIN behind the data.
    last_arrival: u64,
    /// The egress close has been propagated; the bridge is drained.
    closed_sent: bool,
}

/// The federated cluster: machines, bridges, links, and the epoch loop.
pub struct Cluster {
    cfg: ClusterConfig,
    machines: Vec<Machine>,
    /// Indexed by the token each egress pipe is watched under.
    bridges: Vec<Bridge>,
    /// One directional link per `(from, to)` node pair, shared by every
    /// bridge between that pair (one wire serialises all of a pair's
    /// traffic). Creation order follows bridge registration order.
    links: Vec<((usize, usize), Link)>,
    /// Reusable exchange buffers: the bridges whose egress changed, and
    /// one bridge's drained segments.
    touched: Vec<u32>,
    msgs: Vec<Msg>,
    /// Egress drains the exchanges ran (never serialized).
    bridge_drains: u64,
}

impl Cluster {
    /// Builds `cfg.nodes` machines, each with a scheduler from
    /// `mk_sched` and per-node seeds derived via [`node_seed`].
    ///
    /// # Panics
    ///
    /// Panics if the config has no nodes or a zero-length epoch.
    pub fn new(
        cfg: ClusterConfig,
        mut mk_sched: impl FnMut(usize) -> Box<dyn Scheduler>,
    ) -> Cluster {
        assert!(cfg.nodes > 0, "cluster needs at least one node");
        assert!(cfg.epoch_cycles > 0, "epoch must be positive");
        let machines = (0..cfg.nodes)
            .map(|n| {
                let node_cfg = cfg
                    .node_cfg
                    .clone()
                    .with_seed(node_seed(cfg.node_cfg.seed, n))
                    .with_fault_seed(node_seed(cfg.node_cfg.fault_seed, n))
                    .with_node_id(n as u32);
                Machine::new(node_cfg, mk_sched(n))
            })
            .collect();
        Cluster {
            cfg,
            machines,
            bridges: Vec::new(),
            links: Vec::new(),
            touched: Vec::new(),
            msgs: Vec::new(),
            bridge_drains: 0,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.machines.len()
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Mutable access to node `n`'s machine, for topology building
    /// (creating pipes, spawning tasks) before [`Cluster::run`].
    pub fn machine(&mut self, node: usize) -> &mut Machine {
        &mut self.machines[node]
    }

    fn link_index(&mut self, from: usize, to: usize) -> usize {
        if let Some(i) = self
            .links
            .iter()
            .position(|&((f, t), _)| f == from && t == to)
        {
            return i;
        }
        self.links
            .push(((from, to), Link::new(LinkConfig::default())));
        self.links.len() - 1
    }

    /// Registers a directional bridge: traffic written to `egress` on
    /// node `from` arrives (delayed by the pair's link) in `ingress` on
    /// node `to`.
    ///
    /// # Panics
    ///
    /// Panics on a self-bridge — co-located endpoints should share a
    /// plain local pipe instead.
    pub fn bridge(&mut self, from: usize, egress: PipeId, to: usize, ingress: PipeId) {
        assert_ne!(from, to, "bridging a node to itself (use a local pipe)");
        let link = self.link_index(from, to);
        let token = u32::try_from(self.bridges.len()).expect("bridge count overflow");
        self.machines[from].watch_pipe(egress, token);
        self.bridges.push(Bridge {
            from,
            egress,
            to,
            ingress,
            link,
            last_arrival: 0,
            closed_sent: false,
        });
    }

    /// Draws and applies this epoch's cluster faults: link order first
    /// (partitions, then congestion, per link), node order second
    /// (pauses). Each injected fault is recorded as an obs `fault` event
    /// on the machine it hits, so per-node traces stay diffable.
    fn inject_faults(&mut self, inj: &mut ClusterInjector, barrier: u64) {
        let epoch = self.cfg.epoch_cycles;
        // Draw per link first (the borrow of `self.links` must end
        // before the machines are touched), then emit the obs events on
        // the source machines so per-node traces stay diffable.
        let mut hits: Vec<(usize, &'static str)> = Vec::new();
        for ((from, _), link) in &mut self.links {
            if let Some(epochs) = inj.partition() {
                link.partition_until(Cycles(barrier + epochs * epoch));
                hits.push((*from, "cluster_partition"));
            }
            if let Some(w) = inj.slow_link() {
                link.degrade_until(Cycles(barrier + w.epochs * epoch), w.factor);
                hits.push((*from, "cluster_slow_link"));
            }
        }
        for (node, fault) in hits {
            self.machines[node].note_fault(fault);
        }
        for node in 0..self.machines.len() {
            if let Some(delta) = inj.node_pause() {
                self.machines[node].pause_for(delta);
                self.machines[node].note_fault("cluster_node_pause");
            }
        }
    }

    /// Drains, at `barrier`, every bridge whose egress pipe was touched
    /// since the last exchange, in bridge order: transmits the segments
    /// through the links and injects the arrivals. Returns how many
    /// segments (and FINs) moved.
    ///
    /// A bridge left out has nothing to move — no segment was queued and
    /// no close happened, since both go through the pipe log — so the
    /// result is the same as draining every bridge, and bridge order
    /// keeps each shared [`Link`]'s transmit order.
    fn exchange(&mut self, barrier: u64) -> u64 {
        for m in &mut self.machines {
            m.drain_pipe_log(&mut self.touched);
        }
        self.touched.sort_unstable();
        let mut moved = 0;
        for &token in &self.touched {
            let b = &mut self.bridges[token as usize];
            if b.closed_sent {
                continue;
            }
            self.bridge_drains += 1;
            let closed =
                self.machines[b.from].drain_external(b.egress, Cycles(barrier), &mut self.msgs);
            let link = &mut self.links[b.link].1;
            for msg in self.msgs.drain(..) {
                // In-order delivery: a segment sent after a congestion
                // window may compute an earlier raw arrival than one sent
                // inside it; clamp to the stream's latest arrival.
                let arrival = link.transmit(Cycles(barrier), msg.len);
                let at = arrival.get().max(b.last_arrival);
                b.last_arrival = at;
                self.machines[b.to].inject_external_msg(b.ingress, msg, Cycles(at));
                moved += 1;
            }
            if closed {
                // FIN: a zero-length segment through the same link, held
                // behind the data it follows.
                let arrival = link.transmit(Cycles(barrier), 0);
                let at = arrival.get().max(b.last_arrival);
                b.last_arrival = at;
                self.machines[b.to].inject_external_close(b.ingress, Cycles(at));
                b.closed_sent = true;
                moved += 1;
            }
        }
        self.touched.clear();
        #[cfg(debug_assertions)]
        reference::assert_nothing_left(self);
        moved
    }

    /// Runs the federation to completion and merges the per-node
    /// reports.
    pub fn run(mut self) -> Result<ClusterReport, ClusterError> {
        let mut injector = self
            .cfg
            .faults
            .clone()
            .map(|plan| ClusterInjector::new(plan, self.cfg.fault_seed));
        for m in &mut self.machines {
            m.start();
        }
        let mut done = vec![false; self.machines.len()];
        let mut barrier = 0u64;
        loop {
            // Saturating: a barrier at the end of time is past any
            // watchdog, so the loop still ends.
            barrier = barrier.saturating_add(self.cfg.epoch_cycles);
            if let Some(inj) = injector.as_mut() {
                self.inject_faults(inj, barrier);
            }
            let mut all_done = true;
            let mut all_idle = true;
            for (n, m) in self.machines.iter_mut().enumerate() {
                if done[n] {
                    continue;
                }
                match m.step_until(Cycles(barrier)) {
                    Ok(StepStatus::Done) => done[n] = true,
                    Ok(StepStatus::Paused { idle }) => {
                        all_done = false;
                        all_idle &= idle;
                    }
                    Err(err) => return Err(ClusterError::Node { node: n, err }),
                }
            }
            let moved = self.exchange(barrier);
            if all_done {
                break;
            }
            if all_idle && moved == 0 {
                let live_users = self.machines.iter().map(|m| m.live_users()).sum();
                return Err(ClusterError::Deadlock {
                    at: barrier,
                    live_users,
                });
            }
            if barrier >= self.cfg.node_cfg.max_cycles {
                // A live node holds only events past its watchdog, so it
                // could never finish; and a node frozen past every barrier
                // (`node_pause`) dispatches nothing, so its own watchdog,
                // which runs at dispatch, would never fire.
                let node = done.iter().position(|&d| !d).expect("a node is live");
                return Err(ClusterError::Node {
                    node,
                    err: RunError::Watchdog {
                        at: Cycles(barrier),
                    },
                });
            }
        }
        let fault_counts = injector.map(|inj| *inj.counts()).unwrap_or_default();
        let links = self
            .links
            .iter()
            .map(|(pair, link)| LinkReport {
                from: pair.0,
                to: pair.1,
                stats: link.stats(),
            })
            .collect();
        let nodes: Vec<_> = self.machines.iter_mut().map(|m| m.finish()).collect();
        Ok(ClusterReport::new(
            self.cfg.dispatcher,
            self.cfg.epoch_cycles,
            nodes,
            links,
            fault_counts,
            self.bridge_drains,
        ))
    }
}

/// The full walk the exchange skips, kept as the debug-build reference:
/// after an exchange no bridge may hold a segment or an unsent close.
#[cfg(debug_assertions)]
mod reference {
    use super::Cluster;

    pub(super) fn assert_nothing_left(c: &Cluster) {
        for (i, b) in c.bridges.iter().enumerate() {
            let egress = c.machines[b.from].pipe(b.egress);
            assert!(egress.is_empty(), "bridge {i}: segments left in its egress");
            assert!(
                !egress.is_closed() || b.closed_sent,
                "bridge {i}: close not propagated"
            );
        }
    }
}
