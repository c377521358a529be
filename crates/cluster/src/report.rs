//! The merged cluster report.
//!
//! A cluster run produces one [`RunReport`] per node — each already a
//! deterministic JSON artifact — plus fabric-level facts only the
//! federation knows: link traffic, cluster fault counts, and the
//! placement policy. [`ClusterReport`] merges them into a single
//! document whose bytes are a pure function of the run inputs, so the
//! lab's caching, hashing, and regression gating work on cluster cells
//! exactly as they do on single-machine cells.

use elsc_chaos::ClusterFaultCounts;
use elsc_machine::RunReport;
use elsc_netsim::LinkStats;
use elsc_obs::json::{array, num, Obj};
use elsc_simcore::Cycles;

use crate::dispatch::DispatcherId;

/// Traffic summary of one directional inter-node link.
#[derive(Clone, Copy, Debug)]
pub struct LinkReport {
    /// Source node.
    pub from: usize,
    /// Destination node.
    pub to: usize,
    /// Lifetime traffic counters.
    pub stats: LinkStats,
}

/// The merged result of a federated run.
#[derive(Debug)]
pub struct ClusterReport {
    /// Placement policy the dispatcher tier ran.
    pub dispatcher: DispatcherId,
    /// Exchange-epoch length used, in cycles.
    pub epoch_cycles: u64,
    /// Per-node reports, indexed by node id.
    pub nodes: Vec<RunReport>,
    /// Per-link traffic, in link-creation (bridge registration) order.
    pub links: Vec<LinkReport>,
    /// Cluster-level faults injected.
    pub fault_counts: ClusterFaultCounts,
    /// Egress pipes the exchanges drained, summed over every barrier
    /// (host work, never serialized).
    pub bridge_drains: u64,
}

impl ClusterReport {
    pub(crate) fn new(
        dispatcher: DispatcherId,
        epoch_cycles: u64,
        nodes: Vec<RunReport>,
        links: Vec<LinkReport>,
        fault_counts: ClusterFaultCounts,
        bridge_drains: u64,
    ) -> ClusterReport {
        ClusterReport {
            dispatcher,
            epoch_cycles,
            nodes,
            links,
            fault_counts,
            bridge_drains,
        }
    }

    /// Cluster makespan: the slowest node's elapsed virtual time.
    pub fn elapsed(&self) -> Cycles {
        self.nodes
            .iter()
            .map(|n| n.elapsed)
            .max()
            .unwrap_or(Cycles::ZERO)
    }

    /// Makespan in simulated seconds.
    pub fn elapsed_secs(&self) -> f64 {
        let hz = self.nodes.first().map_or(1, |n| n.cpu_hz);
        self.elapsed().get() as f64 / hz as f64
    }

    /// Sums a ledger counter across all nodes.
    pub fn ledger_total(&self, key: &str) -> u64 {
        self.nodes.iter().map(|n| n.ledger.get(key)).sum()
    }

    /// Cluster-wide rate of a ledger counter against the makespan.
    pub fn per_sec(&self, key: &str) -> f64 {
        let secs = self.elapsed_secs();
        if secs <= 0.0 {
            return 0.0;
        }
        self.ledger_total(key) as f64 / secs
    }

    /// Tasks spawned per node — the load-spread profile the dispatcher
    /// produced (VolanoMark: 2 threads per placed connection endpoint).
    pub fn node_tasks(&self) -> Vec<u64> {
        self.nodes.iter().map(|n| n.tasks_spawned).collect()
    }

    /// Whether every node's cycle ledger balanced.
    pub fn conservation_ok(&self) -> bool {
        self.nodes.iter().all(|n| n.conservation_ok)
    }

    /// Total messages carried by the inter-node fabric (zero under the
    /// locality dispatcher — its defining property).
    pub fn fabric_msgs(&self) -> u64 {
        self.links.iter().map(|l| l.stats.msgs).sum()
    }

    /// Renders the merged report. Key order is fixed and every value is
    /// deterministic, so the whole document is byte-identical across
    /// same-input runs — the property the lab cache and CI gate key on.
    pub fn to_json(&self) -> String {
        let links = array(self.links.iter().map(|l| {
            Obj::new()
                .u64("from", l.from as u64)
                .u64("to", l.to as u64)
                .u64("msgs", l.stats.msgs)
                .u64("bytes", l.stats.bytes)
                .u64("held", l.stats.held)
                .build()
        }));
        let tasks = array(self.node_tasks().into_iter().map(|t| t.to_string()));
        Obj::new()
            .str("kind", "cluster")
            .str("dispatcher", self.dispatcher.label())
            .u64("nodes", self.nodes.len() as u64)
            .u64("epoch_cycles", self.epoch_cycles)
            .u64("elapsed", self.elapsed().get())
            .raw("elapsed_secs", num(self.elapsed_secs()))
            .raw("node_tasks", tasks)
            .raw("links", links)
            .raw("cluster_faults", self.fault_counts.to_json())
            .raw(
                "node_reports",
                array(self.nodes.iter().map(|n| n.to_json())),
            )
            .build()
    }
}
