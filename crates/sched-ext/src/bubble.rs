//! Bubble scheduling: hierarchical placement of task *groups* down the
//! topology tree.
//!
//! The flat designs treat every CPU as equidistant; on a NUMA machine
//! that throws away the property the paper's chat-server workload has in
//! abundance — tasks that share an address space (a JVM's threads) also
//! share their cache working set. This scheduler places whole groups
//! ("bubbles", keyed by `mm`) onto NUMA nodes instead of placing tasks
//! onto CPUs:
//!
//! * One run queue per **node**, not per CPU. Every CPU on a node scans
//!   the same short list, so intra-node balance is automatic and the
//!   shared-LLC bonus applies to every candidate.
//! * A bubble is **homed** on the least-loaded node the first time one
//!   of its tasks becomes runnable; all later wakeups of the group land
//!   on the home node regardless of which CPU ran them last.
//! * When a node runs dry it steals — and re-homes the *entire bubble*
//!   of the stolen task, not just the one victim. Splitting an address
//!   space across nodes pays the interconnect on every mm switch; moving
//!   the group once pays it on the move only.
//!
//! Locking follows the structure: [`LockPlan::PerNode`] gives each node
//! queue its own domain, sized by the declared topology's
//! `cpus_per_node`. On a flat tree the whole scheduler degenerates to a
//! single global queue under a single domain — the baseline regime.

use std::collections::BTreeMap;

use elsc_ktask::{CpuId, MmId, TaskTable, Tid};
use elsc_sched_api::{frame, LockPlan, RunQueues, SchedCtx, Scheduler, IDLE_GOODNESS};
use elsc_simcore::{CostKind, Topology};

/// Per-NUMA-node run queues placing mm-keyed task groups.
#[derive(Debug)]
pub struct BubbleScheduler {
    /// The declared machine shape; drives queue count and lock sizing.
    topo: Topology,
    /// One list per NUMA node.
    rq: RunQueues,
    /// Each bubble's home node. Sticky: survives the group going idle,
    /// so a JVM that sleeps between bursts keeps its warm node.
    homes: BTreeMap<MmId, usize>,
}

impl BubbleScheduler {
    /// Creates one queue per node of `topo`.
    pub fn new(topo: Topology) -> Self {
        BubbleScheduler {
            topo,
            rq: RunQueues::new(topo.nr_nodes()),
            homes: BTreeMap::new(),
        }
    }

    /// The node a task enqueues on: its bubble's home, assigned to the
    /// least-loaded node (lowest index on ties, for determinism) the
    /// first time the group is seen.
    fn place(&mut self, mm: MmId) -> usize {
        if let Some(&node) = self.homes.get(&mm) {
            return node;
        }
        let node = (0..self.rq.lists().nr_lists())
            .min_by_key(|&n| self.rq.count(n))
            .expect("at least one node");
        self.homes.insert(mm, node);
        node
    }

    /// Moves every queued member of `mm` from node `from` to node `to`
    /// and re-homes the bubble.
    fn rehome(&mut self, ctx: &mut SchedCtx<'_>, mm: MmId, from: usize, to: usize) {
        let mut members = Vec::new();
        let mut cur = self.rq.lists().first(from);
        while let Some(idx) = cur {
            let p = ctx.tasks.by_index(idx as usize);
            if p.mm == mm {
                members.push(p.tid);
            }
            cur = self.rq.lists().next_task(ctx.tasks, idx);
        }
        for tid in members {
            self.rq.move_to(ctx, tid, to);
        }
        self.homes.insert(mm, to);
    }
}

impl Scheduler for BubbleScheduler {
    fn name(&self) -> &'static str {
        "bubble"
    }

    fn add_to_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge(ctx.costs, CostKind::ListOp);
        let mm = ctx.tasks.task(tid).mm;
        let q = self.place(mm);
        self.rq.insert(ctx, q, true, tid);
    }

    fn del_from_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        self.rq.remove(ctx, tid);
    }

    fn move_first_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        self.rq.requeue(ctx, tid, true);
    }

    fn move_last_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        self.rq.requeue(ctx, tid, false);
    }

    fn schedule(&mut self, ctx: &mut SchedCtx<'_>, cpu: CpuId, prev: Tid, idle: Tid) -> Tid {
        let entered = frame::enter(self, ctx, cpu, prev, idle);
        let my_node = self.topo.node_of(cpu).min(self.rq.lists().nr_lists() - 1);
        let nr_running = self.rq.nr_running();
        let next = frame::select(ctx, cpu, prev, idle, entered, nr_running, |ctx, c| {
            // Own node's queue first.
            let best = frame::scan_list(self.rq.lists(), my_node, ctx, cpu, prev, entered.prev_mm);
            if best.1.is_some() || c != IDLE_GOODNESS {
                return best;
            }
            // Steal from the fullest other node when neither `prev` nor
            // our own queue offers a candidate — and re-home the stolen
            // task's whole bubble, so its siblings follow it here instead
            // of paying an mm switch across the interconnect on every
            // future wakeup.
            let Some(victim) = self.rq.fullest_other(my_node, |_| true) else {
                return best;
            };
            // Take the victim node's lock domain before touching its
            // list (any CPU on the node names the domain).
            ctx.lock_queue_domain(victim * self.topo.cpus_per_node());
            let stolen = frame::scan_list(self.rq.lists(), victim, ctx, cpu, prev, entered.prev_mm);
            if let Some(tid) = stolen.1 {
                let mm = ctx.tasks.task(tid).mm;
                self.rehome(ctx, mm, victim, my_node);
            }
            stolen
        });
        frame::commit(ctx, cpu, prev, next, idle)
    }

    fn nr_running(&self) -> usize {
        self.rq.nr_running()
    }

    /// Node queues want node locks: one domain per `cpus_per_node`
    /// chunk of the declared tree.
    fn lock_plan(&self, _nr_cpus: usize) -> LockPlan {
        LockPlan::PerNode(self.topo.cpus_per_node())
    }

    fn debug_check(&self, tasks: &TaskTable) {
        self.rq.debug_check(tasks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsc_ktask::TaskSpec;
    use elsc_sched_api::{Rig, SchedConfig};

    fn rig(topo: &str) -> Rig<BubbleScheduler> {
        let topo: Topology = topo.parse().unwrap();
        Rig::new(SchedConfig::topo(topo), BubbleScheduler::new(topo)).idle_per_cpu()
    }

    fn spawn_mm(rig: &mut Rig<BubbleScheduler>, name: &'static str, mm: MmId, cpu: CpuId) -> Tid {
        let tid = rig.tasks.spawn(&TaskSpec::named(name).mm(mm));
        rig.tasks.task_mut(tid).processor = cpu;
        rig.add(tid);
        tid
    }

    #[test]
    fn a_bubble_shares_one_home_node() {
        let mut rig = rig("2N2C1T");
        // Two tasks of mm 7, last run on CPUs in *different* nodes: both
        // must enqueue on the bubble's home, not their last processor.
        let a = spawn_mm(&mut rig, "a", MmId(7), 0);
        let b = spawn_mm(&mut rig, "b", MmId(7), 3);
        assert_eq!(
            rig.tasks.task(a).rq_hint,
            rig.tasks.task(b).rq_hint,
            "group members share a node queue"
        );
    }

    #[test]
    fn groups_spread_across_nodes() {
        let mut rig = rig("2N2C1T");
        let a = spawn_mm(&mut rig, "a", MmId(1), 0);
        let b = spawn_mm(&mut rig, "b", MmId(2), 0);
        assert_ne!(
            rig.tasks.task(a).rq_hint,
            rig.tasks.task(b).rq_hint,
            "second bubble lands on the emptier node"
        );
    }

    #[test]
    fn node_mates_scan_the_shared_queue() {
        let mut rig = rig("2N2C1T");
        let a = spawn_mm(&mut rig, "a", MmId(1), 0);
        let b = spawn_mm(&mut rig, "b", MmId(1), 0);
        // Both CPUs of node 0 drain the one node queue.
        let first = rig.schedule(0, rig.idle(0));
        let second = rig.schedule(1, rig.idle(1));
        assert!(first == a || first == b);
        assert!(second == a || second == b);
        assert_ne!(first, second);
    }

    #[test]
    fn stealing_rehomes_the_whole_bubble() {
        let mut rig = rig("2N2C1T");
        // Bubble of three on node 0 (first group placed → node 0).
        let a = spawn_mm(&mut rig, "a", MmId(5), 0);
        let _b = spawn_mm(&mut rig, "b", MmId(5), 0);
        let _c = spawn_mm(&mut rig, "c", MmId(5), 0);
        let home = rig.tasks.task(a).rq_hint;
        // A CPU on the other node runs dry and steals.
        let thief_cpu = if home == 0 { 2 } else { 0 };
        let stolen = rig.schedule(thief_cpu, rig.idle(thief_cpu));
        assert_ne!(stolen, rig.idle(thief_cpu));
        // The *entire* group moved with it, and the home followed.
        let new_home = rig.tasks.task(stolen).rq_hint;
        assert_ne!(new_home, home);
        for t in [a, _b, _c] {
            assert_eq!(rig.tasks.task(t).rq_hint, new_home, "sibling followed");
        }
        // A later wakeup of the group lands on the new home too.
        let d = spawn_mm(&mut rig, "d", MmId(5), 0);
        assert_eq!(rig.tasks.task(d).rq_hint, new_home);
    }

    #[test]
    fn flat_trees_degenerate_to_one_global_queue() {
        let mut rig = rig("1N4C1T");
        let a = spawn_mm(&mut rig, "a", MmId(1), 0);
        let b = spawn_mm(&mut rig, "b", MmId(2), 3);
        assert_eq!(rig.tasks.task(a).rq_hint, 0);
        assert_eq!(rig.tasks.task(b).rq_hint, 0);
        assert_ne!(rig.schedule(2, rig.idle(2)), rig.idle(2));
    }

    #[test]
    fn lock_plan_is_per_node() {
        let topo: Topology = "2N4C2T".parse().unwrap();
        let s = BubbleScheduler::new(topo);
        assert_eq!(s.lock_plan(16), LockPlan::PerNode(8));
    }

    #[test]
    fn idle_when_everything_empty() {
        let mut rig = rig("2N2C1T");
        assert_eq!(rig.schedule(0, rig.idle(0)), rig.idle(0));
        assert_eq!(rig.stats.cpu(0).idle_scheduled, 1);
    }
}
