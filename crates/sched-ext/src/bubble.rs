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

use elsc_ktask::{CpuId, Lists, MmId, TaskTable, Tid};
use elsc_sched_api::{frame, LockPlan, SchedCtx, Scheduler, IDLE_GOODNESS};
use elsc_simcore::{CostKind, Topology};

use crate::MAX_QUEUES;

/// Per-NUMA-node run queues placing mm-keyed task groups.
#[derive(Debug)]
pub struct BubbleScheduler {
    /// The declared machine shape; drives queue count and lock sizing.
    topo: Topology,
    /// One list per NUMA node.
    lists: Lists,
    /// Tasks per node queue.
    counts: Vec<usize>,
    /// Each bubble's home node. Sticky: survives the group going idle,
    /// so a JVM that sleeps between bursts keeps its warm node.
    homes: BTreeMap<MmId, usize>,
    nr_running: usize,
}

impl BubbleScheduler {
    /// Creates one queue per node of `topo`.
    ///
    /// # Panics
    ///
    /// Panics if the tree has more than [`MAX_QUEUES`] nodes (a task
    /// remembers its node in the one-byte `rq_hint`).
    pub fn new(topo: Topology) -> Self {
        let nodes = topo.nr_nodes();
        assert!(nodes <= MAX_QUEUES, "bubble: at most {MAX_QUEUES} queues");
        BubbleScheduler {
            topo,
            lists: Lists::new(nodes),
            counts: vec![0; nodes],
            homes: BTreeMap::new(),
            nr_running: 0,
        }
    }

    /// The node a task enqueues on: its bubble's home, assigned to the
    /// least-loaded node (lowest index on ties, for determinism) the
    /// first time the group is seen.
    fn place(&mut self, mm: MmId) -> usize {
        if let Some(&node) = self.homes.get(&mm) {
            return node;
        }
        let node = (0..self.counts.len())
            .min_by_key(|&n| self.counts[n])
            .expect("at least one node");
        self.homes.insert(mm, node);
        node
    }

    /// Moves every queued member of `mm` from node `from` to node `to`
    /// and re-homes the bubble. Returns how many tasks moved.
    fn rehome(&mut self, ctx: &mut SchedCtx<'_>, mm: MmId, from: usize, to: usize) -> usize {
        let mut members = Vec::new();
        let mut cur = self.lists.first(from);
        while let Some(idx) = cur {
            let p = ctx.tasks.by_index(idx as usize);
            if p.mm == mm {
                members.push(p.tid);
            }
            cur = self.lists.next_task(ctx.tasks, idx);
        }
        for &tid in &members {
            ctx.meter.charge_n(ctx.costs, CostKind::ListOp, 2);
            self.lists.remove(ctx.tasks, tid);
            self.counts[from] -= 1;
            ctx.tasks.task_mut(tid).rq_hint = to as u8;
            self.lists.insert_front(ctx.tasks, to, tid);
            self.counts[to] += 1;
        }
        self.homes.insert(mm, to);
        members.len()
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
        ctx.tasks.task_mut(tid).rq_hint = q as u8;
        self.lists.insert_front(ctx.tasks, q, tid);
        self.counts[q] += 1;
        self.nr_running += 1;
    }

    fn del_from_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge(ctx.costs, CostKind::ListOp);
        let q = ctx.tasks.task(tid).rq_hint as usize;
        self.lists.remove(ctx.tasks, tid);
        self.counts[q] -= 1;
        self.nr_running -= 1;
    }

    fn move_first_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge_n(ctx.costs, CostKind::ListOp, 2);
        let q = ctx.tasks.task(tid).rq_hint as usize;
        self.lists.remove(ctx.tasks, tid);
        self.lists.insert_front(ctx.tasks, q, tid);
    }

    fn move_last_runqueue(&mut self, ctx: &mut SchedCtx<'_>, tid: Tid) {
        ctx.meter.charge_n(ctx.costs, CostKind::ListOp, 2);
        let q = ctx.tasks.task(tid).rq_hint as usize;
        self.lists.remove(ctx.tasks, tid);
        self.lists.insert_back(ctx.tasks, q, tid);
    }

    fn schedule(&mut self, ctx: &mut SchedCtx<'_>, cpu: CpuId, prev: Tid, idle: Tid) -> Tid {
        let entered = frame::enter(self, ctx, cpu, prev, idle);
        let my_node = self.topo.node_of(cpu).min(self.counts.len() - 1);
        let nr_running = self.nr_running;
        let next = frame::select(ctx, cpu, prev, idle, entered, nr_running, |ctx, c| {
            // Own node's queue first.
            let best = frame::scan_list(&self.lists, my_node, ctx, cpu, prev, entered.prev_mm);
            if best.1.is_some() || c != IDLE_GOODNESS {
                return best;
            }
            // Steal from the fullest other node when neither `prev` nor
            // our own queue offers a candidate — and re-home the stolen
            // task's whole bubble, so its siblings follow it here instead
            // of paying an mm switch across the interconnect on every
            // future wakeup.
            let victim = (0..self.counts.len())
                .filter(|&n| n != my_node && self.counts[n] > 0)
                .max_by_key(|&n| self.counts[n]);
            let Some(victim) = victim else {
                return best;
            };
            // Take the victim node's lock domain before touching its
            // list (any CPU on the node names the domain).
            ctx.lock_queue_domain(victim * self.topo.cpus_per_node());
            let stolen = frame::scan_list(&self.lists, victim, ctx, cpu, prev, entered.prev_mm);
            if let Some(tid) = stolen.1 {
                let mm = ctx.tasks.task(tid).mm;
                self.rehome(ctx, mm, victim, my_node);
            }
            stolen
        });
        frame::commit(ctx, cpu, prev, next, idle)
    }

    fn nr_running(&self) -> usize {
        self.nr_running
    }

    /// Node queues want node locks: one domain per `cpus_per_node`
    /// chunk of the declared tree.
    fn lock_plan(&self, _nr_cpus: usize) -> LockPlan {
        LockPlan::PerNode(self.topo.cpus_per_node())
    }

    fn debug_check(&self, tasks: &TaskTable) {
        let mut total = 0;
        for q in 0..self.counts.len() {
            self.lists.check(tasks, q);
            assert_eq!(self.lists.len(tasks, q), self.counts[q], "count on {q}");
            total += self.counts[q];
        }
        assert_eq!(total, self.nr_running, "nr_running out of sync");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsc_ktask::TaskSpec;
    use elsc_sched_api::SchedConfig;
    use elsc_simcore::{CostModel, CycleMeter};
    use elsc_stats::SchedStats;

    struct Rig {
        tasks: TaskTable,
        stats: SchedStats,
        meter: CycleMeter,
        costs: CostModel,
        cfg: SchedConfig,
        sched: BubbleScheduler,
        idles: Vec<Tid>,
    }

    impl Rig {
        fn new(topo: &str) -> Rig {
            let topo: Topology = topo.parse().unwrap();
            let nr_cpus = topo.nr_cpus();
            let cfg = SchedConfig::topo(topo);
            let mut tasks = TaskTable::new();
            let idles = (0..nr_cpus)
                .map(|c| {
                    let t = tasks.spawn(&TaskSpec::named("idle").priority(1));
                    tasks.task_mut(t).counter = 0;
                    tasks.task_mut(t).processor = c;
                    tasks.task_mut(t).has_cpu = true;
                    t
                })
                .collect();
            Rig {
                tasks,
                stats: SchedStats::new(nr_cpus),
                meter: CycleMeter::new(),
                costs: CostModel::default(),
                cfg,
                sched: BubbleScheduler::new(topo),
                idles,
            }
        }

        fn spawn_mm(&mut self, name: &'static str, mm: MmId, cpu: CpuId) -> Tid {
            let tid = self.tasks.spawn(&TaskSpec::named(name).mm(mm));
            self.tasks.task_mut(tid).processor = cpu;
            let mut ctx = SchedCtx {
                tasks: &mut self.tasks,
                stats: &mut self.stats,
                meter: &mut self.meter,
                costs: &self.costs,
                cfg: &self.cfg,
                probe: None,
                locks: None,
            };
            self.sched.add_to_runqueue(&mut ctx, tid);
            tid
        }

        fn schedule(&mut self, cpu: CpuId) -> Tid {
            let idle = self.idles[cpu];
            let mut ctx = SchedCtx {
                tasks: &mut self.tasks,
                stats: &mut self.stats,
                meter: &mut self.meter,
                costs: &self.costs,
                cfg: &self.cfg,
                probe: None,
                locks: None,
            };
            let next = self.sched.schedule(&mut ctx, cpu, idle, idle);
            self.sched.debug_check(&self.tasks);
            next
        }
    }

    #[test]
    fn a_bubble_shares_one_home_node() {
        let mut rig = Rig::new("2N2C1T");
        // Two tasks of mm 7, last run on CPUs in *different* nodes: both
        // must enqueue on the bubble's home, not their last processor.
        let a = rig.spawn_mm("a", MmId(7), 0);
        let b = rig.spawn_mm("b", MmId(7), 3);
        assert_eq!(
            rig.tasks.task(a).rq_hint,
            rig.tasks.task(b).rq_hint,
            "group members share a node queue"
        );
    }

    #[test]
    fn groups_spread_across_nodes() {
        let mut rig = Rig::new("2N2C1T");
        let a = rig.spawn_mm("a", MmId(1), 0);
        let b = rig.spawn_mm("b", MmId(2), 0);
        assert_ne!(
            rig.tasks.task(a).rq_hint,
            rig.tasks.task(b).rq_hint,
            "second bubble lands on the emptier node"
        );
    }

    #[test]
    fn node_mates_scan_the_shared_queue() {
        let mut rig = Rig::new("2N2C1T");
        let a = rig.spawn_mm("a", MmId(1), 0);
        let b = rig.spawn_mm("b", MmId(1), 0);
        // Both CPUs of node 0 drain the one node queue.
        let first = rig.schedule(0);
        let second = rig.schedule(1);
        assert!(first == a || first == b);
        assert!(second == a || second == b);
        assert_ne!(first, second);
    }

    #[test]
    fn stealing_rehomes_the_whole_bubble() {
        let mut rig = Rig::new("2N2C1T");
        // Bubble of three on node 0 (first group placed → node 0).
        let a = rig.spawn_mm("a", MmId(5), 0);
        let _b = rig.spawn_mm("b", MmId(5), 0);
        let _c = rig.spawn_mm("c", MmId(5), 0);
        let home = rig.tasks.task(a).rq_hint;
        // A CPU on the other node runs dry and steals.
        let thief_cpu = if home == 0 { 2 } else { 0 };
        let stolen = rig.schedule(thief_cpu);
        assert_ne!(stolen, rig.idles[thief_cpu]);
        // The *entire* group moved with it, and the home followed.
        let new_home = rig.tasks.task(stolen).rq_hint;
        assert_ne!(new_home, home);
        for t in [a, _b, _c] {
            assert_eq!(rig.tasks.task(t).rq_hint, new_home, "sibling followed");
        }
        // A later wakeup of the group lands on the new home too.
        let d = rig.spawn_mm("d", MmId(5), 0);
        assert_eq!(rig.tasks.task(d).rq_hint, new_home);
    }

    #[test]
    fn flat_trees_degenerate_to_one_global_queue() {
        let mut rig = Rig::new("1N4C1T");
        let a = rig.spawn_mm("a", MmId(1), 0);
        let b = rig.spawn_mm("b", MmId(2), 3);
        assert_eq!(rig.tasks.task(a).rq_hint, 0);
        assert_eq!(rig.tasks.task(b).rq_hint, 0);
        assert_ne!(rig.schedule(2), rig.idles[2]);
    }

    #[test]
    fn lock_plan_is_per_node() {
        let topo: Topology = "2N4C2T".parse().unwrap();
        let s = BubbleScheduler::new(topo);
        assert_eq!(s.lock_plan(16), LockPlan::PerNode(8));
    }

    #[test]
    fn idle_when_everything_empty() {
        let mut rig = Rig::new("2N2C1T");
        assert_eq!(rig.schedule(0), rig.idles[0]);
        assert_eq!(rig.stats.cpu(0).idle_scheduled, 1);
    }
}
