//! `bubble` as it was before it moved onto `RunQueues`: its own list
//! bank, per-node counts and `nr_running`, and the four run-queue hooks
//! and the per-member rehome written out by hand. Kept verbatim (the
//! 256-queue cap and the one-byte `rq_hint` casts aside) as the reference
//! the shared list bank is held to.

use std::collections::BTreeMap;

use elsc_ktask::{CpuId, Lists, MmId, TaskTable, Tid};
use elsc_sched_api::{frame, LockPlan, SchedCtx, Scheduler, IDLE_GOODNESS};
use elsc_simcore::{CostKind, Topology};

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
    pub fn new(topo: Topology) -> Self {
        let nodes = topo.nr_nodes();
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
            ctx.tasks.task_mut(tid).rq_hint = to as u16;
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
        ctx.tasks.task_mut(tid).rq_hint = q as u16;
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
