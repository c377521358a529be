//! Builds the [`RunReport`] from a machine's final state (kept out of
//! `report.rs`, which defines the report types and their renderings).

use elsc_chaos::ChaosSummary;

use crate::machine::Machine;
use crate::report::{EngineSummary, RunReport, TopologySummary};

impl Machine {
    /// Renders the report of a finished (or failed) run.
    pub(crate) fn report(&self) -> RunReport {
        debug_assert_eq!(
            self.kernel_cycles,
            self.profiler.total(),
            "cycle attribution must be conservative"
        );
        let total = self.stats.total();
        let oracle = self.oracle.as_ref();
        let (policy, learned) = self
            .supervision
            .as_ref()
            .map_or((None, None), |s| s.summaries(&*self.sched));
        RunReport {
            // An ejected policy or learned run still reports under its
            // original name: the run *was* that scheduler plus its
            // ejection.
            scheduler: self
                .supervision
                .as_ref()
                .map_or_else(|| self.sched.name(), |s| s.name()),
            config: self.cfg.label(),
            seed: self.cfg.seed,
            elapsed: self.last_exit,
            cpu_hz: self.cfg.cpu_hz,
            stats: self.stats.clone(),
            ledger: self.ledger.clone(),
            lock_spin: self.locks.total_spin(),
            lock_acquisitions: self.locks.total_acquisitions(),
            lock_plan: self.plan.label(),
            lock_domains: self.locks.domain_stats(),
            tasks_spawned: self.tasks.total_spawned() - self.cfg.nr_cpus() as u64,
            messages_read: self.pipes.total_read(),
            dists: self.dists.clone(),
            trace_dropped: self.bus.dropped(),
            profile: self.profiler.report(total.work_cycles, total.idle_cycles),
            conservation_ok: self.kernel_cycles == self.profiler.total(),
            chaos: if self.injector.is_some() || oracle.is_some() {
                Some(ChaosSummary {
                    fault_plan: self
                        .injector
                        .as_ref()
                        .map(|inj| inj.plan().label().to_string()),
                    fault_seed: self.cfg.fault_seed,
                    counts: self
                        .injector
                        .as_ref()
                        .map(|inj| *inj.counts())
                        .unwrap_or_default(),
                    oracle: oracle.map(|o| o.report().clone()),
                })
            } else {
                None
            },
            policy,
            learned,
            engine: if self.cfg.engine_metrics {
                let events = self.events.total_popped();
                let secs = self.last_exit.as_secs(self.cfg.cpu_hz);
                Some(EngineSummary {
                    events_dispatched: events,
                    sim_events_per_sec: if secs == 0.0 {
                        0.0
                    } else {
                        events as f64 / secs
                    },
                })
            } else {
                None
            },
            topology: {
                let topo = &self.cfg.sched.topology;
                if topo.is_flat() {
                    None
                } else {
                    Some(TopologySummary {
                        shape: topo.to_string(),
                        nr_nodes: topo.nr_nodes() as u64,
                        threads_per_core: topo.threads_per_core() as u64,
                        migrations_same_core: self.topo_migrations[0],
                        migrations_same_node: self.topo_migrations[1],
                        migrations_cross_node: self.topo_migrations[2],
                    })
                }
            },
        }
    }
}
