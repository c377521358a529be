//! Machine configuration.

use elsc_chaos::FaultPlan;
use elsc_sched_api::{LockPlan, SchedConfig};
use elsc_simcore::CostModel;

/// Full configuration of a simulated machine.
///
/// Defaults model the paper's testbeds: ~400 MHz Pentium II class CPUs
/// (IBM Netfinity 5500/7000) with the Linux 2.3 10 ms timer tick.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Scheduler-visible configuration (CPU count, SMP build, limits).
    pub sched: SchedConfig,
    /// Simulated clock frequency, cycles per second.
    pub cpu_hz: u64,
    /// Cycles per timer tick (10 ms at `cpu_hz` by default).
    pub tick_cycles: u64,
    /// Per-primitive cycle costs.
    pub costs: CostModel,
    /// Watchdog: abort the run if virtual time passes this (a workload
    /// bug such as a deadlock would otherwise spin forever).
    pub max_cycles: u64,
    /// Seed for all deterministic randomness in the run.
    pub seed: u64,
    /// How many times a blocking read/write poll-yields
    /// (`sched_yield()` + retry) before actually sleeping — the
    /// spin-then-block strategy of the era's JVM I/O and locking layers.
    /// This is what produces the paper's yield storms: during lulls the
    /// polling task is often *alone* on the run queue, and each of its
    /// yields sends the baseline scheduler into the system-wide counter
    /// recalculation loop (Figure 2).
    pub io_poll_yields: u32,
    /// Maximum scheduling-trace records to keep (0 disables tracing).
    pub trace_capacity: usize,
    /// Lock-plan override for ablations: `None` (the default) lets the
    /// scheduler declare its own regime via
    /// [`Scheduler::lock_plan`](elsc_sched_api::Scheduler::lock_plan);
    /// `Some(plan)` forces one (e.g. run the multi-queue scheduler under
    /// the global lock to isolate the locking regime's contribution).
    pub lock_plan: Option<LockPlan>,
    /// Deterministic fault injection: `None` (the default) runs a clean
    /// machine; `Some(plan)` perturbs it at the plan's rates, driven by
    /// [`MachineConfig::fault_seed`].
    pub faults: Option<FaultPlan>,
    /// Seed for the fault-injection decision streams — deliberately
    /// separate from [`MachineConfig::seed`] so the same workload can be
    /// replayed under different fault schedules (and vice versa).
    pub fault_seed: u64,
    /// Run the differential scheduler oracle beside every `schedule()`
    /// call. Pure observation: enabling it never changes the schedule.
    pub oracle: bool,
    /// Policy-runtime watchdog: eject an interpreted policy that picks
    /// idle this many *consecutive* decisions while a runnable,
    /// unclaimed task sits on the run queue. Ignored for native
    /// schedulers.
    pub policy_starve_k: u32,
    /// This machine's node id in a federated cluster (0 for the first
    /// node and for every standalone run). Purely an identity: it labels
    /// per-node sections of the merged cluster report and error
    /// messages, and never influences the schedule.
    pub node_id: u32,
    /// Attach the engine-throughput summary (`events_dispatched`,
    /// `sim_events_per_sec`) to the run report. Off by default so
    /// pre-existing cells serialize exactly as before; the `mega` lab
    /// builtin turns it on. Every reported value derives from virtual
    /// time, so same-seed runs stay byte-identical.
    pub engine_metrics: bool,
    /// Emit per-decision `sched_candidate`/`sched_decision` trace events
    /// — the supervised dataset `elsc-learn` trains on. Off by default:
    /// tracing decisions roughly doubles trace volume and existing traces
    /// must stay byte-identical. Pure observation; never changes the
    /// schedule or the meter.
    pub decision_trace: bool,
    /// Learned-scheduler watchdog: eject a `learned:<model>` scheduler
    /// after this many *consecutive* mispredictions (the accuracy-
    /// collapse analogue of [`MachineConfig::policy_starve_k`]). Ignored
    /// for native and policy schedulers.
    pub learn_eject_k: u32,
    /// Wall-clock-only busy-work multiplier on the event dispatch loop,
    /// used by the CI engine job to prove the `wall_ratio` gate trips.
    /// `1` (the default) adds no work. Never touches virtual time, so
    /// reports stay byte-identical at any setting.
    pub engine_slowdown: u64,
}

impl MachineConfig {
    /// Default frequency: 400 MHz.
    pub const DEFAULT_HZ: u64 = 400_000_000;

    fn with_sched(sched: SchedConfig) -> Self {
        MachineConfig {
            sched,
            cpu_hz: Self::DEFAULT_HZ,
            tick_cycles: Self::DEFAULT_HZ / 100,
            costs: CostModel::default(),
            max_cycles: 4_000_000_000_000, // 10 000 simulated seconds
            seed: 0x5EED_CAFE,
            io_poll_yields: 2,
            trace_capacity: 0,
            lock_plan: None,
            faults: None,
            fault_seed: 0xFA17_5EED,
            oracle: false,
            policy_starve_k: 8,
            node_id: 0,
            engine_metrics: false,
            decision_trace: false,
            learn_eject_k: 8,
            engine_slowdown: 1,
        }
    }

    /// A uniprocessor machine running a non-SMP kernel build ("UP").
    pub fn up() -> Self {
        Self::with_sched(SchedConfig::up())
    }

    /// An SMP kernel build on `nr_cpus` processors ("1P", "2P", "4P").
    pub fn smp(nr_cpus: usize) -> Self {
        Self::with_sched(SchedConfig::smp(nr_cpus))
    }

    /// An SMP kernel build over a declared topology tree ("2N4C2T"); the
    /// CPU count follows the tree. A flat tree is byte-identical to
    /// [`MachineConfig::smp`] with the same CPU count.
    pub fn topo(topology: elsc_simcore::Topology) -> Self {
        Self::with_sched(SchedConfig::topo(topology))
    }

    /// Builder-style engine-throughput metrics toggle.
    pub fn with_engine_metrics(mut self, on: bool) -> Self {
        self.engine_metrics = on;
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style cost-model override.
    pub fn with_costs(mut self, costs: CostModel) -> Self {
        self.costs = costs;
        self
    }

    /// Builder-style watchdog override (in simulated seconds).
    pub fn with_max_secs(mut self, secs: f64) -> Self {
        self.max_cycles = (secs * self.cpu_hz as f64) as u64;
        self
    }

    /// Builder-style override of the spin-then-block poll count.
    pub fn with_poll_yields(mut self, polls: u32) -> Self {
        self.io_poll_yields = polls;
        self
    }

    /// Builder-style trace enablement.
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Builder-style lock-plan override (`None` restores the scheduler's
    /// own declared plan).
    pub fn with_lock_plan(mut self, plan: Option<LockPlan>) -> Self {
        self.lock_plan = plan;
        self
    }

    /// Builder-style fault-plan enablement (`None` disables injection).
    pub fn with_faults(mut self, plan: Option<FaultPlan>) -> Self {
        self.faults = plan;
        self
    }

    /// Builder-style fault-seed override.
    pub fn with_fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = seed;
        self
    }

    /// Builder-style oracle enablement.
    pub fn with_oracle(mut self, on: bool) -> Self {
        self.oracle = on;
        self
    }

    /// Builder-style override of the policy starvation-watchdog
    /// threshold (consecutive idle picks with runnable work queued).
    pub fn with_policy_starve_k(mut self, k: u32) -> Self {
        self.policy_starve_k = k.max(1);
        self
    }

    /// Builder-style cluster node identity.
    pub fn with_node_id(mut self, node: u32) -> Self {
        self.node_id = node;
        self
    }

    /// Builder-style decision-trace enablement (requires
    /// [`MachineConfig::with_trace`] capacity to see the events).
    pub fn with_decision_trace(mut self, on: bool) -> Self {
        self.decision_trace = on;
        self
    }

    /// Builder-style override of the learned-scheduler ejection
    /// threshold (consecutive mispredictions).
    pub fn with_learn_eject_k(mut self, k: u32) -> Self {
        self.learn_eject_k = k.max(1);
        self
    }

    /// Builder-style engine-slowdown override (wall-clock only; `1`
    /// disables).
    pub fn with_engine_slowdown(mut self, factor: u64) -> Self {
        self.engine_slowdown = factor.max(1);
        self
    }

    /// Number of processors.
    pub fn nr_cpus(&self) -> usize {
        self.sched.nr_cpus
    }

    /// Report label ("UP", "2P", ...).
    pub fn label(&self) -> String {
        self.sched.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn up_defaults() {
        let c = MachineConfig::up();
        assert_eq!(c.nr_cpus(), 1);
        assert!(!c.sched.smp);
        assert_eq!(c.tick_cycles, c.cpu_hz / 100, "10 ms tick");
        assert_eq!(c.label(), "UP");
    }

    #[test]
    fn smp_labels_and_cpus() {
        let c = MachineConfig::smp(4);
        assert_eq!(c.nr_cpus(), 4);
        assert!(c.sched.smp);
        assert_eq!(c.label(), "4P");
    }

    #[test]
    fn builder_overrides() {
        let c = MachineConfig::up().with_seed(42).with_max_secs(2.0);
        assert_eq!(c.seed, 42);
        assert_eq!(c.max_cycles, 2 * MachineConfig::DEFAULT_HZ);
    }

    #[test]
    fn chaos_defaults_off() {
        let c = MachineConfig::up();
        assert!(c.faults.is_none());
        assert!(!c.oracle);
        let c = c
            .with_faults(Some(FaultPlan::light()))
            .with_fault_seed(7)
            .with_oracle(true);
        assert_eq!(c.faults.as_ref().unwrap().label(), "light");
        assert_eq!(c.fault_seed, 7);
        assert!(c.oracle);
    }

    #[test]
    fn topo_config_follows_the_tree() {
        let c = MachineConfig::topo("2N4C2T".parse().unwrap());
        assert_eq!(c.nr_cpus(), 16);
        assert!(c.sched.smp);
        assert_eq!(c.label(), "2N4C2T");
    }

    #[test]
    fn lock_plan_defaults_to_scheduler_choice() {
        assert_eq!(MachineConfig::smp(2).lock_plan, None);
        let c = MachineConfig::smp(2).with_lock_plan(Some(LockPlan::PerCpu));
        assert_eq!(c.lock_plan, Some(LockPlan::PerCpu));
    }
}
